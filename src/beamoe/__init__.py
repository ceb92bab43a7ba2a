"""Desk-scale mixture-of-experts stack with learnable binary expert masks.

Modules follow the data flow: ``tensor`` (autodiff numerics), ``moe``
(experts and top-k routing), ``beam`` (the binary activation mask), ``dispatch``
(masked execution: surviving slots grouped by expert, numpy only), ``baselines``
(comparison routing strategies), ``trainer`` (tiny character LM), ``analysis``
(sparsity metrics), ``cli`` (command-line front end).
"""

__version__ = "0.1.0"
