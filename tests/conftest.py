"""Pin BLAS to one thread before any test module imports numpy.

Default OpenBLAS threads spin under contention on a small machine, and
``time.process_time()`` counts every worker thread, so the acceptance
study's CPU budget (criterion 5) would measure the thread count as much as
the work.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
