"""Binary expert-activation masking.

A second linear router scores every expert per token; a sigmoid squashes the
scores into (0, 1) and an inclusive threshold tau (0.5 by default) turns them
into a binary mask over the primary router's top-k candidates. Training keeps
the mask in the graph through a straight-through binarizer and pressures it
toward zero with an L1 term restricted to the candidate set; inference
(``baselines.block_forward``) skips masked experts entirely via the dispatch
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, Tensor, binarize_ste, matmul, mul, sigmoid, tsum


@dataclass
class MaskRouter:
    """Linear mask scorer. Starts at zero so every mask opens at 1 and the
    block is indistinguishable from plain top-k routing until training moves
    the weights."""

    weight: Tensor
    tau: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ContractError("tau must lie in (0, 1)")

    @classmethod
    def zero_init(cls, d_h: int, num_experts: int, tau: float = 0.5) -> "MaskRouter":
        return cls(Tensor(np.zeros((d_h, num_experts)), requires_grad=True), tau)


@dataclass
class MaskDecision:
    """Per-token mask state: pre-activations, sigmoid raw mask, binary mask.

    ``mask`` is the straight-through tensor (0.0/1.0 values) used in the
    graph; ``binary_mask`` is its integer view for bookkeeping.
    """

    pre_activation: Tensor
    raw_mask: Tensor
    mask: Tensor

    @property
    def binary_mask(self) -> np.ndarray:
        return self.mask.data.astype(np.int64)


def mask_forward(x: Tensor, router: MaskRouter) -> MaskDecision:
    a = matmul(x, router.weight)
    raw = sigmoid(a)
    m = binarize_ste(raw, router.tau)
    return MaskDecision(pre_activation=a, raw_mask=raw, mask=m)


def sparsity_loss(raw_mask: Tensor, topk_indices: np.ndarray) -> Tensor:
    """Token-mean L1 of the raw mask over each token's top-k candidates.

    Raw mask values are strictly inside (0, 1), so the absolute value has
    unit slope and each candidate entry gets gradient 1/(K*T); entries
    outside the candidate set get none.
    """
    t, k = topk_indices.shape
    sel = np.zeros(raw_mask.shape)
    np.put_along_axis(sel, topk_indices, 1.0, axis=-1)
    return mul(tsum(mul(raw_mask, Tensor._raw(sel))), 1.0 / (t * k))
