"""Binary expert-activation masking, the one mask stage of ``beam``,
``soft_mask`` and ``soft_mask_tempered``.

A second linear router scores every expert per token; a sigmoid squashes the
scores (over a temperature, for ``soft_mask_tempered``) into (0, 1) and an
inclusive threshold tau (0.5 by default) turns them into a binary mask over
the primary router's top-k candidates; the soft kinds weight by the sigmoid
itself unless ``baselines.route`` discretizes them. Training keeps the mask
in the graph through a straight-through binarizer, runs every candidate (a
closed one weighs 0 and adds exactly 0) and pushes the mask toward zero with
an L1 term on the candidates; inference dispatches the kept ones only. Both
slot sets come from ``baselines.block_forward``, the weight rule from
``moe.slot_weights``.
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


def mask_forward(x: Tensor, router: MaskRouter, temperature: float = 1.0) -> MaskDecision:
    """Raw mask sigmoid(x W / temperature) and its straight-through binary
    mask raw >= tau; at temperature 1.0 the bit-identical scaling is skipped."""
    a = matmul(x, router.weight)
    if temperature != 1.0:
        a = mul(a, 1.0 / temperature)
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
