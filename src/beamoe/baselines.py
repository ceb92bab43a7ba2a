"""Routing strategies: plain top-k, the comparison methods, the learned
binary mask, and its soft-mask ablation variants.

Every strategy reduces to the same interface: given normalized token inputs
and a block's parameters, produce the final per-expert weight matrix plus
the bookkeeping (candidates, activation bits, balance sets) the trainer and
analysis layers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import beam as beam_mod
from .moe import (
    MoEBlock,
    MoEBlockConfig,
    expert_forward_np,
    moe_block_forward,
    topk_route,
    topk_select,
)
from .tensor import (
    ContractError,
    Tensor,
    div,
    matmul,
    mul,
    sigmoid,
    slice_cols,
    softmax,
    tsum,
)

KINDS = (
    "vanilla_topk",
    "topk_reduced",
    "topk_pruning",
    "moe_dynamic",
    "ada_moe",
    "beam",
    "soft_mask",
    "soft_mask_tempered",
)

_MASKED_KINDS = {"beam", "soft_mask", "soft_mask_tempered"}


@dataclass
class RoutingStrategy:
    kind: str
    params: dict = field(default_factory=dict)

    def validate(self, cfg: MoEBlockConfig) -> None:
        if self.kind not in KINDS:
            raise ContractError(f"unknown routing strategy {self.kind!r}")
        p = dict(self.params)
        known = {
            "vanilla_topk": set(),
            "topk_reduced": {"k_small"},
            "topk_pruning": {"k_infer"},
            "moe_dynamic": {"phi"},
            "ada_moe": {"null_count"},
            "beam": {"tau"},
            "soft_mask": {"tau"},
            "soft_mask_tempered": {"tau", "temp_floor"},
        }[self.kind]
        unknown = set(p) - known
        if unknown:
            raise ContractError(f"{self.kind}: unknown params {sorted(unknown)}")
        if self.kind == "topk_reduced":
            k_small = p.get("k_small", cfg.top_k)
            if not 1 <= k_small <= cfg.num_experts:
                raise ContractError("k_small out of range")
        elif self.kind == "topk_pruning":
            k_infer = p.get("k_infer", cfg.top_k)
            if not 1 <= k_infer <= cfg.top_k:
                raise ContractError("k_infer must satisfy 1 <= K_infer <= K_train")
        elif self.kind == "moe_dynamic":
            phi = p.get("phi", 0.5)
            if not 0.0 < phi <= 1.0:
                raise ContractError("phi must lie in (0, 1]")
        elif self.kind == "ada_moe":
            if p.get("null_count", 0) < 0:
                raise ContractError("null_count must be >= 0")
        if self.kind in _MASKED_KINDS:
            tau = p.get("tau", 0.5)
            if not 0.0 < tau < 1.0:
                raise ContractError("tau must lie in (0, 1)")
        if self.kind == "soft_mask_tempered" and p.get("temp_floor", 0.1) <= 0:
            raise ContractError("temp_floor must be positive")

    @property
    def needs_mask_router(self) -> bool:
        return self.kind in _MASKED_KINDS

    @property
    def extra_router_cols(self) -> int:
        return self.params.get("null_count", 0) if self.kind == "ada_moe" else 0


def build_block(
    cfg: MoEBlockConfig, strategy: RoutingStrategy, rng: np.random.Generator
) -> MoEBlock:
    strategy.validate(cfg)
    block = MoEBlock(cfg, rng, extra_router_cols=strategy.extra_router_cols)
    if strategy.needs_mask_router:
        block.mask_router = beam_mod.MaskRouter.zero_init(
            cfg.d_h, cfg.num_experts, strategy.params.get("tau", 0.5)
        )
    return block


@dataclass
class RouteResult:
    """Everything downstream consumers need from one routing pass."""

    weights_hat: Tensor  # (T, N) final expert weights
    logits: Tensor  # router logits, (T, N) or (T, N + nulls)
    balance_active: np.ndarray  # bool, same width as logits
    candidate_ids: np.ndarray  # (T, K), (T, N) for moe_dynamic; -1 marks a null slot
    active_bits: np.ndarray  # same shape, 0/1 per candidate slot
    active_counts: np.ndarray  # (T,) activated experts per token
    raw_mask: Tensor | None = None  # sigmoid mask values, masked strategies only
    reg_indices: np.ndarray | None = None  # candidate set for the sparsity loss
    compute_ids: np.ndarray | None = None  # force-evaluate set for training
    kept_ids: np.ndarray | None = None  # candidate ids with -1 where skippable


def dynamic_select(probs: np.ndarray, phi: float) -> np.ndarray:
    """Boolean active sets: smallest descending-probability prefix whose
    cumulative mass reaches phi, at least one expert per token."""
    order = np.argsort(-probs, axis=-1, kind="stable")
    csum = np.take_along_axis(probs, order, axis=-1).cumsum(axis=-1)
    # csum is non-decreasing, so counting entries < phi finds the first index
    # whose cumulative mass reaches phi
    counts = np.minimum((csum < phi).sum(axis=-1) + 1, probs.shape[-1])
    active = np.zeros(probs.shape, dtype=bool)
    ranks = np.arange(probs.shape[-1])[None, :]
    np.put_along_axis(active, order, ranks < counts[:, None], axis=-1)
    return active


def temperature_at(step: int, total_steps: int, floor: float = 0.1) -> float:
    """Geometric decay 1.0 -> floor, reaching the floor halfway through."""
    half = max(1, total_steps // 2)
    return max(floor, float(floor ** (min(step, half) / half)))


def _one_hot(ids: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((ids.shape[0], width), dtype=bool)
    np.put_along_axis(out, ids, True, axis=-1)
    return out


def route(
    block: MoEBlock,
    x_norm: Tensor,
    strategy: RoutingStrategy,
    training: bool,
    step: int = 0,
    total_steps: int = 1,
    binarize_soft: bool = False,
) -> RouteResult:
    cfg = block.cfg
    k = cfg.top_k
    n = cfg.num_experts
    kind = strategy.kind
    p = strategy.params

    if kind in ("vanilla_topk", "topk_reduced", "topk_pruning"):
        if kind == "topk_reduced":
            k_eff = p.get("k_small", k)
        elif kind == "topk_pruning" and not training:
            k_eff = p.get("k_infer", k)
        else:
            k_eff = k
        dec = topk_route(x_norm, block.router_w, k_eff)
        ids = dec.topk_indices
        return RouteResult(
            weights_hat=dec.weights,
            logits=dec.logits,
            balance_active=_one_hot(ids, n),
            candidate_ids=ids,
            active_bits=np.ones(ids.shape, dtype=np.int64),
            active_counts=np.full(ids.shape[0], k_eff, dtype=np.int64),
            kept_ids=ids,
        )

    if kind == "moe_dynamic":
        logits = matmul(x_norm, block.router_w)
        probs = softmax(logits)
        active = dynamic_select(probs.data, p.get("phi", 0.5))
        masked = mul(probs, Tensor._raw(active.astype(np.float64)))
        weights_hat = div(masked, tsum(masked, axis=-1, keepdims=True))
        # every expert is a candidate, in descending-probability order: the
        # top-p set can hold more than K experts, and inference must run
        # (and the trace record) all of them, as training does
        order = topk_select(probs.data, n)
        bits = np.take_along_axis(active, order, axis=-1).astype(np.int64)
        counts = active.sum(axis=-1).astype(np.int64)
        kept = np.where(bits == 1, order, np.int64(-1))
        return RouteResult(
            weights_hat=weights_hat,
            logits=logits,
            balance_active=active,
            candidate_ids=order,
            active_bits=bits,
            active_counts=counts,
            kept_ids=kept,
        )

    if kind == "ada_moe":
        dec = topk_route(x_norm, block.router_w, k)  # over N + null columns
        ids_ext = dec.topk_indices
        weights_hat = slice_cols(dec.weights, 0, n)
        real = ids_ext < n
        candidate_ids = np.where(real, ids_ext, np.int64(-1))
        return RouteResult(
            weights_hat=weights_hat,
            logits=dec.logits,
            balance_active=_one_hot(ids_ext, block.router_w.shape[-1]),
            candidate_ids=candidate_ids,
            active_bits=real.astype(np.int64),
            active_counts=real.sum(axis=-1).astype(np.int64),
            kept_ids=candidate_ids,
        )

    dec = topk_route(x_norm, block.router_w, k)
    ids = dec.topk_indices
    tau = block.mask_router.tau

    if kind == "beam":
        maskdec = beam_mod.mask_forward(x_norm, block.mask_router)
        weights_hat = mul(dec.weights, maskdec.mask)
        bits = np.take_along_axis(maskdec.binary_mask, ids, axis=-1)
        return RouteResult(
            weights_hat=weights_hat,
            logits=dec.logits,
            balance_active=_one_hot(ids, n),
            candidate_ids=ids,
            active_bits=bits,
            active_counts=bits.sum(axis=-1),
            raw_mask=maskdec.raw_mask,
            reg_indices=ids,
            compute_ids=ids if training else None,
            kept_ids=np.where(bits == 1, ids, np.int64(-1)),
        )

    # soft variants
    if kind == "soft_mask_tempered":
        floor = p.get("temp_floor", 0.1)
        temp = temperature_at(step, total_steps, floor) if training else floor
    else:
        temp = 1.0
    a = matmul(x_norm, block.mask_router.weight)
    soft = sigmoid(mul(a, 1.0 / temp))
    hard = (soft.data >= tau).astype(np.int64)
    bits_hard = np.take_along_axis(hard, ids, axis=-1)

    discretize = (not training) and (kind == "soft_mask_tempered" or binarize_soft)
    if discretize:
        from .tensor import binarize_ste

        weights_hat = mul(dec.weights, binarize_ste(soft, tau))
        bits = bits_hard
        kept = np.where(bits == 1, ids, np.int64(-1))
    else:
        weights_hat = mul(dec.weights, soft)
        # every candidate executes: the soft mask only rescales weights
        bits = np.ones(ids.shape, dtype=np.int64) if not training else bits_hard
        kept = ids
    return RouteResult(
        weights_hat=weights_hat,
        logits=dec.logits,
        balance_active=_one_hot(ids, n),
        candidate_ids=ids,
        active_bits=bits,
        active_counts=bits.sum(axis=-1),
        raw_mask=soft,
        reg_indices=ids,
        compute_ids=ids if training else None,
        kept_ids=kept,
    )


def block_forward(
    h: Tensor,
    block: MoEBlock,
    strategy: RoutingStrategy,
    training: bool,
    step: int = 0,
    total_steps: int = 1,
    binarize_soft: bool = False,
    block_size: int = 16,
) -> tuple[Tensor, RouteResult]:
    """One full MoE block under the given strategy.

    Training keeps everything on the tape; inference executes the surviving
    slots through the dispatch plan plus shared experts.
    """
    from . import dispatch

    x_n = block.normalize(h)
    rr = route(block, x_n, strategy, training, step, total_steps, binarize_soft)
    if training:
        out = moe_block_forward(
            h,
            rr.weights_hat,
            block.experts,
            block.shared,
            x_norm=x_n,
            activation=block.cfg.activation,
            compute_ids=rr.compute_ids,
        )
        return out, rr

    plan = dispatch.align_block(rr.kept_ids, block_size, num_experts=block.cfg.num_experts)
    y = dispatch.grouped_execute(
        x_n.data, plan, block.experts, rr.weights_hat.data, block.cfg.activation
    )
    for e in block.shared:
        y = y + expert_forward_np(x_n.data, e, block.cfg.activation)
    return Tensor._raw(h.data + y), rr
