"""Routing strategies: plain top-k, the comparison methods, the learned
binary mask, and its soft-mask ablation variants.

Every strategy reduces to the same interface: given normalized token inputs
and a block's parameters, produce a ``RouteResult``. It stores the final
per-expert weight matrix, the router logits, the balance sets, one slot set
(candidate ids plus an active bit per candidate) and the raw mask of masked
strategies. Active counts, kept ids and the sparsity-loss candidate set are
derived from the slot set, never stored.

Every strategy starts from one ``topk_route`` call. ``moe_dynamic`` asks it
for all N experts as candidates, then renormalizes over its top-p set with
the kept-set softmax, which is also its balance set and its active bits.

Strategy parameters are declared in one place, ``PARAM_DEFAULTS`` with
``PARAM_RULES``: each default, type and range. ``RoutingStrategy.validate``,
``RoutingStrategy.resolved``, ``build_block`` and ``route`` all read it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import beam as beam_mod
from . import dispatch
from .moe import (
    MoEBlock,
    MoEBlockConfig,
    expert_forward_np,
    moe_block_forward,
    topk_route,
)
from .tensor import ContractError, Tensor, mul, slice_cols, softmax

# The parameter table: each kind's parameters and their defaults (None is the
# block's top_k), then per parameter whether it must be an integer, its range
# rule over the value and the block config, and the out-of-range message.
PARAM_DEFAULTS = {
    "vanilla_topk": {},
    "topk_reduced": {"k_small": None},
    "topk_pruning": {"k_infer": None},
    "moe_dynamic": {"phi": 0.5},
    "ada_moe": {"null_count": 0},
    "beam": {"tau": 0.5},
    "soft_mask": {"tau": 0.5},
    "soft_mask_tempered": {"tau": 0.5, "temp_floor": 0.1},
}
PARAM_RULES = {
    "k_small": (True, lambda v, c: 1 <= v <= c.num_experts, "k_small out of range"),
    "k_infer": (True, lambda v, c: 1 <= v <= c.top_k, "k_infer must satisfy 1 <= K_infer <= K_train"),
    "phi": (False, lambda v, c: 0.0 < v <= 1.0, "phi must lie in (0, 1]"),
    "null_count": (True, lambda v, c: v >= 0, "null_count must be >= 0"),
    "tau": (False, lambda v, c: 0.0 < v < 1.0, "tau must lie in (0, 1)"),
    "temp_floor": (False, lambda v, c: v > 0, "temp_floor must be positive"),
}
KINDS = tuple(PARAM_DEFAULTS)

_MASKED_KINDS = {"beam", "soft_mask", "soft_mask_tempered"}


def is_number(value, integer: bool) -> bool:
    """An integer (or, unless ``integer``, a real number) that is not a bool:
    bool is an int subclass, so True would pass as a count of 1."""
    want = numbers.Integral if integer else numbers.Real
    return isinstance(value, want) and not isinstance(value, bool)


@dataclass
class RoutingStrategy:
    kind: str
    params: dict = field(default_factory=dict)

    def resolved(self, cfg: MoEBlockConfig) -> dict:
        """Every parameter of the kind: its given value, else its default."""
        defaults = {n: cfg.top_k if d is None else d for n, d in PARAM_DEFAULTS[self.kind].items()}
        return {n: self.params[n] if n in self.params else d for n, d in defaults.items()}

    def validate(self, cfg: MoEBlockConfig) -> None:
        if self.kind not in KINDS:
            raise ContractError(f"unknown routing strategy {self.kind!r}")
        unknown = set(self.params) - set(PARAM_DEFAULTS[self.kind])
        if unknown:
            raise ContractError(f"{self.kind}: unknown params {sorted(unknown)}")
        for name, value in self.params.items():
            integer = PARAM_RULES[name][0]
            if not is_number(value, integer):
                noun = "an integer" if integer else "a real number"
                raise ContractError(f"{self.kind}: {name} must be {noun}, got {value!r}")
        for name, value in self.resolved(cfg).items():
            _, in_range, message = PARAM_RULES[name]
            if not in_range(value, cfg):
                raise ContractError(message)

    @property
    def needs_mask_router(self) -> bool:
        return self.kind in _MASKED_KINDS


def build_block(
    cfg: MoEBlockConfig, strategy: RoutingStrategy, rng: np.random.Generator
) -> MoEBlock:
    strategy.validate(cfg)
    p = strategy.resolved(cfg)
    block = MoEBlock(cfg, rng, null_count=p.get("null_count", 0))  # ada_moe only
    if strategy.needs_mask_router:
        block.mask_router = beam_mod.MaskRouter.zero_init(cfg.d_h, cfg.num_experts, p["tau"])
    return block


@dataclass
class RouteResult:
    """Everything downstream consumers need from one routing pass.

    One slot set is stored: the candidates and an active bit per candidate.
    Counts, kept ids and the sparsity-loss candidate set are derived from it,
    so the encodings cannot disagree.
    """

    weights_hat: Tensor  # (T, N) final expert weights
    logits: Tensor  # router logits, (T, N) or (T, N + nulls)
    balance_active: np.ndarray  # bool, same width as logits
    candidate_ids: np.ndarray  # (T, K), or (T, N) for moe_dynamic; -1 marks a null slot
    active_bits: np.ndarray  # same shape, 0/1 per candidate slot
    raw_mask: Tensor | None = None  # sigmoid mask values, masked strategies only

    @property
    def active_counts(self) -> np.ndarray:
        """(T,) activated experts per token."""
        return self.active_bits.sum(axis=-1)

    @property
    def kept_ids(self) -> np.ndarray:
        """Candidate ids with -1 on every inactive slot: the block's slot set
        everywhere but in masked training, which runs every candidate
        (``block_forward``)."""
        return np.where(self.active_bits == 1, self.candidate_ids, np.int64(-1))

    @property
    def reg_indices(self) -> np.ndarray | None:
        """Candidate set of the sparsity loss, masked strategies only."""
        return self.candidate_ids if self.raw_mask is not None else None


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


def temperature_at(
    step: int, total_steps: int, floor: float = PARAM_DEFAULTS["soft_mask_tempered"]["temp_floor"]
) -> float:
    """Geometric decay 1.0 -> floor, reaching the floor halfway through."""
    half = max(1, total_steps // 2)
    return max(floor, float(floor ** (min(step, half) / half)))


def route(
    block: MoEBlock,
    x_norm: Tensor,
    strategy: RoutingStrategy,
    training: bool,
    step: int = 0,
    total_steps: int = 1,
    binarize_soft: bool = False,
) -> RouteResult:
    n = block.cfg.num_experts
    kind = strategy.kind
    p = strategy.resolved(block.cfg)

    k = block.cfg.top_k
    if kind == "topk_reduced":
        k = p["k_small"]
    elif kind == "topk_pruning" and not training:
        k = p["k_infer"]
    elif kind == "moe_dynamic":
        # every expert is a candidate, in descending-logit order (ties to the
        # lower index): the top-p set can hold more than K experts, and
        # inference must run (and the trace record) all of them, as training does
        k = n
    dec = topk_route(x_norm, block.router_w, k)  # ada_moe: over N + null columns
    ids = dec.topk_indices
    rows = np.arange(len(ids))[:, None]  # indexes each token's candidates
    weights_hat = dec.weights
    balance_active = dec.keep
    bits = np.ones(ids.shape, dtype=np.int64)
    raw_mask = None

    if kind == "moe_dynamic":
        balance_active = dynamic_select(dec.weights.data, p["phi"])
        weights_hat = softmax(dec.logits, balance_active)
        bits = balance_active[rows, ids].astype(np.int64)
    elif kind == "ada_moe":
        real = ids < n
        weights_hat = slice_cols(weights_hat, 0, n)
        ids = np.where(real, ids, np.int64(-1))
        bits = real.astype(np.int64)
    elif kind in _MASKED_KINDS:
        temp = 1.0
        if kind == "soft_mask_tempered":
            floor = p["temp_floor"]
            temp = temperature_at(step, total_steps, floor) if training else floor
        maskdec = beam_mod.mask_forward(x_norm, block.mask_router, temp)
        raw_mask = maskdec.raw_mask
        hard = kind == "beam" or (
            not training and (kind == "soft_mask_tempered" or binarize_soft)
        )
        weights_hat = mul(weights_hat, maskdec.mask if hard else raw_mask)
        # a soft mask left soft at inference only rescales weights: every
        # candidate runs
        if training or hard:
            bits = maskdec.binary_mask[rows, ids]

    return RouteResult(
        weights_hat=weights_hat,
        logits=dec.logits,
        balance_active=balance_active,
        candidate_ids=ids,
        active_bits=bits,
        raw_mask=raw_mask,
    )


def block_forward(
    h: Tensor,
    block: MoEBlock,
    strategy: RoutingStrategy,
    training: bool,
    step: int = 0,
    total_steps: int = 1,
    binarize_soft: bool = False,
) -> tuple[Tensor, RouteResult]:
    """One full MoE block under the given strategy.

    The block's one slot set is picked here: ``candidate_ids`` when training
    a masked strategy (its straight-through estimator needs closed slots'
    outputs), else ``kept_ids``. Training runs it on the tape, inference
    through the dispatch plan; ``moe.slot_weights`` checks the weights.
    """
    x_n = block.normalize(h)
    rr = route(block, x_n, strategy, training, step, total_steps, binarize_soft)
    ids = rr.candidate_ids if training and rr.raw_mask is not None else rr.kept_ids
    if training:
        out = moe_block_forward(
            h,
            rr.weights_hat,
            block.experts,
            block.shared,
            compute_ids=ids,
            x_norm=x_n,
            activation=block.cfg.activation,
        )
        return out, rr

    plan = dispatch.align_block(ids, num_experts=block.cfg.num_experts)
    y = dispatch.grouped_execute(
        x_n.data, plan, block.experts, rr.weights_hat.data, block.cfg.activation
    )
    for e in block.shared:
        y = y + expert_forward_np(x_n.data, e, block.cfg.activation)
    return Tensor._raw(h.data + y), rr
