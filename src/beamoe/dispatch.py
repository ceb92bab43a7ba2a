"""Masked expert dispatch: group the surviving (token, slot) pairs by expert
and execute each expert once over its rows.

The plan is compressed-row: per-expert counts and offsets into one flat
token order and one flat slot order. Block alignment, which a device layout
would pad each expert's run to, is arithmetic only (``padded_count``); no
array is padded, because numpy has no tiles for padding to fill.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .moe import Expert, expert_forward_np, topk_select
from .tensor import ContractError


@dataclass
class DispatchPlan:
    """Expert-grouped slot layout in compressed-row form.

    Expert e owns ``token_order[offsets[e]:offsets[e + 1]]`` and the same
    range of ``slot_order``: its real (token, k-slot) pairs in ascending
    (token, slot) order. ``padded_count(e)`` is the length a block-aligned
    layout would give that run; no array carries the padding.
    """

    block_size: int
    real_counts: np.ndarray
    offsets: np.ndarray
    token_order: np.ndarray
    slot_order: np.ndarray

    @property
    def num_experts(self) -> int:
        return len(self.real_counts)

    @property
    def total_real(self) -> int:
        return int(self.offsets[-1])

    def padded_count(self, expert: int) -> int:
        return -(-int(self.real_counts[expert]) // self.block_size) * self.block_size


def align_block(
    ids: np.ndarray,
    block_size: int,
    num_experts: int | None = None,
) -> DispatchPlan:
    """Group the unmasked slots of a (T, K) id array by expert.

    -1 marks a masked slot; any other id outside [0, num_experts) is
    rejected. Within an expert, slots keep ascending (token, k-slot) order
    so downstream accumulation order is deterministic.
    """
    if block_size < 1:
        raise ContractError("block_size must be >= 1")
    ids = np.asarray(ids, dtype=np.int64)
    _, k = ids.shape
    if num_experts is None:
        num_experts = int(ids.max()) + 1 if ids.size and ids.max() >= 0 else 0
    if ids.size and (ids.min() < -1 or ids.max() >= num_experts):
        raise ContractError(
            f"expert ids must lie in [-1, {num_experts}); got {ids.min()}..{ids.max()}"
        )
    flat = ids.reshape(-1)
    real = np.nonzero(flat >= 0)[0]  # ascending flat index == (token, slot) order
    experts = flat[real]
    counts = np.bincount(experts, minlength=num_experts)
    offsets = np.zeros(num_experts + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    picked = real[np.argsort(experts, kind="stable")]
    return DispatchPlan(
        block_size=block_size,
        real_counts=counts,
        offsets=offsets,
        token_order=picked // k,
        slot_order=picked % k,
    )


def grouped_execute(
    h: np.ndarray,
    plan: DispatchPlan,
    experts: list[Expert],
    weights_hat: np.ndarray,
    activation: str = "silu",
) -> np.ndarray:
    """Run each expert once over its real slots and scatter weighted outputs.

    Output equals the naive per-token loop: tokens absent from the plan get
    zero contribution, and per-token accumulation follows ascending expert
    id. The weights' nonzero pattern must agree with the plan.
    """
    if int(np.count_nonzero(weights_hat)) != plan.total_real:
        raise ContractError("weights_hat nonzero count disagrees with plan slots")
    y = np.zeros_like(h)
    bounds = plan.offsets.tolist()
    for e in range(plan.num_experts):
        lo, hi = bounds[e], bounds[e + 1]
        if lo == hi:
            continue
        rows = plan.token_order[lo:hi]
        w = weights_hat[rows, e]
        if np.any(w == 0.0):
            raise ContractError(f"plan routes a zero-weight slot to expert {e}")
        out = expert_forward_np(h[rows], experts[e], activation)
        # rows are unique within one expert, so fancy-index += is safe
        y[rows] += out * w[:, None]
    return y


def naive_execute(
    h: np.ndarray,
    masked_ids: np.ndarray,
    experts: list[Expert],
    weights_hat: np.ndarray,
    activation: str = "silu",
) -> np.ndarray:
    """Per-token reference loop used as the dispatch oracle."""
    t, k = masked_ids.shape
    y = np.zeros_like(h)
    for tok in range(t):
        for e in sorted(int(i) for i in masked_ids[tok] if i >= 0):
            out = expert_forward_np(h[tok : tok + 1], experts[e], activation)
            y[tok] += weights_hat[tok, e] * out[0]
    return y


@dataclass
class BenchRow:
    active_fraction: float
    slots_executed: int
    wall_time_ns_min: int
    wall_time_ns_mean: float


BENCH_CSV_HEADER = "active_fraction,slots_executed,wall_time_ns_min,wall_time_ns_mean"


def bench_dispatch(
    num_tokens: int,
    num_experts: int,
    top_k: int,
    d_h: int,
    d_ff: int,
    active_fractions: list[float],
    repetitions: int,
    block_size: int = 16,
    seed: int = 0,
) -> list[BenchRow]:
    """Time grouped_execute at synthetic activity levels.

    Mask synthesis is deterministic given the seed: exactly
    round(fraction * T * K) slots survive, so executed-slot counts land on
    the target within rounding. Plans are built outside the timed region;
    the minimum over repetitions is the noise-robust statistic.
    """
    for f in active_fractions:
        if not 0.0 < f <= 1.0:
            raise ContractError("active fractions must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    h = rng.normal(0.0, 1.0, (num_tokens, d_h))
    experts = [Expert.init_random(d_h, d_ff, rng) for _ in range(num_experts)]
    base_ids = topk_select(rng.normal(0.0, 1.0, (num_tokens, num_experts)), top_k)
    base_weights = rng.uniform(0.1, 1.0, (num_tokens, top_k))

    rows = []
    for fraction in active_fractions:
        keep_count = int(round(fraction * num_tokens * top_k))
        keep_flat = np.zeros(num_tokens * top_k, dtype=bool)
        keep_flat[rng.permutation(num_tokens * top_k)[:keep_count]] = True
        keep = keep_flat.reshape(num_tokens, top_k)
        masked_ids = np.where(keep, base_ids, np.int64(-1))
        weights_hat = np.zeros((num_tokens, num_experts))
        rows_idx = np.repeat(np.arange(num_tokens), top_k)[keep_flat]
        cols_idx = base_ids.reshape(-1)[keep_flat]
        weights_hat[rows_idx, cols_idx] = base_weights.reshape(-1)[keep_flat]
        plan = align_block(masked_ids, block_size, num_experts)

        timings = []
        for _ in range(repetitions):
            t0 = time.perf_counter_ns()
            grouped_execute(h, plan, experts, weights_hat)
            timings.append(time.perf_counter_ns() - t0)
        rows.append(
            BenchRow(
                active_fraction=fraction,
                slots_executed=plan.total_real,
                wall_time_ns_min=min(timings),
                wall_time_ns_mean=float(np.mean(timings)),
            )
        )
    return rows
