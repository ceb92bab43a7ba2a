"""Masked expert dispatch: group the surviving (token, slot) pairs by expert
and execute each expert once over its rows.

The plan is compressed-row: per-expert offsets into one flat token order,
built by ``moe.group_slots`` over the one slot set ``baselines.block_forward``
picks, as training's ``moe_block_forward`` does, and weighted under the one
rule of ``moe.slot_weights``. Block alignment, which a device layout would
pad each expert's run to, is arithmetic only (``padded_count``); no array is
padded, because numpy has no tiles for padding to fill.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .moe import Expert, expert_forward_np, expert_runs, group_slots, slot_weights, topk_select
from .tensor import ContractError


@dataclass
class DispatchPlan:
    """Expert-grouped slot layout in compressed-row form.

    Expert e owns ``token_order[offsets[e]:offsets[e + 1]]``: the tokens of
    its real slots, ascending. ``padded_count(e)`` is the length a
    block-aligned layout would give that run; no array carries the padding.
    """

    block_size: int
    offsets: np.ndarray
    token_order: np.ndarray

    @property
    def num_experts(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_real(self) -> int:
        return int(self.offsets[-1])

    def padded_count(self, expert: int) -> int:
        count = int(self.offsets[expert + 1] - self.offsets[expert])
        return -(-count // self.block_size) * self.block_size


def align_block(ids: np.ndarray, block_size: int = 16, *, num_experts: int) -> DispatchPlan:
    """Group the unmasked slots of a (T, K) id array by expert.

    ``group_slots`` checks the ids: -1 marks a masked slot, any other id
    outside [0, num_experts) is rejected, and so is a token naming one
    expert twice. Within an expert, tokens stay in ascending order so
    downstream accumulation order is deterministic.
    """
    if block_size < 1:
        raise ContractError("block_size must be >= 1")
    offsets, token_order = group_slots(np.asarray(ids, dtype=np.int64), num_experts)
    return DispatchPlan(block_size=block_size, offsets=offsets, token_order=token_order)


def grouped_execute(
    h: np.ndarray,
    plan: DispatchPlan,
    experts: list[Expert],
    weights_hat: np.ndarray,
    activation: str = "silu",
) -> np.ndarray:
    """Run each expert once over its plan slots and scatter weighted outputs.

    Output equals the naive per-token loop: tokens absent from the plan get
    zero contribution, and per-token accumulation follows ascending expert
    id. The weights obey ``moe.slot_weights``, checked before any expert
    runs: none negative, every positive one on a plan slot. A zero-weight
    slot runs and adds exactly 0, as in training.
    """
    weights = slot_weights(weights_hat, plan.offsets, plan.token_order)
    y = np.zeros_like(h)
    bounds = plan.offsets.tolist()
    for e, rows in expert_runs(plan.offsets, plan.token_order):
        out = expert_forward_np(h[rows], experts[e], activation)
        out *= weights[bounds[e] : bounds[e + 1], None]
        # group_slots makes rows unique within one expert, so fancy-index += is safe
        y[rows] += out
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

    def to_csv(self) -> str:
        return ",".join(str(getattr(self, f.name)) for f in fields(self))


BENCH_CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


def bench_dispatch(
    num_tokens: int,
    num_experts: int,
    top_k: int,
    d_h: int,
    d_ff: int,
    active_fractions: list[float],
    repetitions: int,
    seed: int = 0,
) -> list[BenchRow]:
    """Time grouped_execute at synthetic activity levels.

    Mask synthesis is deterministic given the seed: exactly
    round(fraction * T * K) slots survive, so executed-slot counts land on
    the target within rounding. Plans are built outside the timed region;
    the minimum over repetitions is the noise-robust statistic.
    """
    if not 1 <= top_k <= num_experts:
        raise ContractError(f"top_k must lie in [1, num_experts], got {top_k} of {num_experts}")
    sizes = {"num_tokens": num_tokens, "d_h": d_h, "d_ff": d_ff, "repetitions": repetitions}
    for name, value in sizes.items():
        if value < 1:
            raise ContractError(f"{name} must be >= 1, got {value}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if not active_fractions:
        raise ContractError("active_fractions names no fraction")
    for f in active_fractions:
        if not 0.0 < f <= 1.0:
            raise ContractError(f"active fraction {f} outside (0, 1]")
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
        np.put_along_axis(weights_hat, base_ids, np.where(keep, base_weights, 0.0), axis=-1)
        plan = align_block(masked_ids, num_experts=num_experts)

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
