"""Per-layer timing of beamoe from outside the library.

Spans are recorded by replacing a library function, for the duration of a
``with`` block, at the name its caller looks up: callers bind most names at
import (``from .baselines import block_forward``), so the wrapper goes on the
calling module or on the class, never only on the defining module. Every
replaced attribute is put back when the block exits, so code outside the
block runs the original objects and pays nothing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from beamoe import analysis, baselines, beam, dispatch, moe, trainer
from beamoe.analysis import SparsityTrace
from beamoe.tensor import Tape
from beamoe.trainer import Adam, TinyMoELM


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top level


class Tracer:
    """In-memory span log plus counters.

    Spans nest by construction: a wrapper pushes itself on entry and pops on
    exit, so a span started inside another ends before it. A span's self
    time is its duration minus that of its direct children.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return wrapper

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: (total, self)."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        for s in self.spans:
            total[s.name] += s.end - s.start
            if s.parent >= 0:
                child[self.spans[s.parent].name] += s.end - s.start
        return dict(total), {name: total[name] - child[name] for name in total}


@contextmanager
def patched(replacements):
    """Set ``owner.attr = make(original)`` for each (owner, attr, make),
    restoring every original object on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _counting(tracer: Tracer, fn, count):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        count(tracer.counts, args, out)
        return out

    return wrapper


def _count_backward(counts, args, out):
    counts["tensor.tape_nodes"] += len(args[0].nodes)
    counts["tensor.backward_calls"] += 1


def _count_expert_rows(counts, args, out):
    counts["moe.expert_rows"] += args[0].shape[0]


def _count_plan(counts, args, plan):
    counts["dispatch.candidate_slots"] += args[0].size
    counts["dispatch.slots_executed"] += plan.total_real
    padded = sum(plan.padded_count(e) for e in range(plan.num_experts))
    counts["dispatch.padded_slots"] += padded - plan.total_real


# (owner, attribute, span name or None, counter or None). The owner is the
# namespace the caller resolves the name in.
HOOKS = [
    (Tape, "backward", "tensor.backward", _count_backward),
    (TinyMoELM, "forward", "trainer.forward", None),
    (TinyMoELM, "_attention", "trainer.attention", None),
    (TinyMoELM, "snapshot", "trainer.snapshot", None),
    (Adam, "step", "trainer.optimizer", None),
    (trainer, "clip_gradients", "trainer.clip", None),
    (trainer, "cross_entropy", "trainer.loss", None),
    (trainer, "balance_loss_from", "trainer.loss", None),
    (trainer, "sparsity_loss", "trainer.loss", None),
    (trainer, "sample_batch", "trainer.batch_wait", None),
    (trainer, "block_forward", "baselines.block_forward", None),
    (baselines, "route", "baselines.route", None),
    (baselines, "topk_route", "moe.topk_route", None),
    (baselines, "moe_block_forward", "moe.moe_block_forward", None),
    (moe, "expert_forward", None, _count_expert_rows),
    (beam, "mask_forward", "beam.mask_forward", None),
    (dispatch, "align_block", "dispatch.align_block", _count_plan),
    (dispatch, "grouped_execute", "dispatch.grouped_execute", None),
    (dispatch, "expert_forward_np", "dispatch.expert", None),
    (SparsityTrace, "record_cell", "analysis.record", None),
    (SparsityTrace, "to_csv", "analysis.to_csv", None),
    (SparsityTrace, "from_csv", "analysis.from_csv", None),
    (analysis, "avg_k", "analysis.metrics", None),
    (analysis, "position_mask_prob", "analysis.metrics", None),
    (analysis, "rank_extremes", "analysis.metrics", None),
    (analysis, "expert_load", "analysis.metrics", None),
    (analysis, "emit_report", "analysis.emit", None),
]


def _instrument(tracer: Tracer, span_name, count):
    def make(original):
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        if count is not None:
            fn = _counting(tracer, fn, count)
        if span_name is not None:
            fn = tracer.timed(span_name, fn)
        return classmethod(fn) if is_classmethod else fn

    return make


@contextmanager
def traced(tracer: Tracer):
    """Install every hook in HOOKS for the duration of the block."""
    with patched([(owner, attr, _instrument(tracer, name, count)) for owner, attr, name, count in HOOKS]):
        yield tracer


@contextmanager
def clocked(owner, attr: str, stamps: list[float]):
    """Append a timestamp to ``stamps`` on every call of ``owner.attr``.

    This is the only hook an untraced run installs: it marks step and token
    boundaries inside library loops (one clock read per train step or per
    forward pass) so their latency can be taken from outside.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            stamps.append(time.perf_counter())
            return original(*args, **kwargs)

        return wrapper

    with patched([(owner, attr, make)]):
        yield


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced work unit: name -> (value, unit).

    Times ending in ``_self_ms`` exclude child spans; other times include
    them. A layer the workload does not reach reads 0.
    """
    total, self_time = tracer.totals()
    c = tracer.counts

    def ms(name, table=total):
        return table.get(name, 0.0) * 1000.0

    steps = c["tensor.backward_calls"]
    return {
        "tensor.backward_ms": (ms("tensor.backward"), "ms"),
        "tensor.tape_nodes": (c["tensor.tape_nodes"] / steps if steps else 0.0, "count"),
        "trainer.forward_self_ms": (ms("trainer.forward", self_time), "ms"),
        "trainer.attention_ms": (ms("trainer.attention"), "ms"),
        "trainer.optimizer_ms": (ms("trainer.optimizer"), "ms"),
        "trainer.clip_ms": (ms("trainer.clip"), "ms"),
        "trainer.snapshot_ms": (ms("trainer.snapshot"), "ms"),
        "trainer.loss_ms": (ms("trainer.loss"), "ms"),
        "trainer.batch_wait_ms": (ms("trainer.batch_wait"), "ms"),
        "baselines.block_forward_self_ms": (ms("baselines.block_forward", self_time), "ms"),
        "baselines.route_ms": (ms("baselines.route"), "ms"),
        "moe.topk_route_ms": (ms("moe.topk_route"), "ms"),
        "beam.mask_forward_ms": (ms("beam.mask_forward"), "ms"),
        "moe.moe_block_forward_ms": (ms("moe.moe_block_forward"), "ms"),
        "moe.expert_rows": (float(c["moe.expert_rows"]), "count"),
        "dispatch.align_block_ms": (ms("dispatch.align_block"), "ms"),
        "dispatch.grouped_execute_ms": (ms("dispatch.grouped_execute"), "ms"),
        "dispatch.expert_ms": (ms("dispatch.expert"), "ms"),
        "dispatch.slots_executed": (float(c["dispatch.slots_executed"]), "count"),
        "dispatch.active_slot_ratio": (
            c["dispatch.slots_executed"] / c["dispatch.candidate_slots"]
            if c["dispatch.candidate_slots"]
            else 0.0,
            "ratio",
        ),
        "dispatch.padded_slots": (float(c["dispatch.padded_slots"]), "count"),
        "analysis.record_ms": (ms("analysis.record"), "ms"),
        "analysis.to_csv_ms": (ms("analysis.to_csv"), "ms"),
        "analysis.from_csv_ms": (ms("analysis.from_csv"), "ms"),
        "analysis.metrics_ms": (ms("analysis.metrics"), "ms"),
        "analysis.emit_ms": (ms("analysis.emit"), "ms"),
        "analysis.trace_rows": (float(c["analysis.trace_rows"]), "count"),
    }
