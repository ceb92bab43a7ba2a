"""Tests of the benchmark itself, at a scale far below the benchmark's:

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

TINY = workloads.Scale(corpus_chars=4096, train_steps=2, eval_tokens=1024, decode_tokens=4)
NAMES = ("train_beam", "infer_masked", "trace_analyze")
# count metrics that must repeat exactly, by the workload that exercises them
MOVED = {
    "train_beam": ("tensor.tape_nodes", "moe.expert_rows"),
    "infer_masked": ("dispatch.slots_executed", "dispatch.padded_slots"),
    "trace_analyze": ("analysis.trace_rows", "dispatch.slots_executed"),
}


def _workload(name, seed, tmp_path):
    w = workloads.make_workload(name, seed, TINY, tmp_path)
    w.setup()
    return w


def _traced(name, seed, tmp_path):
    tally = workloads.Tally()
    layer = workloads.run_traced(_workload(name, seed, tmp_path), 0.0, tally)
    assert tally.failed == 0, tally.problems
    return layer


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_restores_every_patched_attribute(name, tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.HOOKS]
    _traced(name, 3, tmp_path)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left patched"


@pytest.mark.parametrize("name", NAMES)
def test_child_spans_nest_inside_parents(name, tmp_path):
    w = _workload(name, 3, tmp_path)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        w.run_unit(0, workloads.Tally())
    assert tracer.spans
    for span in tracer.spans:
        assert span.start <= span.end
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    total, self_time = tracer.totals()
    assert all(v >= 0.0 for v in self_time.values()), self_time
    assert all(self_time[k] <= total[k] for k in total)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_with_the_same_seed(name, tmp_path):
    first = _traced(name, 5, tmp_path)
    second = _traced(name, 5, tmp_path)
    counts = {k: v for k, (v, unit) in first.items() if unit in ("count", "ratio")}
    assert counts == {k: v for k, (v, unit) in second.items() if unit in ("count", "ratio")}
    for metric in MOVED[name]:
        assert counts[metric] > 0, metric


def test_train_reaches_no_dispatch_and_inference_no_tape(tmp_path):
    train = _traced("train_beam", 1, tmp_path)
    infer = _traced("infer_masked", 1, tmp_path)
    assert train["dispatch.slots_executed"][0] == 0 and train["dispatch.grouped_execute_ms"][0] == 0
    assert infer["tensor.tape_nodes"][0] == 0 and infer["moe.expert_rows"][0] == 0


def test_plain_run_checks_outputs_and_restores_clocks(tmp_path):
    forward = vars(workloads.TinyMoELM)["forward"]
    tally = workloads.Tally()
    w = _workload("trace_analyze", 2, tmp_path)
    workloads.run_plain(w, 0.0, tally)
    named = w.summary(tally)
    assert tally.failed == 0 and tally.ops > 0
    assert set(w.END_TO_END.values()) <= set(named)
    assert named["trace_analyze_tok_s"][0] > 0
    assert named["traced_decode_token_ms_p90"][0] >= named["traced_decode_token_ms_p50"][0] > 0
    assert vars(workloads.TinyMoELM)["forward"] is forward


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent.parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_beam", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
