"""The benchmark's workloads and the loops that measure them.

Every workload builds its inputs from the seed alone (a synthetic corpus
and, for inference, weights drawn from the seed); the library receives only
those inputs. A workload does its work in fixed units, so the same seed
gives the same unit and the counts of a traced unit repeat exactly; a run
repeats units until its time is up.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from beamoe import analysis, baselines, dispatch, trainer
from beamoe.analysis import SparsityTrace
from beamoe.baselines import RoutingStrategy
from beamoe.trainer import ModelConfig, TinyMoELM, TrainConfig, TrainingDiverged

from tracing import Tracer, clocked, layer_metrics, patched, traced

BATCH = 8  # windows per train step and per eval batch
BETA = 0.1  # sparsity coefficient of train_beam
MASK_STD = 0.3  # spread of the drawn mask-router weights
LOSS_TAIL = 10  # train_loss averages lm_loss over this many final steps
LOSS_UNITS = 3  # ... of each of this many train units, all run to completion
DECODE_CHECKS = 4  # decode steps per unit re-checked against a fresh forward
TAIL_SAMPLES = 100  # p90 needs at least 10 samples beyond it
PARITY_TOL = 1e-9  # train/infer logit parity, as in the trainer tests
SETUP_REPEATS = 9  # set-ups per untraced run; setup_s is their median
TRACED_PAIRS = 2  # least number of untraced/traced unit pairs in a traced run


@dataclass
class Scale:
    """Size of one work unit. The defaults are the benchmark; tests shrink them."""

    corpus_chars: int = 102_400
    train_steps: int = 40
    eval_tokens: int = 16_384
    decode_tokens: int = 128


@dataclass
class Tally:
    """What the units of one run did: ops, failures, phase times, amounts,
    per-op latencies and the loss values the quality metric averages."""

    ops: int = 0
    failed: int = 0
    seconds: Counter = field(default_factory=Counter)
    amount: Counter = field(default_factory=Counter)
    latency_ms: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def _intervals_ms(stamps: list[float]) -> list[float]:
    return [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]


def _percentiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p90); run_plain collects TAIL_SAMPLES or more."""
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]


def corpus(seed: int, scale: Scale) -> tuple[np.ndarray, list[str]]:
    return trainer.ingest_text(trainer.synthetic_text(scale.corpus_chars, seed))


def model_config(vocab_size: int, seed: int) -> ModelConfig:
    """The acceptance config: d_h 64, 2 layers, 8 experts, top-4, context 64."""
    return ModelConfig(vocab_size=vocab_size, strategy=RoutingStrategy("beam"), seed=seed)


def drawn_model(vocab_size: int, seed: int) -> TinyMoELM:
    """A beam model whose weights, mask router included, come from the seed.

    Drawing the mask weights instead of training them means a change to
    training arithmetic cannot change how many slots inference executes.
    """
    model = TinyMoELM(model_config(vocab_size, seed))
    rng = np.random.default_rng([seed, 1])
    for layer in model.layers:
        w = layer["block"].mask_router.weight
        w.data[...] = rng.normal(0.0, MASK_STD, w.shape)
    return model


class TrainBeam:
    name = "train_beam"
    min_units = LOSS_UNITS
    # end-to-end metric -> the workload's own metric reported under it
    END_TO_END = {
        "tok_s": "train_tok_s",
        "op_ms_p50": "train_step_ms_p50",
        "op_ms_p90": "train_step_ms_p90",
        "loss_nats": "train_loss",
    }

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale

    def setup(self) -> None:
        self.ids, self.vocab = corpus(self.seed, self.scale)

    def verify(self, tally: Tally) -> None:
        """Nothing to check before training; run_unit checks every step's losses."""

    def run_unit(self, index: int, tally: Tally):
        """Do unit ``index`` and tally it; return the check of its outputs,
        to be run outside any timed or traced region."""
        steps = self.scale.train_steps
        unit_seed = self.seed * 1000 + index
        cfg = model_config(len(self.vocab), unit_seed)
        train_cfg = TrainConfig(steps=steps, beta=BETA, seed=unit_seed, batch_size=BATCH)
        stamps: list[float] = []
        start = time.perf_counter()
        try:
            with clocked(trainer, "sample_batch", stamps):
                _, rows = trainer.train(cfg, train_cfg, self.ids)
        except TrainingDiverged as err:
            rows = err.rows
            tally.fail(steps - len(rows), f"train unit {index} diverged at step {err.step}")
        end = time.perf_counter()
        tally.latency_ms += _intervals_ms(stamps[: len(rows)] + [end])
        tally.ops += steps
        tally.seconds["train"] += end - start
        tally.amount["train_tokens"] += len(rows) * BATCH * cfg.context_length
        if index < LOSS_UNITS:
            tally.losses += [r.lm_loss for r in rows[-LOSS_TAIL:]]

        def check(tally: Tally) -> None:
            for r in rows:
                losses = (r.lm_loss, r.bal_loss, r.reg_loss, r.total_loss)
                if not all(math.isfinite(v) for v in losses):
                    tally.fail(1, f"train unit {index} step {r.step}: non-finite loss")

        return check

    def summary(self, tally: Tally) -> dict[str, tuple[float, str, int | None]]:
        """The workload's metrics: name -> (value, unit, sample count)."""
        p50, p90 = _percentiles(tally.latency_ms)
        n = len(tally.latency_ms)
        return {
            "train_tok_s": (tally.amount["train_tokens"] / tally.seconds["train"], "tok/s", None),
            "train_step_ms_p50": (p50, "ms", n),
            "train_step_ms_p90": (p90, "ms", n),
            "train_loss": (statistics.fmean(tally.losses), "nats", None),
        }


class InferMasked:
    name = "infer_masked"
    min_units = 1
    END_TO_END = {
        "tok_s": "eval_tok_s",
        "op_ms_p50": "decode_token_ms_p50",
        "op_ms_p90": "decode_token_ms_p90",
        "loss_nats": "eval_loss",
    }

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale

    def setup(self) -> None:
        self.ids, self.vocab = corpus(self.seed, self.scale)
        self.model = drawn_model(len(self.vocab), self.seed)
        self.eval_ids = self.ids[: self.scale.eval_tokens + 1]
        ctx = self.model.cfg.context_length
        rng = np.random.default_rng([self.seed, 2])
        self.prompt_starts = rng.integers(0, len(self.ids) - ctx, size=64)

    def _batches(self) -> int:
        windows = (len(self.eval_ids) - 1) // self.model.cfg.context_length
        return math.ceil(windows / BATCH)

    def _prompt(self, index: int) -> np.ndarray:
        s = int(self.prompt_starts[index % len(self.prompt_starts)])
        return self.ids[s : s + self.model.cfg.context_length]

    def verify(self, tally: Tally) -> None:
        """Checks on the first eval batch, made once before the timed loop."""
        ctx = self.model.cfg.context_length
        xs = self.eval_ids[: BATCH * ctx].reshape(BATCH, ctx)
        infer_logits, _ = self.model.forward(xs, training=False)
        train_logits, _ = self.model.forward(xs, training=True)
        gap = float(np.max(np.abs(infer_logits.data - train_logits.data)))
        if not gap < PARITY_TOL:
            tally.fail(1, f"inference logits differ from training logits by {gap:.3g}")

        captured = []

        def capture(original):
            def wrapper(h, block, *args, **kwargs):
                captured.append((h, block))
                return original(h, block, *args, **kwargs)

            return wrapper

        with patched([(trainer, "block_forward", capture)]):
            self.model.forward(xs, training=False)
        h, block = captured[0]
        x_n = block.normalize(h)
        rr = baselines.route(block, x_n, self.model.cfg.strategy, training=False)
        plan = dispatch.align_block(rr.kept_ids, 16, num_experts=block.cfg.num_experts)
        grouped = dispatch.grouped_execute(x_n.data, plan, block.experts, rr.weights_hat.data)
        naive = dispatch.naive_execute(x_n.data, rr.kept_ids, block.experts, rr.weights_hat.data)
        gap = float(np.max(np.abs(grouped - naive)))
        if not gap < PARITY_TOL:
            tally.fail(1, f"grouped_execute differs from naive_execute by {gap:.3g}")

    def _check_decode(self, prompt, generated, index: int, tally: Tally) -> None:
        """Each sampled token must be the argmax of a fresh full-window forward."""
        ctx = self.model.cfg.context_length
        history = list(prompt)
        n = len(generated)
        for j in sorted({(n - 1) * i // max(1, DECODE_CHECKS - 1) for i in range(DECODE_CHECKS)}):
            window = np.asarray((history + list(generated[:j]))[-ctx:], dtype=np.int64)
            logits, _ = self.model.forward(window[None, :], training=False)
            if int(np.argmax(logits.data[0, -1])) != int(generated[j]):
                tally.fail(1, f"decode unit {index} token {j} is not the argmax")

    def run_unit(self, index: int, tally: Tally):
        decode_tokens = self.scale.decode_tokens
        stamps: list[float] = []
        prompt = self._prompt(index)
        with clocked(TinyMoELM, "forward", stamps):
            start = time.perf_counter()
            result = trainer.evaluate(self.model, self.eval_ids, batch_size=BATCH)
            mid = time.perf_counter()
            stamps.clear()
            generated = trainer.sample_greedy(self.model, prompt, decode_tokens)
            end = time.perf_counter()
        tally.latency_ms += _intervals_ms(stamps)
        tally.ops += self._batches() + decode_tokens
        tally.seconds["eval"] += mid - start
        tally.seconds["decode"] += end - mid
        tally.amount["eval_tokens"] += result.token_count
        tally.amount["decode_tokens"] += decode_tokens
        if index == 0:
            tally.losses.append(math.log(result.perplexity))
        return lambda tally: self._check_decode(prompt, generated, index, tally)

    def summary(self, tally: Tally) -> dict[str, tuple[float, str, int | None]]:
        p50, p90 = _percentiles(tally.latency_ms)
        n = len(tally.latency_ms)
        return {
            "eval_tok_s": (tally.amount["eval_tokens"] / tally.seconds["eval"], "tok/s", None),
            "decode_tok_s": (tally.amount["decode_tokens"] / tally.seconds["decode"], "tok/s", None),
            "decode_token_ms_p50": (p50, "ms", n),
            "decode_token_ms_p90": (p90, "ms", n),
            "eval_loss": (tally.losses[0], "nats", None),
        }


class TraceAnalyze(InferMasked):
    """Traced eval and traced greedy decode of the infer_masked model, then
    the analysis of the eval trace."""

    name = "trace_analyze"
    ANALYSIS_CALLS = 8  # to_csv, from_csv, avg_k x2, three metrics, emit_report
    END_TO_END = {
        "tok_s": "trace_analyze_tok_s",
        "op_ms_p50": "traced_decode_token_ms_p50",
        "op_ms_p90": "traced_decode_token_ms_p90",
        "loss_nats": "eval_loss",
    }

    def __init__(self, seed: int, scale: Scale, out_dir: Path):
        super().__init__(seed, scale)
        self.out_dir = out_dir

    def run_unit(self, index: int, tally: Tally):
        trace = SparsityTrace()
        # decode cells go to a trace of their own, so the analyzed trace
        # holds exactly the cells whose avg_k evaluate reports
        decode_trace = SparsityTrace()
        decode_tokens = self.scale.decode_tokens
        stamps: list[float] = []
        with clocked(TinyMoELM, "forward", stamps):
            start = time.perf_counter()
            result = trainer.evaluate(self.model, self.eval_ids, batch_size=BATCH, trace=trace)
            mid = time.perf_counter()
            stamps.clear()
            trainer.sample_greedy(self.model, self._prompt(index), decode_tokens, trace=decode_trace)
            decoded = time.perf_counter()
        tally.latency_ms += _intervals_ms(stamps)

        csv_path = self.out_dir / "trace.csv"
        report_path = self.out_dir / "report.csv"
        trace.to_csv(csv_path)
        back = SparsityTrace.from_csv(csv_path)
        overall = analysis.avg_k(back)
        metrics = {
            "avg_k": analysis.avg_k(back, group_by="token_layer"),
            "position_mask_prob": analysis.position_mask_prob(back),
        }
        extremes = analysis.rank_extremes(back)
        metrics["min_masked_rank"] = {layer: v[0] for layer, v in extremes.items()}
        metrics["max_kept_rank"] = {layer: v[1] for layer, v in extremes.items()}
        metrics["expert_load_pre_mask"], metrics["expert_load_post_mask"] = analysis.expert_load(back)
        analysis.emit_report(metrics, "csv", report_path)
        end = time.perf_counter()

        tally.ops += self._batches() + decode_tokens + self.ANALYSIS_CALLS
        tally.seconds["traced_eval"] += mid - start
        tally.seconds["traced_decode"] += decoded - mid
        tally.seconds["analysis"] += end - decoded
        tally.amount["eval_tokens"] += result.token_count
        tally.amount["decode_tokens"] += decode_tokens
        tally.amount["trace_rows"] += len(trace)
        if index == 0:
            tally.losses.append(math.log(result.perplexity))

        def check(tally: Tally) -> None:
            written, read = trace.arrays(), back.arrays()
            for column in analysis.TRACE_HEADER:
                if not np.array_equal(written[column], read[column]):
                    tally.fail(1, f"trace unit {index}: column {column} changed in the CSV round trip")
            if overall["overall"] != result.avg_k:
                tally.fail(1, f"trace unit {index}: trace avg_k {overall['overall']} != eval avg_k {result.avg_k}")

        return check

    def summary(self, tally: Tally) -> dict[str, tuple[float, str, int | None]]:
        eval_s, analysis_s = tally.seconds["traced_eval"], tally.seconds["analysis"]
        p50, p90 = _percentiles(tally.latency_ms)
        n = len(tally.latency_ms)
        return {
            "traced_eval_tok_s": (tally.amount["eval_tokens"] / eval_s, "tok/s", None),
            "analyze_rows_s": (tally.amount["trace_rows"] / analysis_s, "rows/s", None),
            "trace_analyze_tok_s": (tally.amount["eval_tokens"] / (eval_s + analysis_s), "tok/s", None),
            "traced_decode_tok_s": (tally.amount["decode_tokens"] / tally.seconds["traced_decode"], "tok/s", None),
            "traced_decode_token_ms_p50": (p50, "ms", n),
            "traced_decode_token_ms_p90": (p90, "ms", n),
            "eval_loss": (tally.losses[0], "nats", None),
        }


def make_workload(name: str, seed: int, scale: Scale, out_dir: Path):
    if name == TrainBeam.name:
        return TrainBeam(seed, scale)
    if name == InferMasked.name:
        return InferMasked(seed, scale)
    if name == TraceAnalyze.name:
        return TraceAnalyze(seed, scale, out_dir)
    raise ValueError(f"unknown workload {name!r}")


def run_plain(workload, seconds: float, tally: Tally) -> list[float]:
    """Repeat untraced units until ``seconds`` have passed and the latency
    tail has enough samples; return the set-up times.

    The workload is set up again, to the same state, SETUP_REPEATS times
    spread over the run, so set-up time samples the same machine conditions
    as the work does.
    """
    setup_s: list[float] = []

    def timed_setup():
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)

    timed_setup()
    workload.verify(tally)
    start = time.perf_counter()
    index = 0
    while (
        index < workload.min_units
        or time.perf_counter() - start < seconds
        or len(tally.latency_ms) < TAIL_SAMPLES
    ):
        due = seconds * len(setup_s) / SETUP_REPEATS
        if len(setup_s) < SETUP_REPEATS and time.perf_counter() - start >= due:
            timed_setup()
        workload.run_unit(index, tally)(tally)
        index += 1
    while len(setup_s) < SETUP_REPEATS:
        timed_setup()
    return setup_s


def _counts_of(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items() if unit != "ms"}


def run_traced(workload, seconds: float, tally: Tally) -> dict[str, tuple[float, str]]:
    """Alternate an untraced and a traced copy of unit 0 until ``seconds``
    have passed (at least TRACED_PAIRS pairs).

    Returns the per-layer metrics: the median over traced units for times,
    the counts of the first traced unit (every traced unit must repeat them
    exactly), and the tracing overhead from the two sides' median wall times.
    """
    workload.verify(tally)
    plain_s: list[float] = []
    traced_s: list[float] = []
    units: list[dict] = []
    start = time.perf_counter()
    while len(units) < TRACED_PAIRS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        check = workload.run_unit(0, tally)
        plain_s.append(time.perf_counter() - t0)
        check(tally)

        tracer = Tracer()
        rows_before = tally.amount["trace_rows"]
        t0 = time.perf_counter()
        with traced(tracer):
            check = workload.run_unit(0, tally)
        traced_s.append(time.perf_counter() - t0)
        check(tally)
        tracer.counts["analysis.trace_rows"] = tally.amount["trace_rows"] - rows_before
        units.append(layer_metrics(tracer))

    first = _counts_of(units[0])
    for i, unit in enumerate(units[1:], start=1):
        if _counts_of(unit) != first:
            tally.fail(1, f"traced unit {i} counts differ from unit 0")
    out = {
        name: (statistics.median(u[name][0] for u in units) if unit == "ms" else value, unit)
        for name, (value, unit) in units[0].items()
    }
    untraced = statistics.median(plain_s)
    out["trace_overhead_pct"] = ((statistics.median(traced_s) - untraced) / untraced * 100.0, "%")
    return out
