"""Command-line surface: train, eval, analyze, bench-dispatch, compare.

Runs are driven by a versioned JSON config. Unknown keys are errors, not
warnings: a silently ignored typo in a loss coefficient would invalidate an
experiment. Exit codes: 0 success, 2 usage/config error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, dispatch
from .baselines import KINDS, RoutingStrategy
from .tensor import ContractError
from .trainer import (
    ModelConfig,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    ingest_corpus,
    load_checkpoint,
    sample_greedy,
    save_checkpoint,
    train,
    write_trace,
)

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


_MODEL_DEFAULTS = {
    "vocab_size": None,  # resolved from the corpus when omitted
    "d_h": 64,
    "n_layers": 2,
    "n_heads": 4,
    "context_length": 64,
    "d_ff": 128,
    "num_experts": 8,
    "top_k": 4,
    "num_shared": 0,
    "has_norm": True,
    "activation": "silu",
    "seed": 0,
}

_TRAIN_DEFAULTS = {
    "learning_rate": 3e-3,
    "warmup_ratio": 0.03,
    "alpha": 1e-3,
    "beta": 0.0,
    "batch_size": 8,
    "steps": 200,
    "grad_clip_norm": 1.0,
    "seed": 0,
}

_CORPUS_KEYS = {"synthetic": {"kind", "length", "seed"}, "file": {"kind", "path"}}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and materialize every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    top_allowed = {"version", "model", "train", "strategy", "corpus", "output_dir", "trace_sampling"}
    _check_keys(raw, top_allowed, "config")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config: version must be {CONFIG_VERSION}")
    for required in ("strategy", "corpus", "output_dir"):
        if required not in raw:
            raise ConfigError(f"config: missing required field {required!r}")

    model = dict(_MODEL_DEFAULTS)
    _check_keys(raw.get("model", {}), set(_MODEL_DEFAULTS), "model")
    model.update(raw.get("model", {}))

    train_sec = dict(_TRAIN_DEFAULTS)
    _check_keys(raw.get("train", {}), set(_TRAIN_DEFAULTS), "train")
    train_sec.update(raw.get("train", {}))

    strategy = raw["strategy"]
    _check_keys(strategy, {"kind", "params"}, "strategy")
    if strategy.get("kind") not in KINDS:
        raise ConfigError(f"strategy.kind must be one of {list(KINDS)}")
    strategy = {"kind": strategy["kind"], "params": dict(strategy.get("params", {}))}

    corpus = dict(raw["corpus"])
    kind = corpus.get("kind")
    if kind not in _CORPUS_KEYS:
        raise ConfigError("corpus.kind must be 'synthetic' or 'file'")
    _check_keys(corpus, _CORPUS_KEYS[kind], "corpus")
    if kind == "synthetic":
        corpus.setdefault("length", 102400)
        corpus.setdefault("seed", 7)
    elif "path" not in corpus:
        raise ConfigError("corpus: missing required field 'path'")

    trace_sampling = raw.get("trace_sampling", 1.0)
    if not 0.0 < trace_sampling <= 1.0:
        raise ConfigError("trace_sampling must lie in (0, 1]")

    return {
        "version": CONFIG_VERSION,
        "model": model,
        "train": train_sec,
        "strategy": strategy,
        "corpus": corpus,
        "output_dir": raw["output_dir"],
        "trace_sampling": trace_sampling,
    }


def load_config(path) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})")
    except OSError as e:
        raise ConfigError(f"{path}: {e}")
    return resolve_config(raw)


def output_dir_for(resolved: dict) -> Path:
    out = Path(resolved["output_dir"])
    root = os.environ.get("BEAMOE_OUTPUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_run(resolved: dict):
    """Corpus, model config, and train config from a resolved config."""
    corpus_ids, vocab = ingest_corpus(resolved["corpus"])
    model_kwargs = dict(resolved["model"])
    if model_kwargs.get("vocab_size") is None:
        model_kwargs["vocab_size"] = len(vocab)
    elif model_kwargs["vocab_size"] != len(vocab):
        raise ContractError(
            f"config vocab_size {model_kwargs['vocab_size']} != corpus vocabulary {len(vocab)}"
        )
    strategy = RoutingStrategy(resolved["strategy"]["kind"], resolved["strategy"]["params"])
    model_cfg = ModelConfig(strategy=strategy, **model_kwargs)
    train_cfg = TrainConfig(**resolved["train"])
    return corpus_ids, vocab, model_cfg, train_cfg


def _write_resolved(resolved: dict, out: Path, vocab_size: int) -> None:
    materialized = json.loads(json.dumps(resolved))
    materialized["model"]["vocab_size"] = vocab_size
    with open(out / "resolved_config.json", "w") as f:
        json.dump(materialized, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_train(args) -> int:
    resolved = load_config(args.config)
    corpus_ids, vocab, model_cfg, train_cfg = build_run(resolved)
    out = output_dir_for(resolved)
    _write_resolved(resolved, out, model_cfg.vocab_size)
    try:
        model, rows = train(model_cfg, train_cfg, corpus_ids)
    except TrainingDiverged as e:
        # the trainer rolled the model back to the last finite-loss state
        write_trace(e.rows, out / "training_trace.csv")
        print(f"error: {e}; last-good checkpoint kept", file=sys.stderr)
        return 1
    model.vocab = vocab
    save_checkpoint(model, out / "checkpoint.bin")
    write_trace(rows, out / "training_trace.csv")
    print(f"trained {train_cfg.steps} steps -> {out}")
    return 0


def cmd_eval(args) -> int:
    resolved = load_config(args.config)
    corpus_ids, vocab, _, _ = build_run(resolved)
    model = load_checkpoint(args.checkpoint)
    if model.cfg.vocab_size != len(vocab):
        print(
            f"error: checkpoint vocab_size {model.cfg.vocab_size} does not match "
            f"corpus vocabulary {len(vocab)}",
            file=sys.stderr,
        )
        return 1
    if model.vocab is not None and model.vocab != vocab:
        i = next(i for i, (a, b) in enumerate(zip(model.vocab, vocab)) if a != b)
        print(
            f"error: checkpoint vocabulary differs from the corpus vocabulary at index {i}: "
            f"{model.vocab[i]!r} != {vocab[i]!r}",
            file=sys.stderr,
        )
        return 1
    out = output_dir_for(resolved)
    trace = analysis.SparsityTrace()
    result = evaluate(
        model,
        corpus_ids,
        max_windows=args.max_windows,
        trace=trace,
        binarize_soft=args.binarize_soft,
        trace_sampling=resolved["trace_sampling"],
    )
    text = None
    if args.greedy and args.max_new_tokens > 0:
        prompt = corpus_ids[: model.cfg.context_length]
        generated = sample_greedy(
            model,
            prompt,
            args.max_new_tokens,
            trace=trace,
            binarize_soft=args.binarize_soft,
            sequence_id=10**6,  # keep clear of eval window ids
        )
        text = "".join(vocab[i] for i in generated)
    # written before anything is printed, so a reader that closes stdout
    # early (``| head``) cannot cost the trace
    trace_path = Path(args.trace_out) if args.trace_out else out / "sparsity_trace.csv"
    trace.to_csv(trace_path)
    print(f"perplexity: {result.perplexity:.6f}")
    print(f"avg_k: {result.avg_k:.6f}")
    if text is not None:
        print(f"generated: {text!r}")
    print(f"trace: {trace_path}")
    return 0


def cmd_analyze(args) -> int:
    trace = analysis.SparsityTrace.from_csv(args.trace)
    metrics: dict[str, dict] = {
        "avg_k": analysis.avg_k(trace, group_by=args.group_by),
        "position_mask_prob": analysis.position_mask_prob(trace),
    }
    extremes = analysis.rank_extremes(trace)
    metrics["min_masked_rank"] = {layer: v[0] for layer, v in extremes.items()}
    metrics["max_kept_rank"] = {layer: v[1] for layer, v in extremes.items()}
    pre, post = analysis.expert_load(trace)
    metrics["expert_load_pre_mask"] = pre
    metrics["expert_load_post_mask"] = post
    out = Path(args.out) if args.out else Path(f"analysis.{args.format}")
    analysis.emit_report(metrics, args.format, out)
    print(f"report: {out}")
    return 0


def cmd_bench_dispatch(args) -> int:
    fractions = [float(x) for x in args.active_fractions.split(",") if x]
    for f in fractions:
        if not 0.0 < f <= 1.0:
            print(f"error: active fraction {f} outside (0, 1]", file=sys.stderr)
            return 2
    rows = dispatch.bench_dispatch(
        num_tokens=args.tokens,
        num_experts=args.experts,
        top_k=args.top_k,
        d_h=args.d_h,
        d_ff=args.d_ff,
        active_fractions=fractions,
        repetitions=args.reps,
        block_size=args.block_size,
        seed=args.seed,
    )
    lines = [dispatch.BENCH_CSV_HEADER] + [
        f"{r.active_fraction},{r.slots_executed},{r.wall_time_ns_min},{r.wall_time_ns_mean}"
        for r in rows
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"bench: {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    resolved_list = [load_config(p) for p in args.configs]
    reference = resolved_list[0]
    for resolved in resolved_list[1:]:
        model_shape = {k: v for k, v in resolved["model"].items() if k != "seed"}
        ref_shape = {k: v for k, v in reference["model"].items() if k != "seed"}
        if model_shape != ref_shape or resolved["corpus"] != reference["corpus"]:
            print("error: compare configs must share model shape and corpus", file=sys.stderr)
            return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    curve_rows = []
    for path, resolved in zip(args.configs, resolved_list):
        label = Path(path).stem
        for seed in seeds:
            run = json.loads(json.dumps(resolved))
            run["model"]["seed"] = seed
            run["train"]["seed"] = seed
            run["output_dir"] = str(out / f"{label}_seed{seed}")
            corpus_ids, vocab, model_cfg, train_cfg = build_run(run)
            run_out = output_dir_for(run)
            _write_resolved(run, run_out, model_cfg.vocab_size)
            model, rows = train(model_cfg, train_cfg, corpus_ids)
            model.vocab = vocab
            save_checkpoint(model, run_out / "checkpoint.bin")
            write_trace(rows, run_out / "training_trace.csv")
            result = evaluate(model, corpus_ids, max_windows=args.eval_windows)
            summary_rows.append(
                {
                    "config": label,
                    "seed": seed,
                    "final_lm_loss": rows[-1].lm_loss if rows else float("nan"),
                    "perplexity": result.perplexity,
                    "avg_k": result.avg_k,
                    "final_active_rate": rows[-1].expert_active_rate if rows else 1.0,
                }
            )
            for r in rows:
                curve_rows.append((label, seed, r.step, r.expert_active_rate))

    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.DictWriter(
            f,
            fieldnames=["config", "seed", "final_lm_loss", "perplexity", "avg_k", "final_active_rate"],
        )
        w.writeheader()
        for row in summary_rows:
            w.writerow(row)
    with open(out / "active_rates.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["config", "seed", "step", "active_rate"])
        for row in curve_rows:
            w.writerow(row)
    print(f"summary: {out / 'summary.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamoe",
        description="Train, evaluate, and analyze mixture-of-experts models with learned binary expert masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="perplexity, sampling, and sparsity trace")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True, help="config providing the corpus")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--max-new-tokens", type=int, default=0)
    p.add_argument("--max-windows", type=int, default=None)
    p.add_argument("--trace-out", default=None)
    p.add_argument(
        "--binarize-soft",
        action="store_true",
        help="binarize a soft-mask model's mask at eval time",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="metric tables from a sparsity trace")
    p.add_argument("trace")
    p.add_argument("--group-by", default="overall", choices=analysis.GROUP_KEYS)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench-dispatch", help="time grouped execution at several activity levels")
    p.add_argument("--active-fractions", default="1.0,0.5,0.25")
    p.add_argument("--block-size", type=int, default=16)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--tokens", type=int, default=4096)
    p.add_argument("--experts", type=int, default=8)
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--d-h", type=int, default=256)
    p.add_argument("--d-ff", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_dispatch)

    p = sub.add_parser("compare", help="train and evaluate several strategies over shared seeds")
    p.add_argument("configs", nargs="+")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", required=True)
    p.add_argument("--eval-windows", type=int, default=64)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # surface a closed pipe here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at devnull
        # so the interpreter's own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConfigError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure contract: exit 1
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
