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
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import analysis, dispatch
from .baselines import KINDS, RoutingStrategy, is_number
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


def _dataclass_fields(cls, skip: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """Each field's default (None where it has none) and each field's type."""
    hints = get_type_hints(cls)
    kept = [f for f in fields(cls) if f.name not in skip]
    defaults = {f.name: None if f.default is MISSING else f.default for f in kept}
    return defaults, {f.name: hints[f.name] for f in kept}


# vocab_size has no default: None resolves it from the corpus
_MODEL_DEFAULTS, _MODEL_TYPES = _dataclass_fields(ModelConfig, skip=("strategy",))
_TRAIN_DEFAULTS, _TRAIN_TYPES = _dataclass_fields(TrainConfig)

_CORPUS_TYPES = {
    "synthetic": {"kind": str, "length": int, "seed": int},
    "file": {"kind": str, "path": str},
}
_NOUNS = {int: "an integer", float: "a real number", bool: "a boolean", str: "a string"}


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _check_value(value, want: type, where: str) -> None:
    ok = isinstance(value, want) if want in (bool, str) else is_number(value, want is int)
    if not ok:
        raise ConfigError(f"{where} must be {_NOUNS[want]}, got {value!r}")


def _fields(section, types: dict, where: str, nullable: tuple[str, ...] = ()) -> dict:
    """``section``, checked to be an object whose every key is known and whose
    every value has its field's type."""
    _check_keys(_object(section, where), types, where)
    for name, value in section.items():
        if not (value is None and name in nullable):
            _check_value(value, types[name], f"{where}.{name}")
    return section


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and materialize every default."""
    _object(raw, "config")
    top_allowed = {"version", "model", "train", "strategy", "corpus", "output_dir", "trace_sampling"}
    _check_keys(raw, top_allowed, "config")
    if not is_number(raw.get("version"), True) or raw["version"] != CONFIG_VERSION:
        raise ConfigError(f"config: version must be {CONFIG_VERSION}")
    for required in ("strategy", "corpus", "output_dir"):
        if required not in raw:
            raise ConfigError(f"config: missing required field {required!r}")
    _check_value(raw["output_dir"], str, "output_dir")

    model_sec = _fields(raw.get("model", {}), _MODEL_TYPES, "model", nullable=("vocab_size",))
    model = {**_MODEL_DEFAULTS, **model_sec}
    train_sec = {**_TRAIN_DEFAULTS, **_fields(raw.get("train", {}), _TRAIN_TYPES, "train")}

    strategy = _object(raw["strategy"], "strategy")
    _check_keys(strategy, {"kind", "params"}, "strategy")
    if strategy.get("kind") not in KINDS:
        raise ConfigError(f"strategy.kind must be one of {list(KINDS)}")
    params = _object(strategy.get("params", {}), "strategy.params")
    strategy = {"kind": strategy["kind"], "params": dict(params)}

    corpus = dict(_object(raw["corpus"], "corpus"))
    kind = corpus.get("kind")
    if not isinstance(kind, str) or kind not in _CORPUS_TYPES:
        raise ConfigError("corpus.kind must be 'synthetic' or 'file'")
    _fields(corpus, _CORPUS_TYPES[kind], "corpus")
    if kind == "synthetic":
        corpus.setdefault("length", 102400)
        corpus.setdefault("seed", 7)
    elif "path" not in corpus:
        raise ConfigError("corpus: missing required field 'path'")
    for where, section in (("model", model), ("train", train_sec), ("corpus", corpus)):
        if section.get("seed", 0) < 0:
            raise ConfigError(f"{where}.seed must be >= 0, got {section['seed']!r}")

    trace_sampling = raw.get("trace_sampling", 1.0)
    _check_value(trace_sampling, float, "trace_sampling")
    if not 0.0 < trace_sampling <= 1.0:
        raise ConfigError("trace_sampling must lie in (0, 1]")

    # the dataclasses' own range checks, before anything is written
    ModelConfig(strategy=strategy, **model)
    TrainConfig(**train_sec)
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


def _train_run(resolved: dict):
    """Train one resolved config and write its config, checkpoint and trace:
    ``(model, rows, corpus_ids, out)``. A diverged run writes its trace and
    no checkpoint, prints the error and gives None."""
    corpus_ids, vocab, model_cfg, train_cfg = build_run(resolved)
    out = output_dir_for(resolved)
    _write_resolved(resolved, out, model_cfg.vocab_size)
    trace_path = out / "training_trace.csv"
    try:
        model, rows = train(model_cfg, train_cfg, corpus_ids)
    except TrainingDiverged as e:
        write_trace(e.rows, trace_path)
        print(f"error: {e}; trace written to {trace_path}, no checkpoint saved", file=sys.stderr)
        return None
    model.vocab = vocab
    save_checkpoint(model, out / "checkpoint.bin")
    write_trace(rows, trace_path)
    return model, rows, corpus_ids, out


def cmd_train(args) -> int:
    resolved = load_config(args.config)
    trained = _train_run(resolved)
    if trained is None:
        return 1
    _, _, _, out = trained
    print(f"trained {resolved['train']['steps']} steps -> {out}")
    return 0


def cmd_eval(args) -> int:
    if args.max_new_tokens < 0:
        raise ConfigError(f"--max-new-tokens must be >= 0, got {args.max_new_tokens}")
    if args.max_new_tokens and not args.greedy:
        raise ConfigError("--max-new-tokens needs --greedy, the only decoder")
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
    if args.max_new_tokens:
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
    trace_path = Path(args.trace_out) if args.trace_out else output_dir_for(resolved) / "sparsity_trace.csv"
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
    try:
        fractions = [float(x) for x in args.active_fractions.split(",") if x]
    except ValueError:
        raise ConfigError(
            f"--active-fractions must be comma-separated numbers, got {args.active_fractions!r}"
        ) from None
    rows = dispatch.bench_dispatch(
        num_tokens=args.tokens,
        num_experts=args.experts,
        top_k=args.top_k,
        d_h=args.d_h,
        d_ff=args.d_ff,
        active_fractions=fractions,
        repetitions=args.reps,
        seed=args.seed,
    )
    lines = [dispatch.BENCH_CSV_HEADER] + [r.to_csv() for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"bench: {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_SUMMARY_HEADER = ["config", "seed", "final_lm_loss", "perplexity", "avg_k", "final_active_rate"]
_CURVE_HEADER = ["config", "seed", "step", "active_rate"]


def _write_rows(path: Path, header: list[str], rows, new: bool) -> None:
    """Start ``path`` with ``header`` when ``new``, else append to it."""
    with open(path, "w" if new else "a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(header)
        w.writerows(rows)


def cmd_compare(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    if not seeds:
        raise ConfigError("--seeds names no seed")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be >= 0, got {args.seeds!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds names a seed twice: {args.seeds!r}")
    if args.eval_windows < 1:
        raise ConfigError(f"--eval-windows must be >= 1, got {args.eval_windows}")
    labels = [Path(p).stem for p in args.configs]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"configs must have distinct file stems, which label the runs: {labels}")
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

    # each finished run's rows go to disk before the next run starts, so a
    # later divergence keeps them; the files appear with the first finished run
    first = True
    for label, resolved in zip(labels, resolved_list):
        for seed in seeds:
            run = json.loads(json.dumps(resolved))
            run["model"]["seed"] = seed
            run["train"]["seed"] = seed
            run["output_dir"] = str(out / f"{label}_seed{seed}")
            trained = _train_run(run)
            if trained is None:
                return 1
            model, rows, corpus_ids, _ = trained
            result = evaluate(model, corpus_ids, max_windows=args.eval_windows)
            summary = [
                label,
                seed,
                rows[-1].lm_loss if rows else float("nan"),
                result.perplexity,
                result.avg_k,
                rows[-1].expert_active_rate if rows else 1.0,
            ]
            _write_rows(out / "summary.csv", _SUMMARY_HEADER, [summary], first)
            curve = [(label, seed, r.step, r.expert_active_rate) for r in rows]
            _write_rows(out / "active_rates.csv", _CURVE_HEADER, curve, first)
            first = False
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
