"""Benchmark of the beamoe library: one workload per run.

    python3 perfbench/run.py --workload train_beam --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and nothing is installed. Human-readable
lines (environment, every metric by name with its unit and sample count)
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run. All load comes from this one process with BLAS pinned to one
thread.
"""

from __future__ import annotations

import os

# Before numpy is imported: contention with default BLAS threads made a
# train step several times slower on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_beam", "infer_masked", "trace_analyze")


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "loadavg_before": _loadavg(),
    }


def _print_metric(name: str, value: float, unit: str, n: int | None = None) -> None:
    suffix = f"  (n={n})" if n is not None else ""
    print(f"  {name:<34} {value:>14.6g} {unit}{suffix}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "beamoe" / "__init__.py").is_file():
        print(f"error: no beamoe sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    import beamoe
    import workloads

    if Path(beamoe.__file__).resolve().parent != (src / "beamoe").resolve():
        print(f"error: imported beamoe from {beamoe.__file__}, not {src}", file=sys.stderr)
        return 2

    env = environment(numpy)
    out_dir = ROOT / f".perfbench-out-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        workload = workloads.make_workload(args.workload, args.seed, workloads.Scale(), out_dir)
        tally = workloads.Tally()
        if args.trace:
            workload.setup()
            layer = workloads.run_traced(workload, args.seconds, tally)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
            named = {name: (v, u, None) for name, (v, u) in layer.items()}
        else:
            setup_s = workloads.run_plain(workload, args.seconds, tally)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            named = {
                "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
                "peak_rss_mb": (peak_mb, "MB", None),
            } | workload.summary(tally)
            sources = {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"} | workload.END_TO_END
            metrics = {
                name: {"value": named[source][0], "unit": named[source][1]}
                for name, source in sources.items()
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    env["loadavg_after"] = _loadavg()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in named.items():
        _print_metric(name, value, unit, n)
    _print_metric("ops", tally.ops, "count")
    _print_metric("ops_failed", tally.failed, "count")
    for problem in tally.problems:
        print(f"  check failed: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
