"""Benchmark of the AdvSGM reproduction: one workload per invocation.

Runs one workload (see ``README.md`` in this directory) as a closed-loop,
single-process client for at least ``--seconds`` seconds and at least two
repetitions of the same seed, checks every output, and prints a report
followed by one JSON result line::

    python3 perfbench/run.py --workload advsgm-ppi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a
warm-up repetition, then one untraced and one traced repetition, and reports
the per-layer metrics of the traced one plus the tracing overhead (traced
minus untraced wall).  End-to-end times are corrected for the shared host's
speed (see ``hostspeed.py``); per-layer times are raw.  Workload and metric
names and units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostspeed import REFERENCE_SECONDS, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Pinned to one thread before numpy loads: unpinned, advsgm-ppi is bimodal
#: on a 2-core machine (5.6s or 9s per cell depending on the run).
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: Ambient knobs that would change the backend or read/write caches
#: outside the checkout; the benchmark runs with all of them unset.
AMBIENT_VARS = ("REPRO_BACKEND", "REPRO_WALK_CACHE", "REPRO_GRAPH_CACHE", "REPRO_CACHE_DIR")

WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
#: Metric name -> unit, in report order, for ``--trace 0`` and ``--trace 1``.
UNITS = {key: {m["name"]: m["unit"] for m in SPEC[key]} for key in ("end_to_end", "per_layer")}
MIN_REPETITIONS = 2
#: ``epsilon_spent`` of a workload that trains without privacy (no
#: accountant): a constant, so it can never register a change.
NOT_PRIVATE = 1.0


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in AMBIENT_VARS:
        os.environ.pop(var, None)


def environment() -> Dict[str, Any]:
    """Where a result was measured: revision, interpreter, BLAS, threads, load."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return {
        "git_revision": revision,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def child_setup(args: argparse.Namespace) -> Dict[str, float]:
    """Set-up measured in a fresh interpreter (imports are not cached)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--size", args.size, "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def own_setup(probe: HostSpeed, start: float) -> Dict[str, float]:
    """This process's set-up so far: raw seconds and the host-speed scale."""
    return {"raw_s": time.perf_counter() - start, "scale": probe.scale(0)}


def check_outcomes(outcomes: List[Any]) -> List[str]:
    """Every failed check: per-op problems, and ops that differ from repetition 0."""
    reference = [op.signature for op in outcomes[0].ops]
    problems = []
    for rep, outcome in enumerate(outcomes):
        for index, op in enumerate(outcome.ops):
            problem = op.problem
            if problem is None and (index >= len(reference) or op.signature != reference[index]):
                problem = "output differs from repetition 0 of the same seed"
            if problem is not None:
                problems.append(f"repetition {rep}, op {index}: {problem}")
    return problems


def end_to_end_metrics(outcomes: List[Any], scales: List[float],
                       setups: List[Dict[str, float]]) -> Dict[str, float]:
    """Times are host-speed corrected: each repetition's raw seconds times
    the scale measured over that repetition."""
    first = outcomes[0]
    reps = list(zip(outcomes, scales))
    return {
        "setup_s": statistics.median(s["raw_s"] * s["scale"] for s in setups),
        "wall_s": statistics.median(o.wall * k for o, k in reps),
        "pair_updates_per_s": statistics.median(o.pair_updates / (o.fit * k) for o, k in reps),
        "cells_per_s": statistics.median(o.cells / (o.cell_seconds * k) for o, k in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "auc": first.auc,
        "epsilon_spent": NOT_PRIVATE if first.epsilon is None else first.epsilon,
    }


def measure(args: argparse.Namespace, start: float, probe: HostSpeed) -> Dict[str, Any]:
    """Set up, run the repetitions, check them; the full report.

    ``probe`` is the running host-speed sampler, started at ``start``.

    An untraced run repeats the workload for at least ``--seconds`` and
    ``MIN_REPETITIONS`` times.  A traced run does exactly three
    repetitions: a warm-up, then the untraced/traced pair whose difference
    is the tracing overhead, and no fresh-interpreter set-ups are timed.
    """
    from layers import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.size)
    # setup_s is the median of this set-up and one in a fresh interpreter
    # before and after the repetitions: it absorbs the bytecode compilation
    # of a fresh checkout's first run.
    setups = [own_setup(probe, start)]
    if not args.trace:
        setups.append(child_setup(args))

    tracer = Tracer() if args.trace else None
    repetitions = MIN_REPETITIONS + 1 if tracer else MIN_REPETITIONS
    outcomes, scales, errors = [], [], []
    begin = time.perf_counter()
    while len(outcomes) < repetitions or (
        not args.trace and time.perf_counter() - begin < args.seconds
    ):
        traced = tracer is not None and len(outcomes) == repetitions - 1
        since = probe.mark()
        try:
            outcomes.append(workload.run(tracer if traced else None))
        except Exception as exc:  # a failed operation is a result, not a crash
            errors.append(f"repetition {len(outcomes)}: {type(exc).__name__}: {exc}")
            break
        scales.append(probe.scale(since))
    if not outcomes:
        raise RuntimeError(f"{args.workload}: no repetition completed: {errors}")
    if not args.trace:
        setups.append(child_setup(args))

    problems = check_outcomes(outcomes) + errors
    attempted = sum(len(o.ops) for o in outcomes) + len(errors)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "graph": list(workload.graph_shape),
        "environment": environment(),
        "setups": setups,
        "repetitions": [
            {"wall_s": o.wall, "fit_s": o.fit, "pair_updates": o.pair_updates,
             "cells": o.cells, "cell_s": o.cell_seconds, "auc": o.auc,
             "epsilon_spent": o.epsilon, "host_scale": k,
             "traced": bool(tracer) and i == repetitions - 1}
            for i, (o, k) in enumerate(zip(outcomes, scales))
        ],
        "attempted": attempted,
        "failed": len(problems),
        "failed_frac": len(problems) / attempted,
        "problems": problems,
    }
    if not args.trace:
        report["end_to_end"] = end_to_end_metrics(outcomes, scales, setups)
    elif len(outcomes) == repetitions:
        _warm_up, untraced, traced = outcomes
        _, untraced_scale, traced_scale = scales
        layers = tracer.metrics(traced.wall)
        layers["trace.wall_s"] = traced.wall
        # Corrected, so the host's phase does not swamp a ~1% difference.
        layers["trace.overhead_s"] = traced.wall * traced_scale - untraced.wall * untraced_scale
        layers["host.reference_us"] = REFERENCE_SECONDS / traced_scale * 1e6
        report["per_layer"] = layers
    return report


def print_report(report: Dict[str, Any], trace: bool) -> None:
    print(f"== {report['workload']} seed {report['seed']} ({report['size']}): "
          f"{len(report['repetitions'])} repetitions, {report['attempted']} ops, "
          f"{report['failed']} failed (failed_frac {report['failed_frac']:.4g})")
    for problem in report["problems"]:
        print(f"   FAILED {problem}")
    for name, metric in result_line(report, trace)["metrics"].items():
        print(f"   {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))


def result_line(report: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The driver's result: every declared metric, in ``BENCHMARK.json`` order.

    A layer the workload never called reads 0.
    """
    key = "per_layer" if trace else "end_to_end"
    values = report.get(key, {})
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in UNITS[key].items()},
    }


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, timeout=900, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"report"')))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep repeating the workload for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-scale inputs for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    pin_environment()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no repro sources under {ROOT / 'src'}: nothing to benchmark")
    sys.path.insert(0, str(ROOT / "src"))
    with HostSpeed() as probe:
        if args.setup_only:
            from workloads import WORKLOADS

            WORKLOADS[args.workload]().setup(args.seed, args.size)
            print(json.dumps(own_setup(probe, start)))
            return 0
        report = measure(args, start, probe)
    print_report(report, bool(args.trace))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
