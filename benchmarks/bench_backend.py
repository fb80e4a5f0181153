"""Benchmark the compute backends: numpy vs torch fit throughput, per precision.

Trains the LINE-style skip-gram (``sgm``) on the 50k-node benchmark graph
once per backend spec ``name[:device][:precision]`` — by default ``numpy``,
``torch:cpu`` (exact float64) and ``torch:cpu:fast`` (the float32
device-resident path) — and records graph-build and fit wall-clock plus the
pair-update throughput, one row per canonical spec.  All runs share one seed
so the exact rows execute the identical sampling schedule.  A spec that
cannot be built here (torch not installed, ``numpy:fast``) is skipped and
recorded with its reason, which keeps the benchmark itself torch-free on the
default CI job.

``pair_updates`` is derived from the sampler's *actual* per-batch take
(:attr:`~repro.graph.sampling.EdgeSampler.positive_batch_size`, which clamps
the configured batch size to ``|E|``), not from the requested batch size, so
the throughput number never overstates the work done on small graphs.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py            # full (50k nodes)
    PYTHONPATH=src python benchmarks/bench_backend.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

from repro.api.registry import make_model
from repro.backend import BackendError, canonical_backend_spec
from repro.graph.graph import Graph


def build_graph(num_nodes: int, num_edges: int) -> Graph:
    """The same synthetic benchmark graph for every backend (seeded)."""
    rng = np.random.default_rng(0)
    edges = rng.integers(0, num_nodes, size=(num_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return Graph(num_nodes, edges, name="bench-backend")


def max_rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (a high-water mark, never decreasing)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_one(backend: str, graph: Graph, args: argparse.Namespace) -> dict:
    """Fit sgm on ``graph`` under the backend spec ``backend``; the timing row."""
    fit_start = time.perf_counter()
    model = make_model(
        "sgm",
        graph=graph,
        rng=2025,
        backend=backend,
        embedding_dim=args.dim,
        num_epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch,
        batch_size=args.batch_size,
        num_negatives=args.negatives,
    ).fit()
    fit_seconds = time.perf_counter() - fit_start
    # The sampler clamps each batch's positive take to |E|; charge the
    # throughput with the pairs actually processed, not the request.
    pair_updates = (
        args.epochs
        * args.batches_per_epoch
        * model.sampler.positive_batch_size
        * (1 + args.negatives)
    )
    emb = model.embeddings_
    return {
        "backend": canonical_backend_spec(backend),
        "precision": model.backend_.precision,
        "fit_seconds": fit_seconds,
        "pair_updates": pair_updates,
        "pair_updates_per_second": pair_updates / max(1e-9, fit_seconds),
        "max_rss_mb": max_rss_mb(),
        "embedding_checksum": float(np.linalg.norm(emb)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=50_000)
    parser.add_argument("--edges", type=int, default=250_000)
    parser.add_argument("--dim", type=int, default=128)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--batches-per-epoch", type=int, default=50)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--negatives", type=int, default=5)
    parser.add_argument("--backends", nargs="+",
                        default=["numpy", "torch:cpu", "torch:cpu:fast"],
                        help="backend specs name[:device][:precision] to "
                             "benchmark (unavailable ones are recorded and "
                             "skipped)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for CI smoke runs")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_backend.json",
    )
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.edges = 5_000, 20_000
        args.dim, args.epochs, args.batches_per_epoch = 32, 2, 10
        args.batch_size = 256

    build_start = time.perf_counter()
    graph = build_graph(args.nodes, args.edges)
    build_seconds = time.perf_counter() - build_start
    print(f"benchmarking backends on {graph.num_nodes} nodes / "
          f"{graph.num_edges} edges (built in {build_seconds:.2f}s)")

    results, skipped = {}, {}
    for backend in args.backends:
        try:
            row = bench_one(backend, graph, args)
        except BackendError as exc:
            skipped[backend] = str(exc)
            print(f"  {backend:<16} skipped ({exc})")
            continue
        results[row["backend"]] = row
        print(f"  {row['backend']:<16} fit {row['fit_seconds']:7.2f}s  "
              f"{row['pair_updates_per_second']:>12,.0f} pair updates/s  "
              f"(peak rss {row['max_rss_mb']:,.0f} MiB)")

    comparison = {}
    exact_torch = next(
        (k for k, r in results.items()
         if k.startswith("torch") and r["precision"] == "exact"),
        None,
    )
    fast_torch = next(
        (k for k, r in results.items()
         if k.startswith("torch") and r["precision"] == "fast"),
        None,
    )
    if "numpy" in results and exact_torch is not None:
        comparison["torch_vs_numpy_fit_ratio"] = (
            results[exact_torch]["fit_seconds"]
            / max(1e-9, results["numpy"]["fit_seconds"])
        )
        print(f"  torch/numpy fit-time ratio: "
              f"{comparison['torch_vs_numpy_fit_ratio']:.2f}x")
    if exact_torch is not None and fast_torch is not None:
        comparison["fast_vs_exact_speedup"] = (
            results[exact_torch]["fit_seconds"]
            / max(1e-9, results[fast_torch]["fit_seconds"])
        )
        print(f"  fast-vs-exact speedup (torch): "
              f"{comparison['fast_vs_exact_speedup']:.2f}x")

    payload = {
        "benchmark": "backend",
        "config": {
            "num_nodes": args.nodes,
            "requested_edges": args.edges,
            "embedding_dim": args.dim,
            "num_epochs": args.epochs,
            "batches_per_epoch": args.batches_per_epoch,
            "batch_size": args.batch_size,
            "num_negatives": args.negatives,
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "graph_build_seconds": build_seconds,
        "results": results,
        "skipped": skipped,
        "comparison": comparison,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
