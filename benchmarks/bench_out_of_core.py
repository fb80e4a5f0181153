"""Benchmark the out-of-core graph path: ingest RSS, mmap walk throughput.

Three measurements, each in its own subprocess so the memory numbers measure
that workload alone:

* **Bounded-memory ingest** — ``build_disk_graph`` over a >=10x edge-count
  sweep, fed by a *generator* of edge chunks (the full edge list never
  exists in RAM).  The external sort spills sorted runs and merges them in
  fixed-size blocks, so peak RSS must stay flat while the edge count grows;
  the run asserts the largest ingest's peak is within ``--rss-slack`` of the
  smallest's.
* **mmap vs in-RAM walk throughput** — the same walk corpus generated from
  ``ArrayStorage`` and from ``MmapStorage`` over the identical graph; the
  children also report a corpus sha256 and the parent asserts bit-parity.
* **Walk-pool scaling** — ``walk_corpus(workers=...)`` over mmap storage at
  1/2/4 workers, with one pass per worker at the largest count.  The 2- and
  4-worker corpora (derived per-pass seeds) must have identical digests:
  the worker count never changes bits.  The 1-worker row is the serial
  shared-stream discipline, timed for reference.

Peak RSS is sampled by a background thread walking the /proc process tree
(see ``bench_pair_streaming.py`` for why a single end-of-run ``ru_maxrss``
read is not enough once process pools are involved).

Usage::

    PYTHONPATH=src python benchmarks/bench_out_of_core.py           # full
    PYTHONPATH=src python benchmarks/bench_out_of_core.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pair_streaming import RssSampler


def edge_chunk_stream(num_nodes: int, num_edges: int, chunk: int, seed: int = 0):
    """Deterministic random edge chunks; never materialises the full list."""
    import numpy as np

    rng = np.random.default_rng(seed)
    remaining = num_edges
    while remaining > 0:
        take = min(chunk, remaining)
        arr = rng.integers(0, num_nodes, size=(take, 2), dtype=np.int64)
        yield arr[arr[:, 0] != arr[:, 1]]
        remaining -= take


def child_ingest(args: argparse.Namespace) -> dict:
    from repro.graph.ingest import build_disk_graph
    from repro.graph.storage import read_meta

    out = Path(args.workdir) / f"ingest-{args.count}"
    sampler = RssSampler()
    sampler.start()
    start = time.perf_counter()
    build_disk_graph(
        edge_chunk_stream(args.nodes, args.count, args.chunk_edges),
        out,
        num_nodes=args.nodes,
        name="bench-ingest",
        chunk_edges=args.chunk_edges,
        overwrite=True,
    )
    seconds = time.perf_counter() - start
    sampled_kb = sampler.stop()
    ru_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    meta = read_meta(out)
    return {
        "requested_edges": args.count,
        "unique_edges": meta["num_edges"],
        "ingest_seconds": seconds,
        "peak_rss_mb": max(sampled_kb, ru_kb) / 1024.0,
        "edges_per_second": meta["num_edges"] / max(1e-9, seconds),
    }


#: Walk-pool sweep worker counts; the pooled corpus has one pass per worker
#: at the largest count.
POOL_WORKERS = (1, 2, 4)


def child_walk(args: argparse.Namespace) -> dict:
    import numpy as np

    from repro.graph.graph import Graph

    path = Path(args.workdir) / "walk-graph"
    if args.storage == "mmap":
        graph = Graph.open(path)
    else:
        graph = Graph.open(path)
        # Lift the arrays off the mmap into plain RAM buffers.
        graph = Graph(
            graph.num_nodes, np.array(graph.edges), name=graph.name
        )
    sampler = RssSampler()
    sampler.start()
    start = time.perf_counter()
    corpus = graph.walk_engine().walk_corpus(
        num_walks=args.num_walks,
        walk_length=args.walk_length,
        rng=args.seed,
        workers=args.workers,
    )
    seconds = time.perf_counter() - start
    sampled_kb = sampler.stop()
    ru_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "storage": args.storage,
        "workers": args.workers,
        "num_walks": args.num_walks,
        "walk_seconds": seconds,
        "walks_per_second": corpus.shape[0] / max(1e-9, seconds),
        "peak_rss_mb": max(sampled_kb, ru_kb) / 1024.0,
        "corpus_sha256": hashlib.sha256(
            np.ascontiguousarray(corpus).tobytes()
        ).hexdigest(),
    }


def run_child(mode: str, args: argparse.Namespace, **extra) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workdir", args.workdir,
        "--nodes", str(args.nodes), "--chunk-edges", str(args.chunk_edges),
    ]
    options = {"num_walks": args.num_walks, "walk_length": args.walk_length}
    for key, value in {**options, **extra}.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--base-edges", type=int, default=400_000)
    parser.add_argument("--sweep", type=float, nargs="+", default=[1, 3, 10],
                        help="edge-count multipliers for the ingest sweep")
    parser.add_argument("--chunk-edges", type=int, default=1 << 17)
    parser.add_argument("--num-walks", type=int, default=1)
    parser.add_argument("--walk-length", type=int, default=10)
    parser.add_argument("--rss-slack", type=float, default=1.5,
                        help="max allowed peak-RSS ratio largest/smallest ingest")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for CI smoke runs")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_out_of_core.json",
    )
    parser.add_argument("--child", choices=["ingest", "walk"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--storage", choices=["ram", "mmap"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=7, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.base_edges = 8_000, 40_000
        args.chunk_edges = 1 << 14

    if args.child == "ingest":
        print(json.dumps(child_ingest(args)))
        return
    if args.child == "walk":
        print(json.dumps(child_walk(args)))
        return

    workdir = tempfile.mkdtemp(prefix="bench-out-of-core-")
    args.workdir = workdir
    try:
        # --- 1. bounded-memory ingest over a >=10x edge sweep -------------
        print(f"ingest sweep on {args.nodes} nodes "
              f"(chunk_edges={args.chunk_edges}):")
        ingest_rows = []
        for multiplier in args.sweep:
            count = int(args.base_edges * multiplier)
            row = run_child("ingest", args, count=count)
            ingest_rows.append(row)
            print(f"  {row['requested_edges']:>12,} edges  "
                  f"peak RSS {row['peak_rss_mb']:8.1f} MB  "
                  f"{row['ingest_seconds']:7.2f}s  "
                  f"{row['edges_per_second']:>11,.0f} edges/s")
        rss_ratio = ingest_rows[-1]["peak_rss_mb"] / max(
            1e-9, ingest_rows[0]["peak_rss_mb"]
        )
        growth = (ingest_rows[-1]["requested_edges"]
                  / ingest_rows[0]["requested_edges"])
        print(f"  RSS ratio over {growth:.0f}x edge growth: {rss_ratio:.2f}x")
        assert rss_ratio <= args.rss_slack, (
            f"ingest peak RSS grew {rss_ratio:.2f}x over a {growth:.0f}x edge "
            f"sweep (allowed {args.rss_slack}x): the external sort is not "
            f"bounding memory"
        )

        # --- 2. mmap vs in-RAM walk throughput -----------------------------
        fixture = Path(workdir) / "walk-graph"
        largest = Path(workdir) / f"ingest-{int(args.base_edges * args.sweep[-1])}"
        shutil.copytree(largest, fixture)
        walk_rows = {}
        print("walk corpus, serial:")
        for storage in ("ram", "mmap"):
            row = run_child("walk", args, storage=storage, workers=1)
            walk_rows[storage] = row
            print(f"  {storage:<5} {row['walk_seconds']:7.2f}s  "
                  f"{row['walks_per_second']:>11,.0f} walks/s  "
                  f"peak RSS {row['peak_rss_mb']:8.1f} MB")
        assert walk_rows["ram"]["corpus_sha256"] == walk_rows["mmap"]["corpus_sha256"], (
            "mmap walk corpus diverged from the in-RAM corpus"
        )
        print("  corpus parity: OK (identical sha256)")

        # --- 3. walk-pool scaling ------------------------------------------
        pool_passes = max(POOL_WORKERS)
        pool_rows = []
        print(f"walk pool, {pool_passes} passes, mmap storage:")
        for workers in POOL_WORKERS:
            row = run_child(
                "walk", args, storage="mmap", workers=workers,
                num_walks=pool_passes,
            )
            pool_rows.append(row)
            print(f"  workers={workers}  {row['walk_seconds']:7.2f}s  "
                  f"{row['walks_per_second']:>11,.0f} walks/s  "
                  f"peak RSS {row['peak_rss_mb']:8.1f} MB")
        digests = {row["corpus_sha256"] for row in pool_rows if row["workers"] > 1}
        assert len(digests) == 1, (
            "pooled corpus digests differ across worker counts"
        )
        print("  pool parity: OK (identical sha256 at 2/4 workers)")

        payload = {
            "benchmark": "out_of_core",
            "config": {
                "num_nodes": args.nodes,
                "base_edges": args.base_edges,
                "sweep": args.sweep,
                "chunk_edges": args.chunk_edges,
                "num_walks": args.num_walks,
                "walk_length": args.walk_length,
                "pool_passes": pool_passes,
                "quick": args.quick,
            },
            "environment": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpu_count": os.cpu_count(),
            },
            "ingest": {
                "rows": ingest_rows,
                "edge_growth": growth,
                "peak_rss_ratio": rss_ratio,
            },
            "walk_throughput": walk_rows,
            "walk_pool": pool_rows,
        }
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
