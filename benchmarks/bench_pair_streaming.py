"""Benchmark the pair pipelines: materialised vs streaming.

Trains DeepWalk twice on the same synthetic graph — with the default
materialised ``ArrayPairSource`` and with ``pair_streaming=True`` — and
records wall-clock (graph build, fit), peak RSS, the peak pair-buffer size
and ``pairs_per_second``.  Each mode runs in its own subprocess so the memory
numbers measure that mode alone.

Peak RSS is sampled by a background thread that walks the /proc process tree
(self plus descendants): with ``--walk-workers 2`` or more the walk pool's
workers are *separate processes* whose memory never shows up in the parent's
counters, and a single end-of-run ``ru_maxrss`` read would miss their
transient peaks.  The sampler's peak is combined with ``ru_maxrss`` (self +
reaped children), so the reported number is never below the single-point
read.

The point being measured: streaming keeps the peak pair buffer bounded by
the chunk size regardless of corpus size.

Usage::

    PYTHONPATH=src python benchmarks/bench_pair_streaming.py            # full (~500k nodes)
    PYTHONPATH=src python benchmarks/bench_pair_streaming.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

MODES = ("materialised", "streaming")


def _proc_tree_rss_kb(root_pid: int) -> int:
    """Total VmRSS (kB) of ``root_pid`` and its descendants, via /proc.

    Returns 0 when /proc is unavailable (non-Linux); the caller falls back
    to ``ru_maxrss``.  Processes that vanish mid-scan are skipped.
    """
    info = {}
    try:
        pids = [int(name) for name in os.listdir("/proc") if name.isdigit()]
    except OSError:
        return 0
    for pid in pids:
        ppid = rss = 0
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("PPid:"):
                        ppid = int(line.split()[1])
                    elif line.startswith("VmRSS:"):
                        rss = int(line.split()[1])
        except OSError:
            continue
        info[pid] = (ppid, rss)
    total = 0
    tree = {root_pid}
    # Children appear after parents often enough that a few sweeps settle the
    # transitive closure (the tree here is at most a handful deep).
    for _ in range(5):
        grew = False
        for pid, (ppid, _) in info.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
        if not grew:
            break
    for pid in tree:
        if pid in info:
            total += info[pid][1]
    return total


class RssSampler(threading.Thread):
    """Background thread sampling the process tree's RSS at a fixed cadence."""

    def __init__(self, interval_seconds: float = 0.05) -> None:
        super().__init__(name="rss-sampler", daemon=True)
        self.interval_seconds = interval_seconds
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        pid = os.getpid()
        while not self._stop_event.is_set():
            self.peak_kb = max(self.peak_kb, _proc_tree_rss_kb(pid))
            self._stop_event.wait(self.interval_seconds)

    def stop(self) -> int:
        """Stop sampling; returns the peak including one final sample."""
        self._stop_event.set()
        self.join()
        self.peak_kb = max(self.peak_kb, _proc_tree_rss_kb(os.getpid()))
        return self.peak_kb


def child_main(args: argparse.Namespace) -> None:
    """Run one mode, print its result JSON on the last stdout line."""
    import numpy as np

    from repro.api.registry import make_model
    from repro.graph.graph import Graph

    rng = np.random.default_rng(0)
    build_start = time.perf_counter()
    edges = rng.integers(0, args.nodes, size=(args.edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    graph = Graph(args.nodes, edges, name="bench-pair-streaming")
    build_seconds = time.perf_counter() - build_start

    num_epochs = 1
    sampler = RssSampler()
    sampler.start()
    fit_start = time.perf_counter()
    model = make_model(
        "deepwalk",
        graph=graph,
        rng=2025,
        embedding_dim=args.dim,
        num_walks=args.num_walks,
        walk_length=args.walk_length,
        window_size=args.window,
        num_negatives=2,
        num_epochs=num_epochs,
        batch_size=args.batch_size,
        pair_streaming=args.child == "streaming",
        stream_chunk_walks=args.chunk_walks,
        walk_workers=args.walk_workers,
    ).fit()
    fit_seconds = time.perf_counter() - fit_start
    sampled_peak_kb = sampler.stop()

    source = model.pair_source_
    ru_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_maxrss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pairs_per_epoch = (
        int(source.num_pairs)
        if source.num_pairs is not None
        # pairs_delivered accumulates over the whole fit, so normalise by the
        # epoch count to stay comparable with the materialised num_pairs.
        else int(source.pairs_delivered) // num_epochs
    )
    result = {
        "mode": args.child,
        "graph_build_seconds": build_seconds,
        "fit_seconds": fit_seconds,
        "peak_rss_mb": max(sampled_peak_kb, ru_maxrss_kb) / 1024.0,
        "peak_pair_buffer": int(source.peak_buffer_pairs),
        "pairs_per_epoch": pairs_per_epoch,
        "pairs_per_second": pairs_per_epoch * num_epochs / max(1e-9, fit_seconds),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
    }
    print(json.dumps(result))


def run_child(mode: str, args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--nodes", str(args.nodes), "--edges", str(args.edges),
        "--num-walks", str(args.num_walks), "--walk-length", str(args.walk_length),
        "--window", str(args.window), "--dim", str(args.dim),
        "--batch-size", str(args.batch_size), "--chunk-walks", str(args.chunk_walks),
        "--walk-workers", str(args.walk_workers),
    ]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=500_000)
    parser.add_argument("--edges", type=int, default=1_500_000)
    parser.add_argument("--num-walks", type=int, default=1)
    parser.add_argument("--walk-length", type=int, default=10)
    parser.add_argument("--window", type=int, default=2)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=8192)
    parser.add_argument("--chunk-walks", type=int, default=8192)
    parser.add_argument("--walk-workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for CI smoke runs")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_pair_streaming.json",
    )
    parser.add_argument("--child", choices=list(MODES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.edges = 20_000, 80_000
        args.walk_length, args.batch_size = 8, 2048
        args.chunk_walks = 1024

    if args.child:
        child_main(args)
        return

    print(f"benchmarking pair pipelines on {args.nodes} nodes "
          f"({args.num_walks} pass(es) of length {args.walk_length}, "
          f"window {args.window})")
    results = {}
    for mode in MODES:
        results[mode] = run_child(mode, args)
        row = results[mode]
        print(f"  {mode:<13} fit {row['fit_seconds']:7.2f}s  "
              f"peak RSS {row['peak_rss_mb']:8.1f} MB  "
              f"pair buffer {row['peak_pair_buffer']:>12,}  "
              f"{row['pairs_per_second']:>11,.0f} pairs/s")

    mat, stream = (results[m] for m in MODES)
    comparison = {
        "pair_buffer_reduction": mat["peak_pair_buffer"] / max(1, stream["peak_pair_buffer"]),
        "peak_rss_saved_mb": mat["peak_rss_mb"] - stream["peak_rss_mb"],
        "streaming_fit_slowdown": stream["fit_seconds"] / max(1e-9, mat["fit_seconds"]),
    }
    print(f"  pair-buffer reduction: {comparison['pair_buffer_reduction']:.1f}x, "
          f"RSS saved: {comparison['peak_rss_saved_mb']:.1f} MB, "
          f"fit slowdown: streaming {comparison['streaming_fit_slowdown']:.2f}x")

    # The whole point of streaming: the buffer is bounded by one chunk of
    # walks' pairs plus one batch, not by the corpus.
    chunk_pairs = args.chunk_walks * args.walk_length * 2 * args.window
    assert stream["peak_pair_buffer"] <= chunk_pairs + args.batch_size, (
        f"streaming buffer {stream['peak_pair_buffer']} exceeds bound"
    )
    assert mat["pairs_per_epoch"] == stream["pairs_per_epoch"], (
        "modes disagree on pairs per epoch"
    )

    payload = {
        "benchmark": "pair_streaming",
        "config": {
            "num_nodes": args.nodes,
            "requested_edges": args.edges,
            "num_walks": args.num_walks,
            "walk_length": args.walk_length,
            "window_size": args.window,
            "embedding_dim": args.dim,
            "batch_size": args.batch_size,
            "stream_chunk_walks": args.chunk_walks,
            "walk_workers": args.walk_workers,
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "results": results,
        "comparison": comparison,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
