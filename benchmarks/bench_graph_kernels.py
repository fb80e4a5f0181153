"""Benchmark the vectorized graph kernels against the legacy loop kernels.

Times graph construction, skip-gram pair extraction and connected
components on a synthetic ~50k-node graph, comparing the vectorized
implementations (``Graph``, ``walks_to_pairs``) against the loop-based
references preserved in ``repro.graph.reference_impl``, and writes the
results to ``BENCH_graph_kernels.json`` for the perf trajectory.  Walk
generation (``WalkEngine.walk_corpus``) is timed on its own: it produces the
corpus the pair kernels consume.

The legacy pair kernel is orders of magnitude slower, so by default it runs
on fewer corpus rows and the speedup is normalised per pair; the JSON records
both the raw timings and the workload sizes so nothing is hidden.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_graph_kernels.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.graph.graph import Graph
from repro.graph.random_walk import walks_to_pairs
from repro.graph.reference_impl import (
    reference_build_adjacency,
    reference_connected_components,
    reference_dedup_edges,
    reference_walks_to_pairs,
)


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def bench_construction(num_nodes: int, edge_arr: np.ndarray) -> dict:
    ref_seconds, _ = timed(
        lambda: reference_build_adjacency(
            num_nodes, reference_dedup_edges(num_nodes, edge_arr)
        )
    )
    vec_seconds, graph = timed(lambda: Graph(num_nodes, edge_arr))
    return {
        "reference_seconds": ref_seconds,
        "vectorized_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "workload": {"num_nodes": num_nodes, "num_input_edges": int(edge_arr.shape[0])},
    }, graph


def bench_walks(graph: Graph, num_walks: int, walk_length: int) -> dict:
    engine = graph.walk_engine()
    vec_seconds, matrix = timed(
        lambda: engine.walk_corpus(num_walks, walk_length, rng=0)
    )
    return {
        "vectorized_seconds": vec_seconds,
        "vectorized_walks": num_walks * graph.num_nodes,
        "vectorized_seconds_per_walk": vec_seconds / (num_walks * graph.num_nodes),
        "workload": {"num_walks": num_walks, "walk_length": walk_length},
    }, matrix


def bench_pairs(matrix: np.ndarray, window: int, reference_rows: int) -> dict:
    sub = [row.tolist() for row in matrix[:reference_rows]]
    ref_seconds, ref_pairs = timed(lambda: reference_walks_to_pairs(sub, window))
    vec_seconds, vec_pairs = timed(lambda: walks_to_pairs(matrix, window))
    ref_per_pair = ref_seconds / max(1, ref_pairs.shape[0])
    vec_per_pair = vec_seconds / max(1, vec_pairs.shape[0])
    return {
        "reference_seconds": ref_seconds,
        "vectorized_seconds": vec_seconds,
        "reference_pairs": int(ref_pairs.shape[0]),
        "vectorized_pairs": int(vec_pairs.shape[0]),
        "speedup": ref_per_pair / vec_per_pair,
        "workload": {"window_size": window, "corpus_rows": int(matrix.shape[0])},
    }


def bench_components(graph: Graph) -> dict:
    ref_seconds, ref = timed(lambda: reference_connected_components(graph))
    vec_seconds, vec = timed(graph.connected_components)
    assert ref == vec, "connected-components parity violated"
    return {
        "reference_seconds": ref_seconds,
        "vectorized_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "workload": {"num_components": len(vec)},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=50_000)
    parser.add_argument("--edges", type=int, default=250_000)
    parser.add_argument("--num-walks", type=int, default=10)
    parser.add_argument("--walk-length", type=int, default=80)
    parser.add_argument("--window", type=int, default=5)
    parser.add_argument(
        "--reference-pair-rows",
        type=int,
        default=2500,
        help="corpus rows for the (slow) legacy pair kernel; speedup is per-pair",
    )
    parser.add_argument(
        "--pair-rows",
        type=int,
        default=50_000,
        help="corpus rows for the vectorized pair kernel",
    )
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_graph_kernels.json"
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny workload for CI smoke runs"
    )
    args = parser.parse_args()
    if min(args.nodes, args.edges, args.num_walks, args.walk_length, args.window) <= 0:
        parser.error("--nodes/--edges/--num-walks/--walk-length/--window must be positive")
    if args.quick:
        args.nodes, args.edges = 2_000, 8_000
        args.num_walks, args.walk_length = 2, 20
        args.reference_pair_rows = args.pair_rows = 2_000

    rng = np.random.default_rng(0)
    edge_arr = rng.integers(0, args.nodes, size=(args.edges, 2))
    edge_arr = edge_arr[edge_arr[:, 0] != edge_arr[:, 1]]

    print(f"benchmarking on {args.nodes} nodes / {edge_arr.shape[0]} candidate edges")
    construction, graph = bench_construction(args.nodes, edge_arr)
    print(f"  construction: {construction['speedup']:.1f}x "
          f"({construction['reference_seconds']:.3f}s -> {construction['vectorized_seconds']:.3f}s)")
    walks, matrix = bench_walks(graph, args.num_walks, args.walk_length)
    print(f"  random walks: {walks['vectorized_seconds_per_walk'] * 1e6:.1f}us per walk "
          f"({walks['vectorized_seconds']:.3f}s)")
    pairs = bench_pairs(matrix[: args.pair_rows], args.window, args.reference_pair_rows)
    print(f"  walks_to_pairs: {pairs['speedup']:.1f}x per pair")
    components = bench_components(graph)
    print(f"  connected components: {components['speedup']:.1f}x")

    payload = {
        "benchmark": "graph_kernels",
        "config": {
            "num_nodes": args.nodes,
            "requested_edges": args.edges,
            "num_walks": args.num_walks,
            "walk_length": args.walk_length,
            "window_size": args.window,
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": {
            "graph_construction": construction,
            "random_walks": walks,
            "walks_to_pairs": pairs,
            "connected_components": components,
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
