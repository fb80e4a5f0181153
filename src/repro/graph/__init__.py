"""Graph substrate: data structure, synthetic datasets, sampling and splits."""

from repro.graph.graph import Graph
from repro.graph.datasets import load_dataset, list_datasets, DatasetSpec
from repro.graph.generators import (
    powerlaw_cluster_graph,
    stochastic_block_graph,
    barabasi_albert_graph,
)
from repro.graph.sampling import EdgeSampler, SampleBatch
from repro.graph.splits import train_test_split_edges, EdgeSplit
from repro.graph.random_walk import walks_to_pairs
from repro.graph.walk_engine import WalkEngine
from repro.graph.io import write_edge_list, read_edge_list

__all__ = [
    "Graph",
    "load_dataset",
    "list_datasets",
    "DatasetSpec",
    "powerlaw_cluster_graph",
    "stochastic_block_graph",
    "barabasi_albert_graph",
    "EdgeSampler",
    "SampleBatch",
    "train_test_split_edges",
    "EdgeSplit",
    "walks_to_pairs",
    "WalkEngine",
    "write_edge_list",
    "read_edge_list",
]
