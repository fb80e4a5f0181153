"""Batch sampling for skip-gram training (Algorithm 2 of the paper).

Positive samples are edges drawn uniformly at random from the edge set ``E``.
Negative samples pair the *starting node* of each positive edge with ``k``
nodes drawn from ``V`` — note that, as Remark 1 in the paper states, a
"negative" pair may coincidentally be a real edge; this is by design and
matters for the privacy analysis (the node-batch sampling probability is
``B k / |V|``).

Negative nodes are drawn uniformly from ``V``, as in the paper's
Algorithm 2: the ``B k / |V|`` node-sampling rate that Theorem 7 charges to
the accountant holds only for uniform draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class SampleBatch:
    """One training batch produced by :class:`EdgeSampler`.

    Attributes
    ----------
    positive_edges:
        ``(B, 2)`` array of node pairs sampled from ``E``.
    negative_pairs:
        ``(B * k, 2)`` array pairing each positive source node with ``k``
        uniformly sampled nodes (Algorithm 2, lines 3-8).
    """

    positive_edges: np.ndarray
    negative_pairs: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of positive edges ``B``."""
        return int(self.positive_edges.shape[0])


class EdgeSampler:
    """Sampler implementing Algorithm 2 (positive edges + negative node sets).

    Parameters
    ----------
    graph:
        Training graph.
    batch_size:
        Number of positive edges ``B`` per batch.
    num_negatives:
        Negative sampling number ``k``.
    rng:
        Seed or generator for reproducible sampling.
    """

    def __init__(
        self,
        graph: Graph,
        batch_size: int,
        num_negatives: int = 5,
        rng: RngLike = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if num_negatives <= 0:
            raise ValueError(f"num_negatives must be positive, got {num_negatives}")
        if graph.num_edges == 0:
            raise ValueError("cannot sample batches from a graph with no edges")
        self.graph = graph
        self.batch_size = int(batch_size)
        self.num_negatives = int(num_negatives)
        self._rng = ensure_rng(rng)

    @property
    def positive_batch_size(self) -> int:
        """Positives actually drawn per batch: ``B`` clamped to ``|E|``.

        :meth:`sample` draws without replacement, so it can never return more
        than ``|E|`` positive edges.  Every probability reported to the RDP
        accountant is derived from this actual take — charging the configured
        ``batch_size`` when fewer pairs are drawn would make the accountant
        disagree with the sampling process it is supposed to describe.
        """
        return min(self.batch_size, self.graph.num_edges)

    @property
    def edge_sampling_probability(self) -> float:
        """Subsampling probability ``B / |E|`` used by the RDP accountant.

        ``B`` is the *actual* take (:attr:`positive_batch_size`), so the
        probability is exact even when the configured batch size exceeds the
        edge count.
        """
        return min(1.0, self.positive_batch_size / self.graph.num_edges)

    @property
    def node_sampling_probability(self) -> float:
        """Subsampling probability ``B k / |V|`` used by the RDP accountant.

        As with :attr:`edge_sampling_probability`, ``B`` is the actual take:
        :meth:`sample` pairs each *drawn* positive edge with ``k`` negatives,
        so ``take * k`` (not ``batch_size * k``) negatives are drawn.
        """
        return min(
            1.0,
            self.positive_batch_size * self.num_negatives / self.graph.num_nodes,
        )

    def sample_positives(self) -> np.ndarray:
        """Draw the ``(B, 2)`` positive-edge half of one batch.

        :meth:`sample` composes this with the negative draw, from the same
        stream.
        """
        take = self.positive_batch_size
        # Sampling without replacement matches the subsampled-RDP analysis.
        idx = self._rng.choice(self.graph.num_edges, size=take, replace=False)
        positive = self.graph.edges[idx].copy()
        # Randomly orient each undirected edge so both endpoints act as the
        # "input" node across batches.
        flip = self._rng.random(take) < 0.5
        positive[flip] = positive[flip][:, ::-1]
        return positive

    def sample(self) -> SampleBatch:
        """Draw one batch: ``B`` positive edges and ``B * k`` negative pairs."""
        positive = self.sample_positives()
        take = positive.shape[0]
        sources = np.repeat(positive[:, 0], self.num_negatives)
        negatives = self._rng.integers(
            0, self.graph.num_nodes, size=take * self.num_negatives
        )
        negative_pairs = np.stack([sources, negatives], axis=1)
        return SampleBatch(positive_edges=positive, negative_pairs=negative_pairs)
