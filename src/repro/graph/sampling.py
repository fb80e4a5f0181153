"""Batch sampling for skip-gram training (Algorithm 2 of the paper).

Positive samples are edges drawn uniformly at random from the edge set ``E``.
Negative samples pair the *starting node* of each positive edge with ``k``
nodes drawn from ``V`` — note that, as Remark 1 in the paper states, a
"negative" pair may coincidentally be a real edge; this is by design and
matters for the privacy analysis (the node-batch sampling probability is
``B k / |V|``).

Negative nodes are drawn uniformly by default (the paper's Algorithm 2,
and what the Theorem-7 amplification analysis assumes).  The classic
word2vec/skip-gram degree^0.75 "unigram" distribution is available through
``negative_distribution="unigram075"``, served from a Walker alias table so
weighted draws stay O(1) each; it is intended for the non-private models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike, ensure_rng

#: Supported negative-node distributions.
NEGATIVE_DISTRIBUTIONS = ("uniform", "unigram075")


def check_negative_distribution(value: str) -> str:
    """Validate a ``negative_distribution`` config value (shared by configs)."""
    if value not in NEGATIVE_DISTRIBUTIONS:
        raise ValueError(
            f"negative_distribution must be one of {NEGATIVE_DISTRIBUTIONS}, "
            f"got {value!r}"
        )
    return value


def unigram_weights(degrees: np.ndarray, power: float = 0.75) -> np.ndarray:
    """word2vec-style unnormalised negative-sampling weights ``deg^power``."""
    return np.asarray(degrees, dtype=np.float64) ** power


class AliasTable:
    """Walker's alias method: O(n) build, O(1) draws from a discrete dist.

    Parameters
    ----------
    weights:
        Unnormalised non-negative weights of the ``n`` outcomes.  Zero-weight
        outcomes are never drawn (unless every weight is zero, in which case
        the distribution degenerates to uniform).
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.size == 0:
            raise ValueError("weights must not be empty")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0:
            weights = np.ones_like(weights)
            total = float(weights.size)
        n = weights.size
        # Scaled so the average cell mass is exactly 1.
        prob = weights * (n / total)
        alias = np.arange(n, dtype=np.int64)
        accept = np.ones(n, dtype=np.float64)

        small = list(np.flatnonzero(prob < 1.0))
        large = list(np.flatnonzero(prob >= 1.0))
        while small and large:
            s = small.pop()
            l = large.pop()
            accept[s] = prob[s]
            alias[s] = l
            prob[l] = prob[l] - (1.0 - prob[s])
            (small if prob[l] < 1.0 else large).append(l)
        # Leftovers are 1.0 up to floating-point round-off.
        for i in small + large:
            accept[i] = 1.0

        self._accept = accept
        self._alias = alias
        self.num_outcomes = n

    def draw(
        self,
        rng: RngLike,
        size: Union[int, Tuple[int, ...]],
    ) -> np.ndarray:
        """Sample outcome indices with the table's distribution."""
        rng = ensure_rng(rng)
        idx = rng.integers(0, self.num_outcomes, size=size)
        coin = rng.random(size=size)
        return np.where(coin < self._accept[idx], idx, self._alias[idx])


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
    negative_distribution:
        ``"uniform"`` (Algorithm 2 as written; required by the ``B k / |V|``
        amplification analysis) or ``"unigram075"`` for degree^0.75 alias-table
        draws (word2vec's distribution; meant for non-private training).
    """

    def __init__(
        self,
        graph: Graph,
        batch_size: int,
        num_negatives: int = 5,
        rng: RngLike = None,
        negative_distribution: str = "uniform",
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if num_negatives <= 0:
            raise ValueError(f"num_negatives must be positive, got {num_negatives}")
        if graph.num_edges == 0:
            raise ValueError("cannot sample batches from a graph with no edges")
        check_negative_distribution(negative_distribution)
        self.graph = graph
        self.batch_size = int(batch_size)
        self.num_negatives = int(num_negatives)
        self.negative_distribution = negative_distribution
        self._negative_table: Optional[AliasTable] = (
            AliasTable(unigram_weights(graph.degrees))
            if negative_distribution == "unigram075"
            else None
        )
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
        if self._negative_table is not None:
            negatives = self._negative_table.draw(
                self._rng, size=take * self.num_negatives
            )
        else:
            negatives = self._rng.integers(
                0, self.graph.num_nodes, size=take * self.num_negatives
            )
        negative_pairs = np.stack([sources, negatives], axis=1)
        return SampleBatch(positive_edges=positive, negative_pairs=negative_pairs)
