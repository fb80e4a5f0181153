"""Shared non-private link-prediction head used by the decoupled GNN baselines.

GAP and DPAR both end with the same post-processing stage: train a linear
projection of privatised node features with an inner-product link-prediction
loss.  Both used to carry a private copy of the epoch/batch loop; this module
expresses it once on top of :class:`~repro.train.loop.TrainingLoop`.
"""

from __future__ import annotations

import numpy as np

from repro.backend import NUMPY_BACKEND
from repro.backend.base import Backend
from repro.graph.graph import Graph
from repro.graph.splits import train_test_split_edges
from repro.nn.functional import sigmoid
from repro.train.loop import LoopResult, TrainingLoop
from repro.utils.logging import TrainingHistory


def fit_link_prediction_head(
    *,
    graph: Graph,
    features: np.ndarray,
    weight: np.ndarray,
    num_epochs: int,
    batch_size: int,
    learning_rate: float,
    history: TrainingHistory,
    rng: np.random.Generator,
    test_fraction: float = 0.1,
    callbacks=(),
    backend: Backend = NUMPY_BACKEND,
) -> LoopResult:
    """Train ``weight`` (in place) so ``features @ weight`` scores edges well.

    The loss over a batch of positive/negative pairs is binary cross-entropy
    on ``sigmoid(z_i . z_j)``; the per-epoch *sum* of batch means is recorded
    to ``history`` under ``"loss"``, matching the baselines' original
    behaviour.  Uses only ``features`` (already privatised by the caller) and
    the public edge split, so the whole stage is DP post-processing.

    ``features`` and ``weight`` must be native arrays of ``backend`` (numpy
    by default); the batch schedule and edge split stay on numpy regardless,
    so every backend trains on the identical pair sequence.

    A step projects only the batch's rows: it gathers the feature rows of
    both endpoints in one block (all ``i`` rows, then all ``j`` rows) and
    multiplies that block by ``weight`` once, instead of projecting all N
    nodes and reading 2 * batch rows.  The gemm computes each output row
    from its own input row alone, so the rows match the full projection's
    bytes (``tests/test_rewrite_parity.py`` pins the weights against the
    full projection).  The two endpoints stay stacked in one product on
    purpose: it always has at least two rows, so BLAS takes its gemm path
    even for a final batch of one pair, where a one-row product would go
    through gemv and round differently.
    """
    be = backend
    split = train_test_split_edges(graph, test_fraction=test_fraction, rng=rng)
    pos = split.train_edges
    neg = split.train_negatives
    pairs = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

    steps_per_epoch = max(1, -(-pairs.shape[0] // batch_size))
    epoch_state = {"order": None}

    def step(epoch: int, step_idx: int) -> float:
        if step_idx == 0:
            epoch_state["order"] = rng.permutation(pairs.shape[0])
        idx = epoch_state["order"][step_idx * batch_size : (step_idx + 1) * batch_size]
        batch_pairs = pairs[idx]
        batch_labels = be.asarray(labels[idx])
        count = batch_pairs.shape[0]
        feats = be.gather(features, batch_pairs.T.reshape(-1))
        z = be.matmul(feats, weight)
        zi, zj = z[:count], z[count:]
        feats_i, feats_j = feats[:count], feats[count:]
        probs = sigmoid(be.rowwise_dot(zi, zj), backend=be)
        residual = (probs - batch_labels)[:, None]
        grad_weight = (
            be.matmul(be.transpose(feats_i), residual * zj)
            + be.matmul(be.transpose(feats_j), residual * zi)
        ) / count
        weight[...] = weight - learning_rate * grad_weight
        return float(
            be.mean(
                -(batch_labels * be.log(probs + 1e-12)
                  + (1 - batch_labels) * be.log(1 - probs + 1e-12))
            )
        )

    def epoch_end(epoch: int, losses) -> None:
        history.record("loss", sum(losses))

    loop = TrainingLoop(num_epochs, steps_per_epoch, callbacks=callbacks)
    return loop.run(step, epoch_end)
