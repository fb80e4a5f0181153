"""Tests for metrics, clustering and the evaluation protocols."""

import numpy as np
import pytest

from repro.evals.clustering import AffinityPropagation, NodeClusteringTask
from repro.evals.link_prediction import LinkPredictionTask
from repro.evals.metrics import (
    mutual_information,
    normalized_mutual_information,
    roc_auc_score,
)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=5000)
        scores = rng.normal(size=5000)
        assert roc_auc_score(labels, scores) == pytest.approx(0.5, abs=0.03)

    def test_ties_averaged(self):
        assert roc_auc_score([0, 1], [0.5, 0.5]) == pytest.approx(0.5)

    def test_scale_invariance(self):
        labels = [0, 1, 0, 1, 1]
        scores = np.array([0.1, 0.4, 0.35, 0.8, 0.7])
        assert roc_auc_score(labels, scores) == roc_auc_score(labels, scores * 100 - 3)

    def test_nan_score_gives_nan(self):
        assert np.isnan(roc_auc_score([0, 1, 0, 1], [0.1, np.nan, 0.3, 0.9]))

    def test_all_tied_scores_give_half(self):
        assert roc_auc_score([0, 1, 1, 0, 1], np.full(5, 0.25)) == 0.5

    def test_signed_zeros_tie(self):
        assert roc_auc_score([0, 1], [0.0, -0.0]) == 0.5
        assert roc_auc_score([1, 0, 1, 0], [0.0, -0.0, -0.0, 0.0]) == 0.5

    def test_infinite_scores_rank_at_the_ends(self):
        assert roc_auc_score([0, 1, 0, 1], [-np.inf, np.inf, -1e308, 1e308]) == 1.0
        assert roc_auc_score([1, 0, 1], [-np.inf, 0.0, 5.0]) == 0.5

    def test_integer_and_bool_labels_agree(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=200)
        scores = np.round(rng.normal(size=200), 1)  # with ties
        want = roc_auc_score(labels.astype(bool), scores)
        assert roc_auc_score(labels, scores) == want
        assert roc_auc_score(labels.astype(np.int8), scores) == want
        assert roc_auc_score(labels.tolist(), scores) == want

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc_score([1, 1], [0.1, 0.2])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.zeros(3), np.zeros(4))


class TestMutualInformation:
    def test_identical_labelings(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        mi = mutual_information(labels, labels)
        # MI of a labeling with itself equals its entropy (log 3 here).
        assert mi == pytest.approx(np.log(3), rel=1e-6)

    def test_independent_labelings(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert mutual_information(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_permutation_invariance(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 9, 9, 7, 7])
        assert mutual_information(a, b) == pytest.approx(np.log(3), rel=1e-6)

    def test_nmi_bounds(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 200)
        b = rng.integers(0, 4, 200)
        nmi = normalized_mutual_information(a, b)
        assert 0.0 <= nmi <= 1.0

    def test_nmi_perfect(self):
        a = np.array([0, 1, 2, 0, 1, 2])
        assert normalized_mutual_information(a, a) == pytest.approx(1.0)

    def test_nmi_single_cluster_is_zero(self):
        assert normalized_mutual_information(np.zeros(5), np.zeros(5)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(np.zeros(3), np.zeros(4))


class TestAffinityPropagation:
    def test_recovers_well_separated_clusters(self, rng):
        centres = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        points = np.vstack([c + rng.normal(scale=0.3, size=(20, 2)) for c in centres])
        truth = np.repeat([0, 1, 2], 20)
        labels = AffinityPropagation(damping=0.7).fit_predict(points)
        assert normalized_mutual_information(truth, labels) > 0.9

    def test_single_point(self):
        labels = AffinityPropagation().fit_predict(np.zeros((1, 3)))
        assert labels.tolist() == [0]

    def test_labels_are_contiguous(self, rng):
        points = rng.normal(size=(40, 4))
        labels = AffinityPropagation(max_iterations=50).fit_predict(points)
        assert labels.min() == 0
        assert set(labels.tolist()) == set(range(labels.max() + 1))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AffinityPropagation(damping=0.3)
        with pytest.raises(ValueError):
            AffinityPropagation(max_iterations=0)

    def test_rejects_bad_input(self):
        with pytest.raises((TypeError, ValueError)):
            AffinityPropagation().fit_predict(np.zeros(5))


class TestNodeClusteringTask:
    def test_requires_labels(self, small_graph):
        with pytest.raises(ValueError, match="labels"):
            NodeClusteringTask(small_graph)

    def test_evaluate_shapes_checked(self, labelled_graph, rng):
        task = NodeClusteringTask(labelled_graph)
        with pytest.raises(ValueError):
            task.evaluate(rng.normal(size=(10, 4)))

    def test_informative_embeddings_beat_noise(self, labelled_graph, rng):
        task = NodeClusteringTask(labelled_graph, max_iterations=60)
        # One-hot-ish embeddings built from the true labels.
        informative = np.eye(4)[labelled_graph.labels] + rng.normal(
            scale=0.05, size=(labelled_graph.num_nodes, 4)
        )
        noise = rng.normal(size=(labelled_graph.num_nodes, 4))
        good = task.evaluate(informative)
        bad = task.evaluate(noise)
        assert good.mutual_information > bad.mutual_information
        assert good.num_clusters >= 2


class TestLinkPredictionTask:
    def test_embeddings_and_callable_agree(self, small_graph, rng):
        task = LinkPredictionTask(small_graph, rng=0)
        emb = rng.normal(size=(small_graph.num_nodes, 8))
        from_matrix = task.evaluate(emb).auc
        from_callable = task.evaluate(
            lambda pairs: np.einsum("ij,ij->i", emb[pairs[:, 0]], emb[pairs[:, 1]])
        ).auc
        assert from_matrix == pytest.approx(from_callable)

    def test_random_embeddings_near_half(self, small_graph, rng):
        task = LinkPredictionTask(small_graph, rng=0)
        auc = task.evaluate(rng.normal(size=(small_graph.num_nodes, 16))).auc
        assert 0.3 < auc < 0.7

    def test_adjacency_oracle_scores_high(self, small_graph):
        task = LinkPredictionTask(small_graph, rng=0)

        def oracle(pairs):
            return np.array(
                [1.0 if small_graph.has_edge(int(u), int(v)) else 0.0 for u, v in pairs]
            )

        assert task.evaluate(oracle).auc > 0.95

    def test_train_graph_excludes_test_edges(self, small_graph):
        task = LinkPredictionTask(small_graph, rng=0)
        test_set = {tuple(e) for e in task.split.test_edges.tolist()}
        train_set = task.train_graph.edge_set()
        assert not test_set & train_set

    def test_result_counts(self, small_graph):
        task = LinkPredictionTask(small_graph, test_fraction=0.2, rng=0)
        result = task.evaluate(np.ones((small_graph.num_nodes, 4)))
        assert result.num_test_edges == task.split.test_edges.shape[0]
        assert result.num_test_negatives == result.num_test_edges

    def test_bad_embedding_shape_rejected(self, small_graph, rng):
        task = LinkPredictionTask(small_graph, rng=0)
        with pytest.raises(ValueError):
            task.evaluate(rng.normal(size=(3, 3)))

    def test_wrong_score_count_rejected(self, small_graph):
        task = LinkPredictionTask(small_graph, rng=0)
        with pytest.raises(ValueError):
            task.evaluate(lambda pairs: np.zeros(3))
