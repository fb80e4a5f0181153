"""Tests for graph IO and the shared utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import make_model
from repro.graph.io import (
    read_edge_list,
    read_embeddings,
    read_labels,
    write_edge_list,
    write_embeddings,
    write_labels,
)
from repro.utils.logging import TrainingHistory
from repro.utils.rng import ScalarDraws, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_array_2d,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestGraphIO:
    def test_edge_list_roundtrip(self, small_graph, tmp_path):
        path = tmp_path / "edges.txt"
        write_edge_list(small_graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_nodes == small_graph.num_nodes
        assert np.array_equal(loaded.edges, small_graph.edges)

    def test_own_edge_list_trains_in_ram(self, tmp_path):
        # A user's own graph: read_edge_list gives an in-RAM Graph that any
        # registered model fits (the flow of examples/export_embeddings.py).
        path = tmp_path / "edges.txt"
        path.write_text("# nodes=7\n0 1\n1 2\n2 3\n3 0\n4 5\n5 0\n")
        graph = read_edge_list(path, name="mine")
        assert (graph.num_nodes, graph.num_edges, graph.name) == (7, 6, "mine")
        assert graph.degree(6) == 0  # isolated: known only from the header
        model = make_model(
            "sgm", graph=graph, rng=0, embedding_dim=4, batch_size=4, num_epochs=2
        ).fit()
        assert model.embeddings_.shape == (7, 4)
        assert np.isfinite(model.embeddings_).all()

    def test_edge_list_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnonsense\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_labels_roundtrip(self, labelled_graph, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(labelled_graph, path)
        labels = read_labels(path, labelled_graph.num_nodes)
        assert np.array_equal(labels, labelled_graph.labels)

    def test_write_labels_requires_labels(self, small_graph, tmp_path):
        with pytest.raises(ValueError):
            write_labels(small_graph, tmp_path / "labels.txt")

    def test_read_labels_out_of_range(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("99 1\n")
        with pytest.raises(ValueError):
            read_labels(path, 5)

    def test_embeddings_roundtrip(self, tmp_path, rng):
        emb = rng.normal(size=(7, 5))
        path = tmp_path / "emb.txt"
        write_embeddings(emb, path)
        loaded = read_embeddings(path)
        assert loaded.shape == emb.shape
        assert np.allclose(loaded, emb, atol=1e-5)

    def test_write_embeddings_requires_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_embeddings(np.zeros(4), tmp_path / "e.txt")

    def test_read_embeddings_missing_header(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("not a header\n")
        with pytest.raises(ValueError):
            read_embeddings(path)


class TestRngHelpers:
    def test_ensure_rng_from_none_int_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)
        g = ensure_rng(7)
        assert isinstance(g, np.random.Generator)
        assert ensure_rng(g) is g

    def test_ensure_rng_same_seed_same_stream(self):
        assert ensure_rng(3).integers(0, 100, 5).tolist() == ensure_rng(3).integers(0, 100, 5).tolist()

    def test_ensure_rng_rejects_bad_types(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_rngs_independent_but_reproducible(self):
        a1, b1 = spawn_rngs(5, 2)
        a2, b2 = spawn_rngs(5, 2)
        assert a1.integers(0, 1000, 4).tolist() == a2.integers(0, 1000, 4).tolist()
        assert b1.integers(0, 1000, 4).tolist() == b2.integers(0, 1000, 4).tolist()

    def test_spawn_rngs_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, 0)


#: Bounds at the edges of numpy's 32-bit Lemire path: no draw (1), the
#: rejection threshold's extremes (2**31 + 1, 2**32 - 1) and the raw half-word
#: (2**32).
SPECIAL_BOUNDS = [1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1, 2**32]


def draw_scalars(rng, ops):
    """The reference: numpy's own scalar calls (``None`` means ``random()``)."""
    return [rng.random() if n is None else int(rng.integers(0, n)) for n in ops]


class TestScalarDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        hold_half_word=st.booleans(),
        ops=st.lists(
            st.one_of(st.none(), st.sampled_from(SPECIAL_BOUNDS), st.integers(1, 2**32)),
            max_size=60,
        ),
    )
    def test_matches_numpy_scalar_calls(self, seed, hold_half_word, ops):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if hold_half_word:
            rng.integers(0, 7)
            ref.integers(0, 7)
        with ScalarDraws(rng) as draws:
            got = [draws.random() if n is None else draws.below(n) for n in ops]
        assert got == draw_scalars(ref, ops)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert draw_scalars(rng, ops) == draw_scalars(ref, ops)

    def test_matches_across_raw_blocks(self):
        # Enough draws to refill the raw block several times.
        ops_rng = np.random.default_rng(1)
        ops = [None if ops_rng.random() < 0.4 else int(ops_rng.integers(1, 5000))
               for _ in range(20_000)]
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        draws = ScalarDraws(rng)
        got = [draws.random() if n is None else draws.below(n) for n in ops]
        draws.close()
        assert got == draw_scalars(ref, ops)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_no_draw_leaves_state_unchanged(self):
        rng = np.random.default_rng(5)
        rng.integers(0, 3)
        before = rng.bit_generator.state
        with ScalarDraws(rng) as draws:
            assert draws.below(1) == 0
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM,
                                               np.random.Philox, np.random.SFC64])
    def test_refuses_other_bit_generators(self, bit_generator):
        rng = np.random.Generator(bit_generator(0))
        with pytest.raises(TypeError, match=f"got {bit_generator.__name__}$"):
            ScalarDraws(rng)

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
    def test_refuses_bounds_outside_one_to_two_pow_32(self, n):
        with ScalarDraws(np.random.default_rng(0)) as draws:
            with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
                draws.below(n)


class TestValidationHelpers:
    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive(bad, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                check_probability(bad, "p")

    def test_check_in_range(self):
        assert check_in_range(2.0, 1.0, 3.0, "x") == 2.0
        with pytest.raises(ValueError):
            check_in_range(4.0, 1.0, 3.0, "x")

    def test_check_array_2d(self):
        out = check_array_2d([[1, 2], [3, 4]], "m")
        assert out.shape == (2, 2)
        with pytest.raises(TypeError):
            check_array_2d(np.zeros(3), "m")
        with pytest.raises(ValueError):
            check_array_2d(np.array([[np.nan, 1.0]]), "m")


class TestTrainingHistory:
    def test_record_and_query(self):
        hist = TrainingHistory()
        hist.record("loss", 1.0)
        hist.record("loss", 0.5)
        assert hist.get("loss") == [1.0, 0.5]
        assert hist.last("loss") == 0.5
        assert "loss" in hist
        assert "missing" not in hist
        assert len(hist) == 1

    def test_last_missing_raises(self):
        with pytest.raises(KeyError):
            TrainingHistory().last("loss")

    def test_get_missing_returns_empty(self):
        assert TrainingHistory().get("nothing") == []
