"""Byte-equality of rewritten hot kernels against the code they replaced.

AdvSGM's per-substep kernels (the branch-free ``sigmoid``, the
array-backed ``RdpAccountant``, the generator's cached activation and the
dispatch-free row clipping), the DeepWalk/node2vec path's kernels (the
flat scatter in ``NumpyBackend.index_add_`` and its complex128 pair form,
the ``np.take`` gathers, the in-place row shuffle of ``ArrayPairSource``,
``walks_to_pairs`` writing every chunk into one array, the node2vec table
step that carries its arc and searches only its own segment, the table
built in bounded chunks of entries, and DeepWalk's
batch step, which evaluates each sigmoid once through
``sigmoid_pair``), the skip-gram update path (one gather per side, and the fused
``NumpyBackend.add_rows_project_``), the blockwise pair scorer
``score_pairs`` behind every model's ``score_edges``, and the Fig. 3 cells'
block-drawn non-edge sampler and row-projected GNN steps are rewrites for speed that
must not move a single bit.  So are the in-repo ``average_ranks`` (the AUC's
ranks) and ``logsumexp`` (the subsampled-RDP bound), which replaced
``scipy.stats.rankdata`` and ``scipy.special.logsumexp`` to keep both scipy
subpackages off ``import repro``.  So are two merges that leave one copy of
a formula: the skip-gram pair gradient ``pair_gradients`` (against the
two-formula per-site code) and the baselines' ``dpsgd_row_step`` (DP-SGM,
DP-ASGM and DPGGAN fits against their own former steps).  Each test keeps the
replaced implementation as a reference and compares the two on the same
host, so these checks are strict everywhere (unlike the golden digests,
which hosted CI compares relaxed).  The one exception is the row-projected
steps' weights, which depend on BLAS's kernel choice: under
``REPRO_GOLDEN_RELAXED`` they are compared at rtol 1e-12.
"""

from __future__ import annotations

import importlib
import os
from types import SimpleNamespace
from typing import Dict

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.registry import make_model
from repro.backend.numpy_backend import NumpyBackend
from repro.baselines.dpasgm import DPASGM
from repro.baselines.dpggan import DPGGAN
from repro.baselines.dpgvae import DPGVAE
from repro.baselines.dpsgm import DPSGM
from repro.core.generator import FakeNeighbourGenerator
from repro.embedding.deepwalk import DeepWalk
from repro.embedding.skipgram import SkipGramConfig, SkipGramModel
from repro.evals.metrics import average_ranks
from repro.graph import random_walk, walk_engine
from repro.graph.datasets import load_dataset
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph
from repro.graph.random_walk import walks_to_pairs
from repro.graph.splits import _edge_keys, _sample_non_edges, train_test_split_edges
from repro.graph.walk_engine import WalkEngine
from repro.nn import functional
from repro.nn.constrained_sigmoid import ConstrainedSigmoid
from repro.nn.functional import (
    SIGMOID_CLIP,
    log_sigmoid,
    rowwise_dot,
    score_pairs,
    sigmoid,
    sigmoid_pair,
)
from repro.privacy import subsampling
from repro.privacy.accountant import PrivacySpent, RdpAccountant
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm
from repro.privacy.composition import DEFAULT_RDP_ORDERS, rdp_to_dp
from repro.privacy.subsampling import logsumexp, subsampled_gaussian_rdp
from repro.train import ArrayPairSource, TrainingLoop
from repro.train.budget import PrivacyBudget

RELAXED = os.environ.get("REPRO_GOLDEN_RELAXED", "") not in ("", "0")


def masked_sigmoid(x):
    """The boolean-mask sigmoid that ``sigmoid`` replaced."""
    x = np.clip(np.asarray(x, dtype=np.float64), -SIGMOID_CLIP, SIGMOID_CLIP)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_same_bytes(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBranchFreeSigmoid:
    EDGES = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        SIGMOID_CLIP, -SIGMOID_CLIP, 501.0, -501.0,  # the clip edges
        745.0, -745.0, 744.4, -744.4,  # exp() underflow, were it unclipped
        709.78, -709.78, 36.7, -36.7, 5e-324, -5e-324,
    ]

    def test_edge_values(self):
        x = np.array(self.EDGES)
        assert_same_bytes(sigmoid(x), masked_sigmoid(x))
        for value in self.EDGES:
            assert_same_bytes(sigmoid(np.array([value])), masked_sigmoid([value]))

    @pytest.mark.parametrize("x", [0.5, -3.0, np.float64(-0.0), np.float64(np.nan), [], np.zeros((0, 4))])
    def test_zero_d_and_empty(self, x):
        assert_same_bytes(sigmoid(x), masked_sigmoid(x))

    def test_strided_block(self):
        x = np.random.default_rng(0).normal(size=(40, 128)) * 30.0
        x[::7, ::3] = np.nan
        assert_same_bytes(sigmoid(x.T), masked_sigmoid(x.T))

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=70),
                   elements=st.floats(-1.0, 1.0)),
        st.floats(-3.0, 4.0),
    )
    def test_random_scales(self, unit, log_scale):
        x = unit * 10.0 ** log_scale
        assert_same_bytes(sigmoid(x), masked_sigmoid(x))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 70)))
    def test_any_float64(self, x):
        assert_same_bytes(sigmoid(x), masked_sigmoid(x))


def assert_pair_matches_two_sigmoids(x):
    got_pos, got_neg = sigmoid_pair(x)
    want_pos, want_neg = sigmoid(x), sigmoid(-np.asarray(x, dtype=np.float64))
    assert_same_bytes(got_pos, want_pos)
    # A NaN input comes out as a NaN of the other sign on the flipped side;
    # every other value, -0.0 and the infinities included, is byte-equal.
    nan = np.isnan(np.asarray(x, dtype=np.float64))
    assert type(got_neg) is type(want_neg) and got_neg.shape == want_neg.shape
    assert np.array_equal(np.isnan(got_neg), nan)
    assert got_neg[~nan].tobytes() == want_neg[~nan].tobytes()


class TestSigmoidPair:
    def test_edge_values(self):
        assert_pair_matches_two_sigmoids(np.array(TestBranchFreeSigmoid.EDGES))

    @pytest.mark.parametrize("x", [0.5, -3.0, np.float64(-0.0), [], np.zeros((0, 4))])
    def test_zero_d_and_empty(self, x):
        assert_pair_matches_two_sigmoids(x)

    def test_strided_block(self):
        x = np.random.default_rng(0).normal(size=(40, 128)) * 30.0
        x[::7, ::3] = np.nan
        assert_pair_matches_two_sigmoids(x.T)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 70)))
    def test_any_float64(self, x):
        assert_pair_matches_two_sigmoids(x)


def two_sigmoid_train_on_batch(self, batch):
    """DeepWalk's batch step before ``sigmoid_pair``: each sigmoid twice."""
    cfg = self.config
    be = self.backend_
    centres, contexts = batch[:, 0], batch[:, 1]
    negatives = self._train_rng.integers(
        0, self.graph.num_nodes, size=(batch.shape[0], cfg.num_negatives)
    )

    v_c = np.take(self.w_in, centres, axis=0)
    v_o = np.take(self.w_out, contexts, axis=0)
    pos_scores = rowwise_dot(v_c, v_o)
    pos_coeff = 1.0 - sigmoid(pos_scores)

    grad_centre = pos_coeff[:, None] * v_o
    grad_context = pos_coeff[:, None] * v_c
    neg_vectors = np.take(self.w_out, negatives, axis=0)
    neg_scores = np.einsum("ij,ikj->ik", v_c, neg_vectors)
    neg_coeff = -sigmoid(neg_scores)
    grad_centre = grad_centre + np.einsum("ik,ikj->ij", neg_coeff, neg_vectors)

    lr = cfg.learning_rate
    be.index_add_(self.w_in, centres, lr * grad_centre)
    be.index_add_(self.w_out, contexts, lr * grad_context)
    be.index_add_(
        self.w_out,
        negatives.ravel(),
        lr * (neg_coeff[:, :, None] * v_c[:, None, :]).reshape(-1, v_c.shape[1]),
    )

    with np.errstate(over="ignore"):
        batch_obj = np.sum(np.log(sigmoid(pos_scores) + 1e-12)) + np.sum(
            np.log(sigmoid(-neg_scores) + 1e-12)
        )
    return float(-batch_obj / batch.shape[0])


class TestDeepWalkBatch:
    @pytest.mark.parametrize("model", ["deepwalk", "node2vec"])
    # At 0.5 the scores saturate the sigmoid (weights reach 1e18) and stay
    # finite; a NaN loss would differ in its sign bit only.  The ids name
    # the negatives drawn, uniform ones.
    @pytest.mark.parametrize("learning_rate", [0.05, 0.5],
                             ids=["0.05-uniform", "0.5-uniform"])
    def test_matches_two_sigmoid_step(self, small_graph, monkeypatch, model,
                                      learning_rate):
        config = dict(num_walks=2, walk_length=10, window_size=3, embedding_dim=16,
                      num_epochs=3, batch_size=64, learning_rate=learning_rate)
        got = make_model(model, graph=small_graph, rng=9, **config).fit()
        monkeypatch.setattr(DeepWalk, "_train_on_batch", two_sigmoid_train_on_batch)
        want = make_model(model, graph=small_graph, rng=9, **config).fit()
        assert np.isfinite(got.w_in).all()
        assert_same_bytes(got.w_in, want.w_in)
        assert_same_bytes(got.w_out, want.w_out)
        assert_same_bytes(np.array(got.history.series["loss"]),
                          np.array(want.history.series["loss"]))


class DictAccountant:
    """The dict-and-loop ``RdpAccountant`` that the array version replaced."""

    def __init__(self, noise_multiplier, orders=DEFAULT_RDP_ORDERS):
        self.noise_multiplier = float(noise_multiplier)
        self.orders = tuple(int(o) for o in orders)
        self._rdp: Dict[int, float] = {order: 0.0 for order in self.orders}
        self._steps = 0
        self._curve_cache: Dict[float, Dict[int, float]] = {}
        self.saturated = 0  # queries that took the ``exponent >= 700`` branch

    def step(self, sampling_rate, num_steps=1):
        if num_steps == 0 or sampling_rate == 0:
            return
        key = round(float(sampling_rate), 12)
        if key not in self._curve_cache:
            self._curve_cache[key] = {
                order: subsampled_gaussian_rdp(order, key, self.noise_multiplier)
                for order in self.orders
            }
        curve = self._curve_cache[key]
        for order in self.orders:
            self._rdp[order] += num_steps * curve[order]
        self._steps += num_steps

    def get_privacy_spent(self, delta):
        epsilon, order = rdp_to_dp(self._rdp, delta, self.orders)
        return PrivacySpent(epsilon=epsilon, delta=delta, best_order=order)

    def get_delta_spent(self, target_epsilon):
        best_delta = 1.0
        for order, eps in self._rdp.items():
            exponent = -(order - 1) * (target_epsilon - eps)
            if exponent >= 700:
                self.saturated += 1
            delta = float(np.exp(min(exponent, 0.0))) if exponent < 700 else 1.0
            best_delta = min(best_delta, delta)
        return best_delta


def same_float(a, b):
    return type(a) is type(b) is float and a.hex() == b.hex()


class TestArrayAccountant:
    TARGETS = (1e-3, 0.1, 0.5, 1.0, 2.0, 6.0, 20.0, 150.0)

    def assert_same_state(self, acc, ref):
        assert acc.steps == ref._steps
        rdp = acc.rdp
        assert list(rdp) == list(ref._rdp)
        assert all(same_float(rdp[o], ref._rdp[o]) for o in rdp)
        for eps in self.TARGETS:
            assert same_float(acc.get_delta_spent(eps), ref.get_delta_spent(eps))
        for delta in (1e-5, 1e-2, 0.5):
            assert acc.get_privacy_spent(delta) == ref.get_privacy_spent(delta)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rate_cycles(self, seed):
        rng = np.random.default_rng(seed)
        sigma = float(rng.choice([0.3, 0.7, 1.0, 5.0, 12.0]))
        orders = DEFAULT_RDP_ORDERS if seed % 3 else tuple(rng.permutation(range(2, 40)))
        cycle = [float(r) for r in rng.uniform(0.0, 1.0, size=int(rng.integers(1, 4)))]
        cycle += [0.0, 8 / 7964, 40 / 1000][: int(rng.integers(0, 4))]
        acc, ref = RdpAccountant(sigma, orders), DictAccountant(sigma, orders)
        self.assert_same_state(acc, ref)
        for i in range(30):
            rate, num_steps = cycle[i % len(cycle)], int(rng.integers(0, 3))
            acc.step(rate, num_steps)
            ref.step(rate, num_steps)
            self.assert_same_state(acc, ref)

    def test_saturated_branch(self):
        acc, ref = RdpAccountant(0.3), DictAccountant(0.3)
        for _ in range(10):
            acc.step(1.0)
            ref.step(1.0)
        self.assert_same_state(acc, ref)
        assert ref.saturated > 0
        assert acc.get_delta_spent(1e-3) == 1.0

    def test_rdp_holds_python_floats(self):
        acc = RdpAccountant(5.0)
        acc.step(0.05, num_steps=np.int64(3))
        assert all(type(k) is int and type(v) is float for k, v in acc.rdp.items())

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RdpAccountant(5.0, orders=(2, 3, 3))


class TestBudgetPredicate:
    def test_boundary_is_exhausted(self):
        acc = RdpAccountant(2.0)
        acc.step(0.1, num_steps=20)
        delta_hat = acc.get_delta_spent(2.0)
        assert 0.0 < delta_hat < 1.0
        assert acc.budget_exhausted(2.0, delta_hat)
        assert PrivacyBudget(acc, 2.0, delta_hat).exhausted()
        above = float(np.nextafter(delta_hat, 1.0))
        assert not acc.budget_exhausted(2.0, above)
        assert not PrivacyBudget(acc, 2.0, above).exhausted()


class TestCachedActivation:
    def test_backward_matches_recomputed_sigmoid(self):
        gen = FakeNeighbourGenerator(16, rng=3)
        fake = gen.generate(40)
        noise = gen._last_noise.copy()
        act = masked_sigmoid(noise @ gen.theta)
        assert_same_bytes(fake, act)
        fake[:] = 7.0  # the caller may write into what generate returned
        grad = np.random.default_rng(1).normal(size=fake.shape)
        want = noise.T @ (grad * act * (1.0 - act))
        assert_same_bytes(gen.backward(grad)["theta"], want)


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(1, 130)),
               elements=st.floats(-1e3, 1e3)),
    st.floats(0.01, 10.0),
)
def test_row_clipping_matches_linalg_norm(grads, clip_norm):
    scales = np.maximum(1.0, np.linalg.norm(grads, axis=1) / clip_norm)
    assert_same_bytes(clip_rows_by_l2_norm(grads, clip_norm), grads / scales[:, None])


# ---------------------------------------------------------------------------
# DeepWalk / node2vec path
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e308, -1e308]


def add_at_2d(target, idx, rows):
    """The 2-D ``np.add.at`` the flat scatter in ``index_add_`` replaced."""
    np.add.at(target, np.asarray(idx, dtype=np.int64), rows)


def assert_scatter_matches(target, idx, rows):
    got, want = target.copy(), target.copy()
    NumpyBackend().index_add_(got, idx, rows)
    add_at_2d(want, idx, rows)
    assert got.tobytes() == want.tobytes()


@st.composite
def scatter_cases(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 9))
    m = draw(st.integers(0, 80))  # up to ~7 adds per row at n = 12: heavy repeats
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL_FLOATS), st.floats())
    idx = draw(hnp.arrays(np.int64, m, elements=st.integers(-n, n - 1)))
    row_shape = draw(st.sampled_from([(m, dim), (dim,)]))
    rows = draw(hnp.arrays(np.float64, row_shape, elements=values))
    target = draw(hnp.arrays(np.float64, (n, dim), elements=values))
    return target, idx, rows


class TestFlatScatterAdd:
    @settings(max_examples=400, deadline=None)
    @given(scatter_cases())
    def test_matches_2d_add_at(self, case):
        assert_scatter_matches(*case)

    @pytest.mark.parametrize("dim", [1, 8, 128])
    def test_shapes(self, dim):
        rng = np.random.default_rng(dim)
        target = rng.normal(size=(6, dim))
        idx = rng.integers(-6, 6, size=500)
        assert_scatter_matches(target, idx, rng.normal(size=(500, dim)))
        assert_scatter_matches(target, idx, rng.normal(size=dim))  # one row for all
        assert_scatter_matches(target, np.zeros(0, dtype=np.int64), np.zeros((0, dim)))
        assert_scatter_matches(target, idx.astype(np.int32)[::2], rng.normal(size=(250, dim)))

    def test_special_values_in_order(self):
        target = np.array([[0.0, -0.0, 1.0], [-0.0, np.inf, 2.0]])
        rows = np.array([
            [-0.0, -0.0, np.inf], [np.inf, np.nan, -np.inf], [-np.inf, 1.0, np.nan],
            [1e308, -0.0, 3.0], [1e308, 0.0, -np.nan],
        ])
        assert_scatter_matches(target, np.array([1, 0, -1, 0, 0]), rows)
        # NaN onto a NaN of the other sign: the 1-D and 2-D loops keep
        # different ones, so rows holding a NaN must take the 2-D path.
        target = np.array([[np.nan, 1.0], [-np.nan, 2.0]])
        assert_scatter_matches(target, np.array([0, 1, 1]), np.full((3, 2), -np.nan))
        assert_scatter_matches(target, np.array([0, 1, 1]), np.full(2, np.nan))

    @pytest.mark.parametrize(
        "view", [lambda a: a[:, ::3], lambda a: a.T, lambda a: a[::2]],
        ids=["columns", "transpose", "rows"],
    )
    def test_non_contiguous_target_takes_fallback(self, view):
        # The flat view of a non-contiguous array would be a copy, dropping
        # every add: these must run the 2-D np.add.at on the view itself.
        rng = np.random.default_rng(7)
        got_base = rng.normal(size=(10, 12))
        want_base, before = got_base.copy(), got_base.tobytes()
        got, want = view(got_base), view(want_base)
        assert not got.flags.c_contiguous
        idx = rng.integers(0, got.shape[0], size=40)
        rows = rng.normal(size=(40, got.shape[1]))
        NumpyBackend().index_add_(got, idx, rows)
        add_at_2d(want, idx, rows)
        assert got_base.tobytes() == want_base.tobytes() != before

    @pytest.mark.parametrize("offset", [8, 1], ids=["8-byte", "1-byte"])
    @pytest.mark.parametrize("dim", [2, 7, 8])
    def test_offset_buffers(self, dim, offset):
        # Target and rows starting 8 bytes off a 16-byte boundary, and
        # float64 buffers misaligned by one byte (those take the float64
        # path: numpy flags them unaligned).
        rng = np.random.default_rng(dim)

        def shifted(shape):
            count = int(np.prod(shape))
            buf = bytearray(8 * count + 32)
            start = -np.frombuffer(buf, np.uint8).ctypes.data % 16 + offset
            out = np.frombuffer(buf, np.float64, count, start).reshape(shape)
            assert out.ctypes.data % 16 == offset
            assert out.flags.aligned == (offset == 8) and out.flags.writeable
            out[...] = rng.normal(size=shape)
            return out

        idx = rng.integers(-6, 6, size=300)
        for rows in (rng.normal(size=(300, dim)), shifted((300, dim))):
            got = shifted((6, dim))
            want = got.copy()
            NumpyBackend().index_add_(got, idx, rows)
            add_at_2d(want, idx, rows)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 8, 9])
    def test_float32_rows_and_targets(self, dim):
        rng = np.random.default_rng(dim)
        idx = rng.integers(-6, 6, size=300)
        rows32 = rng.normal(size=(300, dim)).astype(np.float32)
        assert_scatter_matches(rng.normal(size=(6, dim)), idx, rows32)
        assert_scatter_matches(rng.normal(size=(6, dim)), idx, rows32[0])
        target32 = rng.normal(size=(6, dim)).astype(np.float32)
        assert_scatter_matches(target32, idx, rows32)
        assert_scatter_matches(target32, idx, rng.normal(size=(300, dim)))

    @pytest.mark.parametrize("bad", [4, -5, 10**6, -(10**6)])
    def test_out_of_range_raises_and_leaves_target(self, bad):
        target = np.random.default_rng(3).normal(size=(4, 8))
        before = target.tobytes()
        with pytest.raises(IndexError):
            NumpyBackend().index_add_(target, np.array([0, 1, bad, 2]), np.ones((4, 8)))
        assert target.tobytes() == before


class TestTakeGather:
    def assert_same_copy(self, got, x, idx):
        want = x[idx]
        assert type(got) is np.ndarray
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable
        assert not np.shares_memory(got, x)

    def test_index_shapes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 8))
        pairs = rng.integers(0, 50, size=(300, 2)).astype(np.int32)
        for idx in (
            rng.integers(-50, 50, size=64),  # 1-D, with negatives
            rng.integers(0, 50, size=(16, 5)),  # (B, k) negatives
            pairs[:, 0],  # strided int32 column view
            np.zeros(0, dtype=np.int64),
        ):
            self.assert_same_copy(np.take(x, idx, axis=0), x, idx)

    def test_wide_rows(self):
        x = np.random.default_rng(1).normal(size=(40, 128))
        idx = np.array([3, 3, 39, 0, -1])
        self.assert_same_copy(np.take(x, idx, axis=0), x, idx)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
    def test_pair_source_batches(self, batch_size):
        pairs = np.random.default_rng(2).integers(0, 90, size=(250, 2))
        got = list(ArrayPairSource(pairs, batch_size).batches(np.random.default_rng(5)))
        order = np.random.default_rng(5).permutation(pairs.shape[0])
        want = [pairs[order[s : s + batch_size]] for s in range(0, pairs.shape[0], batch_size)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bytes(g, w)
            assert g.flags.writeable and not np.shares_memory(g, pairs)


def permute_and_take(pairs, batch_size, rng):
    """The batches of the permute-and-gather pass ``ArrayPairSource`` replaced."""
    order = rng.permutation(pairs.shape[0])
    return [
        np.take(pairs, order[start : start + batch_size], axis=0)
        for start in range(0, pairs.shape[0], batch_size)
    ]


class TestInPlaceShuffle:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
    @pytest.mark.parametrize("n", [0, 1, 250])
    @pytest.mark.parametrize("batch_size", [1, 7, 1000])
    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("hand_over", [False, True], ids=["copy", "passes"])
    def test_matches_permute_and_take(self, dtype, n, batch_size, passes, hand_over):
        pairs = np.random.default_rng(n).integers(-90, 90, size=(n, 2)).astype(dtype)
        original = pairs.copy()
        source = ArrayPairSource(pairs, batch_size, passes=passes if hand_over else None)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(passes):
            got = list(source.batches(got_rng))
            want = permute_and_take(original, batch_size, want_rng)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_bytes(g, w)
                assert g.flags.writeable
                if not hand_over:
                    assert not np.shares_memory(g, pairs)
            # The generator ends each pass where the permutation left it.
            assert got_rng.integers(2**62) == want_rng.integers(2**62)
        if hand_over:
            with pytest.raises(RuntimeError):
                next(source.batches(got_rng))
        else:
            assert pairs.tobytes() == original.tobytes()

    def test_hand_over_copies_read_only_and_strided_pairs(self):
        base = np.random.default_rng(1).integers(0, 90, size=(40, 4))
        for pairs in (base[:, ::2], np.broadcast_to(base[:1, :2], (40, 2))):
            before = pairs.copy()
            got = list(ArrayPairSource(pairs, 16, passes=1).batches(np.random.default_rng(2)))
            want = permute_and_take(before, 16, np.random.default_rng(2))
            for g, w in zip(got, want):
                assert_same_bytes(g, w)
            assert pairs.tobytes() == before.tobytes()
        with pytest.raises(ValueError):
            ArrayPairSource(base[:, :2], 16, passes=0)


def ragged_pairs_reference(matrix, window_size, centre_lo=0, centre_hi=None, dtype=np.int64):
    """The index-grid extraction before it wrote into a given output."""
    length = matrix.shape[1]
    if centre_hi is None:
        centre_hi = length
    deltas = np.concatenate([np.arange(-window_size, 0), np.arange(1, window_size + 1)])
    context_idx = np.arange(centre_lo, centre_hi)[:, None] + deltas[None, :]
    in_range = (context_idx >= 0) & (context_idx < length)
    contexts = matrix[:, np.where(in_range, context_idx, 0)]
    centres = np.broadcast_to(matrix[:, centre_lo:centre_hi, None], contexts.shape)
    valid = in_range[None, :, :] & (centres >= 0) & (contexts >= 0)
    return np.column_stack([centres[valid], contexts[valid]]).astype(dtype, copy=False)


def full_pairs_reference(matrix, window_size, dtype):
    """The stride-tricks extraction before it wrote into a given output."""
    rows, length = matrix.shape
    w = min(window_size, length - 1)
    interior = length - 2 * w
    if interior <= 0:
        return ragged_pairs_reference(matrix, window_size, dtype=dtype)
    windows = np.lib.stride_tricks.sliding_window_view(matrix, 2 * w + 1, axis=1)
    block = np.empty((rows, interior, 2 * w, 2), dtype=dtype)
    block[..., 0] = windows[:, :, w, None]
    block[:, :, :w, 1] = windows[:, :, :w]
    block[:, :, w:, 1] = windows[:, :, w + 1 :]
    return np.concatenate([
        block.reshape(-1, 2),
        ragged_pairs_reference(matrix[:, : 2 * w], w, 0, w, dtype),
        ragged_pairs_reference(matrix[:, -2 * w :], w, w, 2 * w, dtype),
    ])


def concatenated_walks_to_pairs(walks, window_size, chunk_rows):
    """The chunk-then-concatenate ``walks_to_pairs`` the one-array version replaced."""
    matrix = walks.astype(np.int64, copy=False)
    if matrix.size == 0 or matrix.shape[1] < 2:
        return np.zeros((0, 2), dtype=np.int64)
    dtype = np.min_scalar_type(max(int(matrix.max()), 0))
    chunks = []
    for start in range(0, matrix.shape[0], chunk_rows):
        chunk = matrix[start : start + chunk_rows]
        if chunk.min() >= 0:
            chunks.append(full_pairs_reference(chunk, window_size, dtype))
        else:
            chunks.append(ragged_pairs_reference(chunk, window_size, dtype=dtype))
    return np.concatenate(chunks, axis=0) if len(chunks) > 1 else chunks[0]


class TestOneArrayPairs:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 16384])
    @pytest.mark.parametrize("length", [1, 2, 3, 6, 11])
    @pytest.mark.parametrize("window", [1, 2, 4, 12])
    def test_matches_chunk_then_concatenate(self, monkeypatch, chunk_rows, length, window):
        # Windows of 4 and 12 reach past every walk of length <= 6 and 11.
        monkeypatch.setattr(random_walk, "_PAIR_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(length * 100 + window)
        full = rng.integers(0, 40, size=(7, length))
        suffix = full.copy()
        suffix[np.arange(length)[None, :] >= rng.integers(0, length + 1, size=(7, 1))] = -1
        holes = np.where(rng.random(full.shape) < 0.3, -1, full)
        wide = full.astype(np.int64) << 32  # node ids past uint32: uint64 pairs
        for walks in (full, full.astype(np.int32), suffix, holes, wide, full[:0]):
            got = walks_to_pairs(walks, window)
            assert_same_bytes(got, concatenated_walks_to_pairs(walks, window, chunk_rows))

    def test_one_grid_per_ragged_chunk(self, monkeypatch):
        # A ragged chunk is counted without its index grid and builds the
        # grid once, to write its pairs.
        monkeypatch.setattr(random_walk, "_PAIR_CHUNK_ROWS", 4)
        walks = np.random.default_rng(3).integers(0, 30, size=(18, 9))
        walks[::4, 5:] = -1  # a short walk in each of the five chunks
        calls = []
        grid = random_walk._ragged_grid
        monkeypatch.setattr(
            random_walk, "_ragged_grid", lambda *args: calls.append(1) or grid(*args)
        )
        got = walks_to_pairs(walks, 3)
        assert len(calls) == 5
        assert_same_bytes(got, concatenated_walks_to_pairs(walks, 3, 4))

    def test_ragged_chunks_beside_full_ones(self, monkeypatch):
        monkeypatch.setattr(random_walk, "_PAIR_CHUNK_ROWS", 4)
        walks = np.random.default_rng(0).integers(0, 30, size=(18, 9))
        walks[5, 3:] = -1  # only the second chunk is ragged
        walks[17, 1:] = -1  # and the last, a one-row chunk
        for window in (1, 3, 9):
            assert_same_bytes(
                walks_to_pairs(walks, window), concatenated_walks_to_pairs(walks, window, 4)
            )


def two_search_node2vec_walks(engine, starts, walk_length, p, q, rng):
    """The table walk ``node2vec_walks`` replaced: two global searches a step."""
    table = engine.second_order_table(p, q)
    num_nodes = np.int64(engine.graph.num_nodes)
    starts = np.asarray(starts, dtype=np.int64)
    walks = np.full((starts.size, walk_length), -1, dtype=np.int64)
    walks[:, 0] = starts
    if walk_length == 1:
        return walks
    active = np.flatnonzero(engine.graph.degrees[starts] > 0)
    if active.size == 0:
        return walks
    prev = starts[active]
    current = engine._uniform_step(prev, rng)
    walks[active, 1] = current
    for step in range(2, walk_length):
        arc = np.searchsorted(table.arc_keys, prev * num_nodes + current)
        target = table.base[arc] + rng.random(arc.size) * table.total[arc]
        pos = np.searchsorted(table.cum_weights, target, side="right")
        np.clip(pos, table.entry_offsets[arc], table.entry_offsets[arc + 1] - 1, out=pos)
        prev, current = current, table.candidates[pos]
        walks[active, step] = current
    return walks


def hub_graph(seed, hub_degree=300):
    """A hub of degree >= 256 (8+ bisection rounds), leaves, a random core,
    and isolated nodes."""
    rng = np.random.default_rng(seed)
    n = hub_degree + 60
    leaves = np.arange(1, hub_degree + 1)
    edges = [np.stack([np.zeros_like(leaves), leaves], axis=1)]
    # Nodes below hub_degree // 2 stay leaves of the hub.
    core = rng.integers(hub_degree // 2, hub_degree + 40, size=(400, 2))
    edges.append(core[core[:, 0] != core[:, 1]])
    graph = Graph(n, np.concatenate(edges))  # nodes 340..359 stay isolated
    assert graph.degrees.max() >= 256 and (graph.degrees == 0).any() and (graph.degrees == 1).any()
    return graph


# The one-value param keeps these items' ids ("[ram-...]") stable.
@pytest.fixture(scope="module", params=["ram"])
def walk_graph():
    return hub_graph(11)


PQ_GRID = [(1e-9, 1.0), (0.25, 4.0), (4.0, 0.25), (1.0, 2.0), (2.0, 1e-9)]


class TestCarriedArcStep:
    def test_arc_id_is_csr_position(self, walk_graph):
        engine = WalkEngine(walk_graph)
        keys = engine.second_order_table(0.25, 4.0).arc_keys
        assert np.all(np.diff(keys) > 0)
        src = np.repeat(np.arange(walk_graph.num_nodes), walk_graph.degrees)
        assert np.array_equal(keys, src * walk_graph.num_nodes + walk_graph.csr_neighbours)

    @pytest.mark.parametrize("p,q", PQ_GRID)
    @pytest.mark.parametrize("walk_length", [1, 2, 3, 20])
    def test_walks_match_two_search_step(self, walk_graph, walk_length, p, q):
        engine = WalkEngine(walk_graph)
        assert engine.resolved_second_order(p, q) == "table"
        starts = np.random.default_rng(walk_length).permutation(
            np.tile(np.arange(walk_graph.num_nodes), 3)
        )
        got = engine.node2vec_walks(starts, walk_length, p=p, q=q, rng=np.random.default_rng(9))
        want = two_search_node2vec_walks(
            engine, starts, walk_length, p, q, np.random.default_rng(9)
        )
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("p,q", PQ_GRID)
    def test_segment_search_at_edges(self, walk_graph, p, q):
        # Targets sitting exactly on, just below and just past every entry of
        # each segment, and past its end: the clip to hi - 1 and the <= of the
        # side="right" search are both exercised, which random draws almost
        # never are.
        table = WalkEngine(walk_graph).second_order_table(p, q)
        arcs = np.arange(table.arc_keys.size)
        lo, hi = table.entry_offsets[arcs], table.entry_offsets[arcs + 1]
        arc_of = np.repeat(arcs, hi - lo)  # the segment each entry lies in
        cw = table.cum_weights
        for target, seg in (
            (table.base, arcs),
            (table.base + 0.5 * table.total, arcs),
            (cw, arc_of),
            (np.nextafter(cw, -np.inf), arc_of),
            (np.nextafter(cw, np.inf), arc_of),
            (cw + 1e9, arc_of),
        ):
            seg_lo, seg_hi = lo[seg], hi[seg]
            target = np.maximum(target, table.base[seg])  # the step's precondition
            want = np.clip(np.searchsorted(cw, target, side="right"), seg_lo, seg_hi - 1)
            got = WalkEngine._segment_search(cw, target, seg_lo, seg_hi)
            assert_same_bytes(got, want)


def one_shot_second_order_table(engine, p, q):
    """The table builder the chunked one replaced: every entry at once."""
    graph = engine.graph
    num_nodes = np.int64(graph.num_nodes)
    offsets, neighbours, degrees = graph.csr_offsets, graph.csr_neighbours, graph.degrees
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), degrees)
    dst = neighbours
    # CSR order makes these keys strictly increasing — no sort needed.
    arc_keys = src * num_nodes + dst

    counts = degrees[dst]
    entry_offsets = np.zeros(arc_keys.size + 1, dtype=np.int64)
    np.cumsum(counts, out=entry_offsets[1:])
    num_entries = int(entry_offsets[-1])
    entry_arc = np.repeat(np.arange(arc_keys.size, dtype=np.int64), counts)
    local = np.arange(num_entries, dtype=np.int64) - entry_offsets[entry_arc]
    candidates = neighbours[offsets[dst[entry_arc]] + local]
    prev_nodes = src[entry_arc]

    # Membership test "is (candidate, prev) an edge?" via binary search on
    # the sorted arc keys.
    cand_keys = candidates * num_nodes + prev_nodes
    pos = np.searchsorted(arc_keys, cand_keys)
    pos_clipped = np.minimum(pos, max(arc_keys.size - 1, 0))
    is_edge = (
        (pos < arc_keys.size) & (arc_keys[pos_clipped] == cand_keys)
        if arc_keys.size
        else np.zeros(0, dtype=bool)
    )

    weights = np.full(num_entries, 1.0 / q)
    weights[is_edge] = 1.0
    weights[candidates == prev_nodes] = 1.0 / p

    cum_weights = np.cumsum(weights)
    seg_end = cum_weights[entry_offsets[1:] - 1] if arc_keys.size else np.zeros(0)
    base = np.zeros_like(seg_end)
    base[1:] = seg_end[:-1]
    total = seg_end - base
    return walk_engine.SecondOrderTable(
        arc_keys=arc_keys,
        entry_offsets=entry_offsets,
        candidates=candidates,
        cum_weights=cum_weights,
        base=base,
        total=total,
    )


def table_graph(name):
    if name == "ppi":
        return load_dataset("ppi", scale=0.05)
    if name == "powerlaw-hubs":
        return powerlaw_cluster_graph(200, attachment=2, triangle_prob=0.3, rng=4)
    if name == "isolated":
        # A clustered core, then 15 isolated nodes before and after it.
        core = powerlaw_cluster_graph(60, attachment=3, triangle_prob=0.5, rng=2)
        return Graph(90, core.edges + 15)
    return Graph(6, np.zeros((0, 2), dtype=np.int64))  # edgeless


def assert_same_table(got, want):
    # The candidates are int32 now, int64 before: equal by value.
    assert got.candidates.dtype == np.int32
    assert np.array_equal(got.candidates, want.candidates)
    for field in ("arc_keys", "entry_offsets", "cum_weights", "base", "total"):
        assert_same_bytes(getattr(got, field), getattr(want, field))


class TestChunkedSecondOrderTable:
    # 1 puts every entry in its own chunk; 997 splits every non-empty graph
    # here into several chunks, mostly in the middle of an arc's segment.
    @pytest.mark.parametrize("chunk", [1, 997])
    @pytest.mark.parametrize("p,q", [(0.25, 4.0), (2.0, 0.5)])
    @pytest.mark.parametrize("name", ["ppi", "powerlaw-hubs", "isolated", "edgeless"])
    def test_matches_one_shot_build(self, monkeypatch, name, p, q, chunk):
        graph = table_graph(name)
        engine = WalkEngine(graph)
        want = one_shot_second_order_table(engine, p, q)
        monkeypatch.setattr(walk_engine, "_TABLE_CHUNK_ENTRIES", chunk)
        assert_same_table(engine.second_order_table(p, q), want)

    def test_default_chunks_at_workload_scale(self):
        # ppi at scale 3 (the node2vec benchmark's graph) spans about two
        # dozen default-sized chunks.
        engine = WalkEngine(load_dataset("ppi", scale=3.0))
        assert engine.second_order_entry_count() > 8 * walk_engine._TABLE_CHUNK_ENTRIES
        assert_same_table(
            engine.second_order_table(0.25, 4.0),
            one_shot_second_order_table(engine, 0.25, 4.0),
        )


# ---------------------------------------------------------------------------
# Skip-gram update path
# ---------------------------------------------------------------------------

def add_then_normalize(x, idx, rows, carry):
    """The ``index_add_`` + ``normalize_rows_`` pair ``add_rows_project_`` fuses."""
    be = NumpyBackend()
    be.index_add_(x, idx, rows, unique=True)
    return be.normalize_rows_(x, 1.0, (idx, carry))


def assert_fused_matches(x, idx, rows, carry):
    """``add_rows_project_`` against the pair of calls it fuses; returns the carry."""
    got, want = x.copy(), x.copy()
    got_carry = NumpyBackend().add_rows_project_(got, idx, rows, carry)
    want_carry = add_then_normalize(want, idx, rows, carry)
    assert got.tobytes() == want.tobytes()
    assert_same_bytes(got_carry, want_carry)
    return got_carry


def _ulps_from_one(k):
    x = 1.0
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, k))
    return float(x)


#: Row norms to aim for: exactly 1, a few ulps either side, well inside and
#: well outside the ball, and zero.
NEAR_ONE = [1.0, 0.0, 0.5, 2.0, 1e-300] + [_ulps_from_one(k) for k in (-3, -2, -1, 1, 2, 3)]
UPDATE_SCALES = [0.0, 1e-16, 1e-9, 1e-3, 1.0]
ROW_SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, -0.0]


@st.composite
def fused_cases(draw):
    dim = draw(st.sampled_from([1, 3, 17, 128]))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, dim))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    aims = np.array(draw(st.lists(st.sampled_from(NEAR_ONE), min_size=n, max_size=n)))
    x = x / norms * aims[:, None]
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        x[row] = 0.0
        x[row, rng.integers(dim)] = draw(st.sampled_from([1.0, -1.0]))  # norm exactly 1.0
    idx = np.array(draw(st.permutations(range(n)))[: draw(st.integers(0, n))], dtype=np.int64)
    rows = rng.normal(size=(idx.size, dim)) * draw(st.sampled_from(UPDATE_SCALES))
    for target in (x, rows):
        if target.size and draw(st.booleans()):
            flat = target.reshape(-1)
            spots = rng.integers(0, flat.size, size=draw(st.integers(1, 3)))
            flat[spots] = draw(st.sampled_from(ROW_SPECIALS))
    carry = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    return x, idx, rows, carry


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf / inf
class TestFusedAddProject:
    @settings(max_examples=400, deadline=None)
    @given(fused_cases())
    def test_matches_add_then_normalize(self, case):
        assert_fused_matches(*case)

    @pytest.mark.parametrize("dim", [1, 3, 17, 128])
    @pytest.mark.parametrize("carry", ["overlapping", "disjoint", "empty"])
    def test_carry_kinds(self, dim, carry):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(12, dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)  # on the sphere, +- ulps
        x[[2, 7, 9]] *= 3.0  # rows a previous update left outside the ball
        idx = np.array([9, 0, 4, 5, 11])
        carry_rows = {"overlapping": [2, 7, 9], "disjoint": [2, 7], "empty": []}[carry]
        rows = rng.normal(size=(idx.size, dim)) * 2.0
        assert_fused_matches(x, idx, rows, np.array(carry_rows, dtype=np.int64))

    @pytest.mark.parametrize("dim", [3, 17, 128])
    def test_carry_from_both_parts_is_sorted(self, dim):
        # Rows that stay a last-bit above norm 1 after their rescale, both
        # in idx and in carry \ idx, interleaved: the union must come back
        # sorted, as normalize_rows_ returns it.
        rng = np.random.default_rng(dim)
        x = 3.0 * rng.normal(size=(4000, dim))
        after = x / np.linalg.norm(x, axis=1, keepdims=True)
        x = x[np.linalg.norm(after, axis=1) > 1.0][:6]
        assert x.shape[0] == 6
        idx, carry = np.array([4, 0, 2]), np.array([1, 3, 5])
        assert assert_fused_matches(x, idx, np.zeros((3, dim)), carry).size == 6

    @pytest.mark.parametrize("dim", [1, 3, 17, 128])
    def test_empty_idx(self, dim):
        x = np.random.default_rng(1).normal(size=(5, dim)) * 3.0
        empty = np.zeros(0, dtype=np.int64)
        assert_fused_matches(x, empty, np.zeros((0, dim)), empty)
        assert_fused_matches(x, empty, np.zeros((0, dim)), np.array([1, 3]))

    def test_special_values(self):
        x = np.array([
            [np.nan, 0.0], [-np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0],
            [-0.0, -0.0], [0.0, -1.0], [0.6, 0.8], [3.0, 4.0],
        ])
        idx = np.arange(8)
        for rows in (np.zeros((8, 2)), np.full((8, 2), -0.0), np.full((8, 2), -np.nan),
                     np.full((8, 2), np.inf)):
            assert_fused_matches(x, idx, rows, np.zeros(0, dtype=np.int64))
            assert_fused_matches(x, idx[::2], rows[::2], idx[1::2])


def pair_scores_reference(model, pairs):
    """``SkipGramModel.pair_scores``: four gathers per batch, two per call."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return rowwise_dot(
        np.take(model.w_in, pairs[:, 0], axis=0), np.take(model.w_out, pairs[:, 1], axis=0)
    )


def batch_loss_reference(model, batch):
    """The ``batch_loss`` the single-gather helper replaced."""
    pos_scores = pair_scores_reference(model, batch.positive_edges)
    neg_scores = pair_scores_reference(model, batch.negative_pairs)
    objective = log_sigmoid(pos_scores).sum() + log_sigmoid(-neg_scores).sum()
    return -objective / max(1, batch.batch_size)


def accumulate_gradients_reference(model, batch):
    """The ``_accumulate_gradients`` the single-gather helper replaced:
    scores again, then gathers the gradient rows a third time."""
    be = model.backend_
    pos, neg = batch.positive_edges, batch.negative_pairs
    pos_coeff = 1.0 - sigmoid(pair_scores_reference(model, pos))
    neg_coeff = -sigmoid(pair_scores_reference(model, neg))
    pairs = np.concatenate([pos, neg])
    split = pos.shape[0]
    grads = []
    for side, other in ((0, model.w_out), (1, model.w_in)):
        touched, slots = np.unique(pairs[:, side], return_inverse=True)
        rows = np.take(other, pairs[:, 1 - side], axis=0)
        rows[:split] *= pos_coeff[:, None]
        rows[split:] *= neg_coeff[:, None]
        grads += [be.segment_sum(slots, rows, touched.shape[0]), touched]
    return tuple(grads)


def sgm_model(dim, batch_size, negatives, seed=0):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, 60, size=(300, 2))
    graph = Graph(60, edges[edges[:, 0] != edges[:, 1]])
    config = SkipGramConfig(embedding_dim=dim, batch_size=batch_size, num_negatives=negatives)
    model = SkipGramModel(graph, config, rng=seed)
    # Rows of mixed size, so scores and coefficients span the sigmoid.
    model.w_in *= rng.uniform(0.1, 30.0, size=(60, 1))
    model.w_out *= rng.uniform(0.1, 30.0, size=(60, 1))
    return model


GATHER_CASES = [(1, 1, 1), (3, 3, 5), (7, 5, 2), (17, 13, 3), (128, 9, 5), (5, 64, 1)]


class TestSingleGatherStep:
    # The ids name the negatives drawn, uniform ones.
    @pytest.mark.parametrize("dim,batch_size,negatives", GATHER_CASES,
                             ids=[f"{d}-{b}-{k}-uniform" for d, b, k in GATHER_CASES])
    def test_matches_two_scoring_passes(self, dim, batch_size, negatives):
        # Odd dims and batch sizes put the pos/neg split of the gathered
        # block at offsets that are not a multiple of any SIMD width.
        model = sgm_model(dim, batch_size, negatives, seed=dim + batch_size)
        for _ in range(3):
            batch = model.sampler.sample()
            want_loss = batch_loss_reference(model, batch)
            want = accumulate_gradients_reference(model, batch)
            loss, *got = model._loss_and_gradients(batch)
            assert_same_bytes(np.asarray(loss), np.asarray(want_loss))
            assert_same_bytes(np.asarray(model.batch_loss(batch)), np.asarray(want_loss))
            for g, w in zip(got, want):
                assert_same_bytes(g, w)
            model.train_step(batch)

    def test_train_step_matches_separate_add_and_normalize(self):
        # The whole exact step against the code it replaced: the reference
        # loss and gradients, ``lr * grad`` added with index_add_, then
        # normalize_rows_ over the touched rows and the carry.
        model, ref = sgm_model(17, 13, 3, seed=4), sgm_model(17, 13, 3, seed=4)
        lr = model.config.learning_rate = 5.0  # leaves rows outside the ball
        be = NumpyBackend()
        ref_in, ref_out, ref_carry = ref.w_in, ref.w_out, ref._carry
        carried = 0
        for _ in range(8):
            batch = model.sampler.sample()
            want_loss = batch_loss_reference(ref, batch)
            grad_in, touched_in, grad_out, touched_out = accumulate_gradients_reference(ref, batch)
            be.index_add_(ref_in, touched_in, lr * grad_in, unique=True)
            be.index_add_(ref_out, touched_out, lr * grad_out, unique=True)
            ref_carry = tuple(
                be.normalize_rows_(matrix, 1.0, (touched, carry))
                for matrix, touched, carry in zip(
                    (ref_in, ref_out), (touched_in, touched_out), ref_carry
                )
            )
            loss = model.train_step(batch)
            assert_same_bytes(np.asarray(loss), np.asarray(want_loss))
            assert model.w_in.tobytes() == ref_in.tobytes()
            assert model.w_out.tobytes() == ref_out.tobytes()
            for got, want in zip(model._carry, ref_carry):
                assert_same_bytes(got, want)
            carried += sum(c.size for c in ref_carry)
        assert carried > 0


# ---------------------------------------------------------------------------
# One skip-gram pair gradient and one DP-SGD row step
# ---------------------------------------------------------------------------


def two_formula_pair_gradients(vi, vj, num_positive, s_fn):
    """The per-site formula ``pair_gradients`` replaced: positives and
    negatives scored apart, each side's gradient a fresh product."""
    parts = []
    for rows, positive in ((slice(None, num_positive), True), (slice(num_positive, None), False)):
        a, b = vi[rows], vj[rows]
        scores = rowwise_dot(a, b)
        s = s_fn(scores)
        coeff = (1.0 - s) if positive else -s
        parts.append((scores, s, coeff[:, None] * b, coeff[:, None] * a))
    return tuple(np.concatenate(column) for column in zip(*parts))


PAIR_SIGMOIDS = {
    "plain": sigmoid,
    "constrained": ConstrainedSigmoid(),
    "narrow": ConstrainedSigmoid(0.5, 2.0),
}


@st.composite
def pair_gradient_cases(draw):
    n = draw(st.integers(0, 12))
    dim = draw(st.integers(1, 9))
    rows = hnp.arrays(np.float64, (n, dim), elements=st.floats(-40.0, 40.0, width=64))
    num_positive = draw(st.sampled_from([0, n, n // 2]) | st.integers(0, n))
    return draw(rows), draw(rows), num_positive


class TestPairGradients:
    @pytest.mark.parametrize("name", sorted(PAIR_SIGMOIDS))
    @settings(max_examples=150, deadline=None)
    @given(case=pair_gradient_cases())
    def test_matches_two_formulas(self, name, case):
        vi, vj, num_positive = case
        want = two_formula_pair_gradients(vi, vj, num_positive, PAIR_SIGMOIDS[name])
        got = functional.pair_gradients(vi, vj, num_positive, PAIR_SIGMOIDS[name])
        for g, w in zip(got, want):
            assert_same_bytes(g, w)
        # The gradients are the gathered rows, scaled in place.
        assert got[2] is vj and got[3] is vi


def dpsgm_pair_gradients_reference(self, pairs, positive):
    """``DPSGM._pair_gradients`` before ``pair_gradients``, verbatim."""
    vi = np.take(self.w_in, pairs[:, 0], axis=0)
    vj = np.take(self.w_out, pairs[:, 1], axis=0)
    scores = rowwise_dot(vi, vj)
    sig = sigmoid(scores)
    coeff = (1.0 - sig) if positive else -sig
    return coeff[:, None] * vj, coeff[:, None] * vi


def dpsgm_dpsgd_update_reference(self, pairs, positive):
    """``DPSGM._dpsgd_update`` before ``dpsgd_row_step``, verbatim but for the
    charge, whose rate the privacy handle picks now."""
    cfg = self.config
    be = self.backend_
    count = pairs.shape[0]
    grad_in, grad_out = self._pair_gradients(pairs, positive)
    grad_in = clip_rows_by_l2_norm(grad_in, cfg.clip_norm)
    grad_out = clip_rows_by_l2_norm(grad_out, cfg.clip_norm)
    noise_std = count * cfg.clip_norm * cfg.noise_multiplier
    noise_in = be.gaussian(self._noise_rng, 0.0, noise_std, tuple(grad_in.shape))
    noise_out = be.gaussian(self._noise_rng, 0.0, noise_std, tuple(grad_out.shape))
    update_in = (grad_in + noise_in / count) * (cfg.learning_rate / count)
    update_out = (grad_out + noise_out / count) * (cfg.learning_rate / count)
    be.index_add_(self.w_in, pairs[:, 0], update_in)
    be.index_add_(self.w_out, pairs[:, 1], update_out)
    self.budget.charge(positive)


def dpasgm_pair_gradients_reference(self, pairs, positive):
    """``DPASGM._pair_gradients`` before ``pair_gradients``, verbatim but for
    ``super()``, which names the DPSGM reference above; it gathers the
    pairs' rows twice."""
    grad_in, grad_out = dpsgm_pair_gradients_reference(self, pairs, positive)
    cfg = self.config
    count = pairs.shape[0]
    fake_vj, fake_vi = self.generators.generate_pairs(count)
    vi = np.take(self.w_in, pairs[:, 0], axis=0)
    vj = np.take(self.w_out, pairs[:, 1], axis=0)
    f1 = sigmoid(rowwise_dot(vi, fake_vj))
    f2 = sigmoid(rowwise_dot(fake_vi, vj))
    grad_in = grad_in + cfg.adversarial_weight * f1[:, None] * fake_vj
    grad_out = grad_out + cfg.adversarial_weight * f2[:, None] * fake_vi
    return (
        clip_rows_by_l2_norm(grad_in, cfg.clip_norm),
        clip_rows_by_l2_norm(grad_out, cfg.clip_norm),
    )


def dpggan_discriminator_step_reference(self):
    """``DPGGAN._discriminator_step`` before the shared kernels, verbatim."""
    cfg = self.config
    be = self.backend_
    batch = self.sampler.sample()
    pairs = batch.positive_edges
    count = pairs.shape[0]
    zi = np.take(self.latent, pairs[:, 0], axis=0)
    zj = np.take(self.latent, pairs[:, 1], axis=0)
    fake = self._generate_fake(count)

    real_scores = sigmoid(rowwise_dot(zi, zj))
    fake_scores = sigmoid(rowwise_dot(zi, fake))
    grad_zi = (1.0 - real_scores)[:, None] * zj - fake_scores[:, None] * fake
    grad_zj = (1.0 - real_scores)[:, None] * zi
    grad_zi = clip_rows_by_l2_norm(grad_zi, cfg.clip_norm)
    grad_zj = clip_rows_by_l2_norm(grad_zj, cfg.clip_norm)

    noise_std = count * cfg.clip_norm * cfg.noise_multiplier
    noise_i = be.gaussian(self._noise_rng, 0.0, noise_std, tuple(grad_zi.shape))
    noise_j = be.gaussian(self._noise_rng, 0.0, noise_std, tuple(grad_zj.shape))
    lr = cfg.learning_rate / count
    be.index_add_(self.latent, pairs[:, 0], lr * (grad_zi + noise_i / count))
    be.index_add_(self.latent, pairs[:, 1], lr * (grad_zj + noise_j / count))
    self.accountant.step(self.sampler.edge_sampling_probability)


def dp_fit_state(model):
    """Released embeddings, second matrix, generator weights and history."""
    arrays = [model.embeddings]
    for attr in ("w_out", "generator_weight"):
        if hasattr(model, attr):
            arrays.append(getattr(model, attr))
    generators = getattr(model, "generators", None)
    if generators is not None:
        arrays += [generators.generator_j.theta, generators.generator_i.theta]
    for _, values in sorted(model.history.series.items()):
        arrays.append(np.array(values))
    return arrays


DP_STEP_REFERENCES = {
    "dpsgm": [
        (DPSGM, "_pair_gradients", dpsgm_pair_gradients_reference),
        (DPSGM, "_dpsgd_update", dpsgm_dpsgd_update_reference),
    ],
    "dpasgm": [
        (DPSGM, "_dpsgd_update", dpsgm_dpsgd_update_reference),
        (DPASGM, "_pair_gradients", dpasgm_pair_gradients_reference),
    ],
    "dpggan": [(DPGGAN, "_discriminator_step", dpggan_discriminator_step_reference)],
}


class TestSharedDpSteps:
    @pytest.mark.parametrize("model", sorted(DP_STEP_REFERENCES))
    @pytest.mark.parametrize("seed", [3, 4])
    # At lr 0.1 DPSGM's row step never clips; at lr 2 it clips about 40% of
    # the rows.  The odd dim keeps the scatter off its complex128 pair form.
    @pytest.mark.parametrize("learning_rate", [0.1, 2.0])
    def test_fit_matches_own_step(self, small_graph, monkeypatch, model, seed, learning_rate):
        overrides = dict(num_epochs=3, batches_per_epoch=4, batch_size=16,
                         embedding_dim=15, learning_rate=learning_rate)
        got = make_model(model, graph=small_graph, rng=seed, epsilon=8.0, **overrides).fit()
        for owner, name, reference in DP_STEP_REFERENCES[model]:
            monkeypatch.setattr(owner, name, reference)
        want = make_model(model, graph=small_graph, rng=seed, epsilon=8.0, **overrides).fit()
        got_state, want_state = dp_fit_state(got), dp_fit_state(want)
        assert len(got_state) == len(want_state) >= 3
        assert np.isfinite(got.embeddings).all()
        for g, w in zip(got_state, want_state):
            assert_same_bytes(g, w)


def one_pass_scores(pairs, left, right):
    """The score of every pair from one gather per side (before the blocks)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return rowwise_dot(np.take(left, pairs[:, 0], axis=0), np.take(right, pairs[:, 1], axis=0))


@st.composite
def score_cases(draw):
    """Pair counts on and beside multiples of the block, at dims 1-129."""
    block = draw(st.sampled_from([1, 7, 4096, 16384]))
    dim = draw(st.integers(1, 16 if block > 4096 else 129))
    count = max(0, draw(st.integers(0, 2)) * block + draw(st.integers(-1, 1)))
    return block, dim, count, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


class TestBlockPairScores:
    @settings(max_examples=100, deadline=None)
    @given(score_cases())
    def test_matches_one_pass(self, case):
        block, dim, count, seed, shared = case
        rng = np.random.default_rng(seed)
        left = rng.normal(size=(50, dim)) * rng.uniform(0.1, 30.0, size=(50, 1))
        right = left if shared else rng.normal(size=(50, dim))
        pairs = rng.integers(0, 50, size=(count, 2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(functional, "PAIR_SCORE_BLOCK", block)
            got = score_pairs(pairs, left, None if shared else right)
        assert_same_bytes(got, one_pass_scores(pairs, left, right))

    def test_model_scores_match_one_pass(self):
        # 9,000 pairs span three blocks of the real size.
        model = sgm_model(17, 13, 3, seed=8)
        pairs = np.random.default_rng(1).integers(0, 60, size=(9000, 2))
        assert_same_bytes(model.pair_scores(pairs), one_pass_scores(pairs, model.w_in, model.w_out))
        assert_same_bytes(model.score_edges(pairs), one_pass_scores(pairs, model.w_in, model.w_in))


def sample_non_edges_reference(graph, count, rng, forbidden):
    """The scalar ``_sample_non_edges`` loop the block sampler replaced;
    ``forbidden`` is a set of ``(u, v)`` tuples."""
    non_edges = []
    seen = set()
    max_attempts = 200 * count + 1000
    attempts = 0
    while len(non_edges) < count and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(0, graph.num_nodes))
        v = int(rng.integers(0, graph.num_nodes))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or key in forbidden:
            continue
        seen.add(key)
        non_edges.append(key)
    if len(non_edges) < count:
        raise RuntimeError(
            "could not sample enough non-edges; the graph may be too dense"
        )
    return np.array(non_edges, dtype=np.int64)


def split_reference(graph, test_fraction, rng):
    """``train_test_split_edges`` composed with the scalar loop above."""
    edges = graph.edges
    num_edges = edges.shape[0]
    num_test = max(1, int(round(num_edges * test_fraction)))
    perm = rng.permutation(num_edges)
    test_edges, train_edges = edges[perm[:num_test]], edges[perm[num_test:]]
    forbidden = graph.edge_set()
    test_negatives = sample_non_edges_reference(graph, num_test, rng, forbidden)
    train_negatives = sample_non_edges_reference(
        graph, train_edges.shape[0], rng, forbidden | {tuple(e) for e in map(tuple, test_negatives)}
    )
    train_graph = graph.subgraph_with_edges(train_edges)
    return train_graph.edges, train_edges, test_edges, train_negatives, test_negatives


def outcome(fn, *args):
    """``(result, error message)`` of ``fn(*args)``; one of them is ``None``."""
    try:
        return fn(*args), None
    except RuntimeError as err:
        return None, str(err)


def assert_same_draws(seed, call, reference):
    """Both callables, each on a fresh generator from ``seed``, return the
    same arrays (or raise the same error) and leave the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_error = outcome(call, rng)
    want, want_error = outcome(reference, ref_rng)
    assert got_error == want_error
    if want_error is None:
        for a, b in zip(got if isinstance(got, tuple) else (got,),
                        want if isinstance(want, tuple) else (want,)):
            assert_same_bytes(a, b)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return want_error


@st.composite
def non_edge_cases(draw):
    """A node count, stored edge rows (in some cases half of them as
    ``(max, min)``, which forbid nothing) and a count that may be reachable
    only after many rejections, or not at all."""
    n = draw(st.integers(2, 24))
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.8, 0.95, 1.0]))
    mask_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = pairs[mask_rng.random(len(pairs)) < density]
    flip = mask_rng.random(len(stored)) < draw(st.sampled_from([0.0, 0.5]))
    stored[flip] = stored[flip][:, ::-1]
    free = len(pairs) - int((~flip).sum())  # stored (max, min) rows forbid nothing
    count = draw(st.integers(0, free + 2))
    return n, stored, count, draw(st.integers(0, 2**32 - 1))


class TestBlockNonEdgeSampler:
    @staticmethod
    def check(n, stored, count, seed, graph=None):
        graph = graph if graph is not None else Graph(n, [])
        forbidden = {(int(u), int(v)) for u, v in stored}
        return assert_same_draws(
            seed,
            lambda rng: _sample_non_edges(graph, count, rng, _edge_keys(stored, n)),
            lambda rng: sample_non_edges_reference(graph, count, rng, forbidden),
        )

    @settings(max_examples=300, deadline=None)
    @given(non_edge_cases())
    def test_matches_scalar_loop(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tiny_graphs(self, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        errors = 0
        for num_edges in range(len(pairs) + 1):
            stored = np.array(pairs[:num_edges], dtype=np.int64).reshape(-1, 2)
            for count in range(len(pairs) - num_edges + 2):
                for seed in range(3):
                    errors += self.check(n, stored, count, seed) is not None
        assert errors > 0

    @pytest.mark.parametrize("n,missing", [(12, 1), (20, 3), (30, 5), (40, 8)])
    def test_near_complete(self, n, missing):
        # Every non-edge must be found; the last one takes about n * n / 2
        # draws, so the larger cases finish only after several blocks (or
        # run out of attempts).  One pair more than are free runs the whole
        # attempt cap, over several blocks, into the error.
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
        rng = np.random.default_rng(n)
        stored = np.delete(pairs, rng.choice(len(pairs), missing, replace=False), axis=0)
        found = 0
        for seed in range(4):
            found += self.check(n, stored, missing, seed) is None
            assert self.check(n, stored, missing + 1, seed) is not None
        assert found > 0

    @pytest.mark.parametrize("n", [2000, 65_537, 2**31 + 5, 3_000_000_000])
    def test_large_node_counts(self, n):
        # Only ``num_nodes`` is read, so the node count can exceed any graph
        # this host could hold; 3e9 is near the int64 key limit.
        graph = SimpleNamespace(num_nodes=n)
        stored = np.array([[0, 1], [5, 3], [n - 2, n - 1]], dtype=np.int64)
        for count in (1, 7, 500):
            self.check(n, stored, count, count, graph=graph)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(4, 40),
        st.floats(0.05, 0.9),
        st.sampled_from([0.1, 0.3, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def test_whole_split(self, n, density, test_fraction, seed):
        rng = np.random.default_rng(seed)
        edges = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
        edges = edges[rng.random(len(edges)) < density]
        if len(edges) < 2:
            edges = np.array([[0, 1], [1, 2]])
        graph = Graph(n, edges)

        def split(rng):
            s = train_test_split_edges(graph, test_fraction, rng)
            return (s.train_graph.edges, s.train_edges, s.test_edges,
                    s.train_negatives, s.test_negatives)

        assert_same_draws(seed, split, lambda rng: split_reference(graph, test_fraction, rng))


def head_reference(
    *, graph, features, weight, num_epochs, batch_size, learning_rate, history, rng,
    test_fraction=0.1, callbacks=(),
):
    """The ``fit_link_prediction_head`` that projected all N nodes per step."""
    split = train_test_split_edges(graph, test_fraction=test_fraction, rng=rng)
    pos = split.train_edges
    neg = split.train_negatives
    pairs = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

    steps_per_epoch = max(1, -(-pairs.shape[0] // batch_size))
    epoch_state = {"order": None}

    def step(epoch, step_idx):
        if step_idx == 0:
            epoch_state["order"] = rng.permutation(pairs.shape[0])
        idx = epoch_state["order"][step_idx * batch_size : (step_idx + 1) * batch_size]
        batch_pairs = pairs[idx]
        batch_labels = labels[idx]
        emb = features @ weight
        zi = np.take(emb, batch_pairs[:, 0], axis=0)
        zj = np.take(emb, batch_pairs[:, 1], axis=0)
        probs = sigmoid(rowwise_dot(zi, zj))
        residual = (probs - batch_labels)[:, None]
        feats_i = np.take(features, batch_pairs[:, 0], axis=0)
        feats_j = np.take(features, batch_pairs[:, 1], axis=0)
        grad_weight = (
            feats_i.T @ (residual * zj) + feats_j.T @ (residual * zi)
        ) / batch_pairs.shape[0]
        weight[...] = weight - learning_rate * grad_weight
        return float(
            np.mean(
                -(batch_labels * np.log(probs + 1e-12)
                  + (1 - batch_labels) * np.log(1 - probs + 1e-12))
            )
        )

    def epoch_end(epoch, losses):
        history.record("loss", sum(losses))

    return TrainingLoop(num_epochs, steps_per_epoch, callbacks=callbacks).run(step, epoch_end)


def dpgvae_step_reference(self):
    """The ``DPGVAE._train_step`` that projected all N nodes per step."""
    cfg = self.config
    be = self.backend_
    batch = self.sampler.sample()
    pos = batch.positive_edges
    neg = batch.negative_pairs
    pairs = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

    emb = self._latent_means()
    zi = np.take(emb, pairs[:, 0], axis=0)
    zj = np.take(emb, pairs[:, 1], axis=0)
    probs = sigmoid(rowwise_dot(zi, zj))
    residual = (probs - labels)[:, None]
    agg_i = np.take(self._aggregated, pairs[:, 0], axis=0)
    agg_j = np.take(self._aggregated, pairs[:, 1], axis=0)
    grad_weight = agg_i.T @ (residual * zj) + agg_j.T @ (residual * zi)
    grad_weight /= pairs.shape[0]
    grad_weight += cfg.kl_weight * self.weight_mu

    clipped = clip_by_l2_norm(grad_weight, cfg.clip_norm)
    noise_std = pairs.shape[0] * cfg.clip_norm * cfg.noise_multiplier
    noise = be.gaussian(self._noise_rng, 0.0, noise_std, tuple(clipped.shape))
    self.weight_mu -= cfg.learning_rate * (clipped + noise / pairs.shape[0])
    self.accountant.step(self.sampler.edge_sampling_probability)


def assert_same_weights(got, want):
    """Byte-equal; within rtol 1e-12 of the array's scale on hosts whose BLAS
    the golden digests are compared relaxed on (``REPRO_GOLDEN_RELAXED``)."""
    if RELAXED:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    else:
        assert_same_bytes(got, want)


def head_batch_size(graph, last):
    """A batch size whose epoch of head pairs ends with ``last`` pairs."""
    num_test = max(1, int(round(graph.num_edges * 0.1)))
    num_pairs = 2 * (graph.num_edges - num_test)
    if last == 0:
        return 1
    return next(b for b in range(3, num_pairs) if num_pairs % b == last)


class TestRowProjectedSteps:
    @pytest.mark.parametrize("model", ["gap", "dpar"])
    @pytest.mark.parametrize("last", [0, 1, 2, None])
    def test_head_matches_full_projection(self, small_graph, monkeypatch, model, last):
        # ``last=0``: every batch is one pair; ``1``/``2``: the epoch's final
        # batch has one/two pairs; ``None``: the registry's batch size.
        overrides = dict(num_epochs=2)
        if last is not None:
            overrides["batch_size"] = head_batch_size(small_graph, last)
        got = make_model(model, graph=small_graph, rng=3, epsilon=4.0, **overrides).fit()
        module = importlib.import_module(f"repro.baselines.{model}")
        monkeypatch.setattr(module, "fit_link_prediction_head", head_reference)
        want = make_model(model, graph=small_graph, rng=3, epsilon=4.0, **overrides).fit()
        assert_same_weights(got.weight, want.weight)
        assert_same_weights(got.embeddings_, want.embeddings_)
        assert_same_weights(np.array(got.history.get("loss")), np.array(want.history.get("loss")))

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 128])
    def test_dpgvae_step_matches_full_projection(self, small_graph, monkeypatch, batch_size):
        overrides = dict(batch_size=batch_size, num_epochs=3, batches_per_epoch=4)
        got = make_model("dpgvae", graph=small_graph, rng=5, epsilon=6.0, **overrides).fit()
        monkeypatch.setattr(DPGVAE, "_train_step", dpgvae_step_reference)
        want = make_model("dpgvae", graph=small_graph, rng=5, epsilon=6.0, **overrides).fit()
        assert_same_weights(got.weight_mu, want.weight_mu)
        assert_same_weights(got.embeddings_, want.embeddings_)


# ---------------------------------------------------------------------------
# Cold-start ports of scipy.stats.rankdata and scipy.special.logsumexp
# ---------------------------------------------------------------------------

RANK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]),  # ties
    st.floats(allow_nan=False),
    st.sampled_from([np.nan]),
)


class TestAverageRanks:
    @settings(max_examples=400, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 500), elements=RANK_VALUES))
    def test_matches_rankdata(self, x):
        assert_same_bytes(average_ranks(x), scipy.stats.rankdata(x))

    @pytest.mark.parametrize("x", [
        [0.0, -0.0, 0.0, -0.0],
        [np.inf, -np.inf, 0.0, np.inf, -np.inf],
        [1.0, np.nan, 0.0],
        [np.nan],
        [3.0],
        [5e-324, -5e-324, 0.0, 1e308, -1e308],
    ])
    def test_edge_values(self, x):
        x = np.array(x)
        assert_same_bytes(average_ranks(x), scipy.stats.rankdata(x))


def scipy_logsumexp(a):
    return float(scipy.special.logsumexp(a))


LSE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 3.5, -np.inf]),  # repeated maxima, -inf
    st.floats(-800.0, 800.0),
    st.floats(),
)


class TestLogSumExp:
    @settings(max_examples=400, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 80), elements=LSE_VALUES))
    def test_matches_scipy(self, a):
        assert same_float(logsumexp(a), scipy_logsumexp(a))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 63), elements=st.one_of(
        st.floats(-2000.0, 50.0), st.sampled_from([0.0, -np.inf]))))
    def test_accountant_shaped_terms(self, tail):
        # ``subsampled_rdp``'s terms: the leading ``1 +`` as 0.0, then one
        # log-term per j = 2..alpha.
        a = np.concatenate(([0.0], tail))
        assert same_float(logsumexp(a), scipy_logsumexp(a))

    @pytest.mark.parametrize("a", [
        [0.0, 0.0, 0.0],
        [2.0, -np.inf, 2.0, 1.0],
        [-np.inf, -np.inf],
        [np.inf, 1.0, np.inf],
        [np.nan, 0.0],
        [1e308, 1e308],
        [-1e308, -1e308, -np.inf],
    ])
    def test_edge_values(self, a):
        a = np.array(a)
        assert same_float(logsumexp(a), scipy_logsumexp(a))

    @pytest.mark.parametrize("rate", [8 / 7964, 0.01, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 5.0, 12.0])
    def test_accountant_curves_match_scipy(self, monkeypatch, rate, sigma):
        got = RdpAccountant(sigma)._per_step_curve(rate)
        monkeypatch.setattr(subsampling, "logsumexp", scipy_logsumexp)
        want = RdpAccountant(sigma)._per_step_curve(rate)
        assert_same_bytes(got, want)
