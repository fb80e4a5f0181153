"""Byte-equality of rewritten hot kernels against the code they replaced.

AdvSGM's per-substep kernels (the branch-free ``stable_sigmoid``, the
array-backed ``RdpAccountant``, the generator's cached activation and the
dispatch-free row clipping) and the DeepWalk/node2vec path's kernels (the
flat scatter in ``NumpyBackend.index_add_``, the ``np.take`` gathers and the
node2vec table step that carries its arc and searches only its own segment)
are rewrites for speed that must not move a single bit.  Each test keeps the
replaced implementation as a reference and compares the two on the same
host, so these checks are strict everywhere (unlike the golden digests,
which hosted CI compares relaxed).
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.backend.numpy_backend import SIGMOID_CLIP, NumpyBackend, stable_sigmoid
from repro.core.generator import FakeNeighbourGenerator
from repro.graph.graph import Graph
from repro.graph.walk_engine import WalkEngine
from repro.privacy.accountant import PrivacySpent, RdpAccountant
from repro.privacy.clipping import clip_rows_by_l2_norm
from repro.privacy.composition import DEFAULT_RDP_ORDERS, rdp_to_dp
from repro.privacy.subsampling import subsampled_gaussian_rdp
from repro.train import ArrayPairSource
from repro.train.budget import PrivacyBudget


def masked_sigmoid(x):
    """The boolean-mask sigmoid ``stable_sigmoid`` replaced."""
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
        assert_same_bytes(stable_sigmoid(x), masked_sigmoid(x))
        for value in self.EDGES:
            assert_same_bytes(stable_sigmoid(np.array([value])), masked_sigmoid([value]))

    @pytest.mark.parametrize("x", [0.5, -3.0, np.float64(-0.0), np.float64(np.nan), [], np.zeros((0, 4))])
    def test_zero_d_and_empty(self, x):
        assert_same_bytes(stable_sigmoid(x), masked_sigmoid(x))

    def test_strided_block(self):
        x = np.random.default_rng(0).normal(size=(40, 128)) * 30.0
        x[::7, ::3] = np.nan
        assert_same_bytes(stable_sigmoid(x.T), masked_sigmoid(x.T))

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=70),
                   elements=st.floats(-1.0, 1.0)),
        st.floats(-3.0, 4.0),
    )
    def test_random_scales(self, unit, log_scale):
        x = unit * 10.0 ** log_scale
        assert_same_bytes(stable_sigmoid(x), masked_sigmoid(x))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 70)))
    def test_any_float64(self, x):
        assert_same_bytes(stable_sigmoid(x), masked_sigmoid(x))


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
        be = NumpyBackend()
        for idx in (
            rng.integers(-50, 50, size=64),  # 1-D, with negatives
            rng.integers(0, 50, size=(16, 5)),  # (B, k) negatives
            pairs[:, 0],  # strided int32 column view
            np.zeros(0, dtype=np.int64),
        ):
            self.assert_same_copy(be.gather(x, idx), x, idx)

    def test_wide_rows(self):
        x = np.random.default_rng(1).normal(size=(40, 128))
        idx = np.array([3, 3, 39, 0, -1])
        self.assert_same_copy(NumpyBackend().gather(x, idx), x, idx)

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


@pytest.fixture(scope="module", params=["ram", "mmap"])
def walk_graph(request, tmp_path_factory):
    graph = hub_graph(11)
    if request.param == "mmap":
        graph = Graph.open(graph.save(tmp_path_factory.mktemp("hub") / "graph"))
    return graph


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
        starts = np.random.default_rng(walk_length).permutation(
            np.tile(np.arange(walk_graph.num_nodes), 3)
        )
        got = engine.node2vec_walks(
            starts, walk_length, p=p, q=q, rng=np.random.default_rng(9), second_order="table"
        )
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
