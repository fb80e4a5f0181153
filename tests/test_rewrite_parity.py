"""Byte-equality of AdvSGM's per-substep kernels against the code they replaced.

The branch-free ``stable_sigmoid``, the array-backed ``RdpAccountant``, the
generator's cached activation and the dispatch-free row clipping are
rewrites for speed that must not move a single bit.  Each test keeps the
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

from repro.backend.numpy_backend import SIGMOID_CLIP, stable_sigmoid
from repro.core.generator import FakeNeighbourGenerator
from repro.privacy.accountant import PrivacySpent, RdpAccountant
from repro.privacy.clipping import clip_rows_by_l2_norm
from repro.privacy.composition import DEFAULT_RDP_ORDERS, rdp_to_dp
from repro.privacy.subsampling import subsampled_gaussian_rdp
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
