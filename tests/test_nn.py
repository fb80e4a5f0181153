"""Tests for the NumPy neural-network substrate."""

import numpy as np
import pytest

from repro.nn.constrained_sigmoid import ConstrainedSigmoid, exponential_clip
from repro.nn.functional import log_sigmoid, sigmoid
from repro.nn.init import normal_init, uniform_embedding, xavier_uniform


class TestFunctional:
    def test_sigmoid_basic_values(self):
        assert sigmoid(np.array(0.0)) == pytest.approx(0.5)
        assert sigmoid(np.array(100.0)) == pytest.approx(1.0)
        assert sigmoid(np.array(-100.0)) == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_no_overflow(self):
        values = sigmoid(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(values))

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-20, 20, 41)
        assert np.allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-10)

    def test_log_sigmoid_stable_for_large_negative(self):
        assert np.isfinite(log_sigmoid(np.array(-1000.0)))


class TestExponentialClip:
    def test_values_near_bounds(self):
        out = exponential_clip(np.array([0.5, 150.0]), 1.0, 100.0)
        assert out[0] >= 1.0 - 1e-6
        assert out[1] <= 100.0 + 1e-6

    def test_interior_values_approximately_identity(self):
        out = exponential_clip(np.array([50.0]), 1.0, 100.0)
        assert out[0] == pytest.approx(50.0, rel=0.2)

    def test_one_sided_clipping(self):
        lower_only = exponential_clip(np.array([-5.0]), 0.0, None)
        assert lower_only[0] >= 0.0
        upper_only = exponential_clip(np.array([500.0]), None, 10.0)
        assert upper_only[0] <= 10.0 + 1e-9

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            exponential_clip(np.array([1.0]), 5.0, 1.0)


class TestConstrainedSigmoid:
    def test_output_range(self):
        s = ConstrainedSigmoid(a=1e-5, b=120.0)
        x = np.linspace(-100, 100, 201)
        values = s(x)
        lo, hi = s.output_range
        assert np.all(values >= lo - 1e-9)
        assert np.all(values <= hi + 1e-9)

    def test_monotone_nondecreasing(self):
        s = ConstrainedSigmoid(a=1e-5, b=120.0)
        x = np.linspace(-30, 30, 301)
        values = s(x)
        assert np.all(np.diff(values) >= -1e-9)

    def test_inverse_weight_bounds(self):
        s = ConstrainedSigmoid(a=1e-5, b=120.0)
        x = np.linspace(-50, 50, 101)
        weights = s.inverse_weight(x)
        assert np.all(weights >= 1.0 + 1e-5 - 1e-9)
        assert np.all(weights <= 1.0 + 120.0 + 1e-6)

    def test_matches_sigmoid_in_midrange(self):
        s = ConstrainedSigmoid(a=1e-5, b=120.0)
        x = np.array([-1.0, 0.0, 1.0])
        assert np.allclose(s(x), sigmoid(x), atol=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConstrainedSigmoid(a=0.0, b=1.0)
        with pytest.raises(ValueError):
            ConstrainedSigmoid(a=2.0, b=1.0)


class TestInit:
    def test_xavier_range(self):
        w = xavier_uniform((50, 100), rng=0)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert w.shape == (50, 100)

    def test_xavier_requires_2d(self):
        with pytest.raises(ValueError):
            xavier_uniform((10,))

    def test_uniform_embedding_scale(self):
        emb = uniform_embedding(20, 64, rng=0)
        assert np.all(np.abs(emb) <= 0.5 / 64)

    def test_uniform_embedding_validation(self):
        with pytest.raises(ValueError):
            uniform_embedding(0, 4)

    def test_normal_init_std(self):
        w = normal_init((2000,), std=0.5, rng=0)
        assert np.std(w) == pytest.approx(0.5, rel=0.1)
        with pytest.raises(ValueError):
            normal_init((3,), std=0.0)
