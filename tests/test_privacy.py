"""Tests for the differential-privacy substrate."""

import numpy as np
import pytest

from repro.privacy.accountant import RdpAccountant
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm
from repro.privacy.composition import DEFAULT_RDP_ORDERS, rdp_to_dp
from repro.privacy.dpsgd import dpsgd_row_step
from repro.privacy.gaussian import gaussian_rdp
from repro.privacy.subsampling import subsampled_gaussian_rdp, subsampled_rdp


class TestClipping:
    def test_small_gradient_untouched(self):
        g = np.array([0.3, 0.4])
        assert np.allclose(clip_by_l2_norm(g, 1.0), g)

    def test_large_gradient_scaled_to_threshold(self):
        g = np.array([3.0, 4.0])
        clipped = clip_by_l2_norm(g, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        # Direction preserved.
        assert np.allclose(clipped / np.linalg.norm(clipped), g / np.linalg.norm(g))

    def test_rowwise_clipping(self):
        rows = np.array([[3.0, 4.0], [0.1, 0.0]])
        clipped = clip_rows_by_l2_norm(rows, 1.0)
        norms = np.linalg.norm(clipped, axis=1)
        assert norms[0] == pytest.approx(1.0)
        assert norms[1] == pytest.approx(0.1)

    def test_rowwise_requires_2d(self):
        with pytest.raises(ValueError):
            clip_rows_by_l2_norm(np.zeros(3), 1.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            clip_by_l2_norm(np.zeros(2), 0.0)


class TestGaussianMechanism:
    def test_rdp_formula(self):
        assert gaussian_rdp(2, 5.0) == pytest.approx(2 / 50)
        assert gaussian_rdp(10, 1.0) == pytest.approx(5.0)

    def test_rdp_validation(self):
        with pytest.raises(ValueError):
            gaussian_rdp(1.0, 5.0)
        with pytest.raises(ValueError):
            gaussian_rdp(2, 0.0)

    def test_mechanism_rdp_decreases_with_sigma(self):
        low = gaussian_rdp(4, 1.0)
        high = gaussian_rdp(4, 10.0)
        assert high < low


class TestSubsampling:
    def test_gamma_zero_costs_nothing(self):
        assert subsampled_gaussian_rdp(4, 0.0, 5.0) == 0.0

    def test_gamma_one_equals_base(self):
        assert subsampled_gaussian_rdp(4, 1.0, 5.0) == pytest.approx(gaussian_rdp(4, 5.0))

    def test_amplification_reduces_cost(self):
        base = gaussian_rdp(8, 5.0)
        amplified = subsampled_gaussian_rdp(8, 0.01, 5.0)
        assert amplified < base
        assert amplified > 0

    def test_cost_increases_with_gamma(self):
        costs = [subsampled_gaussian_rdp(8, g, 5.0) for g in (0.001, 0.01, 0.1, 0.5)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_cost_increases_with_alpha(self):
        costs = [subsampled_gaussian_rdp(a, 0.05, 5.0) for a in (2, 4, 8, 16, 32)]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_quadratic_scaling_at_small_gamma(self):
        # For small gamma the leading term scales like gamma^2.
        c1 = subsampled_gaussian_rdp(2, 0.001, 5.0)
        c2 = subsampled_gaussian_rdp(2, 0.002, 5.0)
        assert c2 / c1 == pytest.approx(4.0, rel=0.15)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp(1, 0.1, 5.0)
        with pytest.raises(ValueError):
            subsampled_rdp(2.5, 0.1, lambda a: 0.1)


class TestComposition:
    def test_rdp_to_dp_uses_best_order(self):
        rdp = {order: 0.01 * order for order in DEFAULT_RDP_ORDERS}
        eps, order = rdp_to_dp(rdp, delta=1e-5)
        manual = min(
            0.01 * o + np.log(1e5) / (o - 1) for o in DEFAULT_RDP_ORDERS
        )
        assert eps == pytest.approx(manual)
        assert order in DEFAULT_RDP_ORDERS

    def test_rdp_to_dp_sequence_input(self):
        values = [0.05] * len(DEFAULT_RDP_ORDERS)
        eps, _ = rdp_to_dp(values, delta=1e-5)
        assert eps > 0

    def test_rdp_to_dp_length_mismatch(self):
        with pytest.raises(ValueError):
            rdp_to_dp([0.1, 0.2], delta=1e-5)

    def test_rdp_to_dp_invalid_delta(self):
        with pytest.raises(ValueError):
            rdp_to_dp({2: 0.1}, delta=0.0)


class TestAccountant:
    def test_spend_grows_with_steps(self):
        acc = RdpAccountant(5.0)
        acc.step(0.05, num_steps=10)
        eps10 = acc.get_privacy_spent(1e-5).epsilon
        acc.step(0.05, num_steps=40)
        eps50 = acc.get_privacy_spent(1e-5).epsilon
        assert eps50 > eps10
        assert acc.steps == 50

    def test_zero_rate_costs_nothing(self):
        acc = RdpAccountant(5.0)
        acc.step(0.0, num_steps=100)
        assert acc.get_privacy_spent(1e-5).epsilon == pytest.approx(
            RdpAccountant(5.0).get_privacy_spent(1e-5).epsilon
        )

    def test_delta_epsilon_duality(self):
        acc = RdpAccountant(5.0)
        acc.step(0.1, num_steps=30)
        spent = acc.get_privacy_spent(1e-5)
        # The delta implied at the reported epsilon must not exceed the target.
        assert acc.get_delta_spent(spent.epsilon) <= 1e-5 * (1 + 1e-6)
        assert acc.budget_exhausted(spent.epsilon * 0.5, 1e-5)
        assert not acc.budget_exhausted(spent.epsilon * 1.01, 1e-5)

    def test_max_steps_for_budget_monotone_in_epsilon(self):
        few = RdpAccountant.max_steps_for_budget(1.0, 1e-5, 5.0, 0.1)
        many = RdpAccountant.max_steps_for_budget(6.0, 1e-5, 5.0, 0.1)
        assert many > few >= 1

    def test_max_steps_consistent_with_accounting(self):
        steps = RdpAccountant.max_steps_for_budget(3.0, 1e-5, 5.0, 0.1)
        acc = RdpAccountant(5.0)
        acc.step(0.1, num_steps=steps)
        assert acc.get_privacy_spent(1e-5).epsilon <= 3.0 + 1e-6
        acc.step(0.1, num_steps=1)
        assert acc.get_privacy_spent(1e-5).epsilon > 3.0

    def test_calibrate_noise_multiplier(self):
        sigma = RdpAccountant.calibrate_noise_multiplier(2.0, 1e-5, 1.0, num_steps=2)
        acc = RdpAccountant(sigma)
        acc.step(1.0, num_steps=2)
        assert acc.get_privacy_spent(1e-5).epsilon <= 2.0 + 1e-2
        # A noticeably smaller sigma must blow the budget.
        acc2 = RdpAccountant(sigma * 0.8)
        acc2.step(1.0, num_steps=2)
        assert acc2.get_privacy_spent(1e-5).epsilon > 2.0

    def test_calibration_decreases_with_larger_epsilon(self):
        tight = RdpAccountant.calibrate_noise_multiplier(1.0, 1e-5, 1.0, 1)
        loose = RdpAccountant.calibrate_noise_multiplier(6.0, 1e-5, 1.0, 1)
        assert loose < tight

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RdpAccountant(0.0)
        acc = RdpAccountant(5.0)
        with pytest.raises(ValueError):
            acc.step(1.5)
        with pytest.raises(ValueError):
            acc.step(0.5, num_steps=-1)


class TestDpsgdRowStep:
    def test_tiny_noise_applies_clipped_average(self):
        matrix = np.zeros((3, 2))
        grads = np.array([[10.0, 0.0], [0.0, 0.5]])
        dpsgd_row_step(((matrix, np.array([0, 2]), grads),),
                       np.random.default_rng(0), 1.0, 1e-9, 0.5)
        # lr / B = 0.25 times the clipped rows: [1, 0] and [0, 0.5].
        np.testing.assert_allclose(matrix, [[0.25, 0.0], [0.0, 0.0], [0.0, 0.125]],
                                   atol=1e-8)

    def test_noise_std_is_batch_times_clip_times_sigma(self):
        batch, dim = 4, 5000
        matrix = np.zeros((batch, dim))
        dpsgd_row_step(((matrix, np.arange(batch), np.zeros((batch, dim))),),
                       np.random.default_rng(1), 2.0, 3.0, float(batch))
        # (n / B) * (lr / B) with lr = B leaves n / B, of std C * sigma.
        assert np.std(matrix) == pytest.approx(2.0 * 3.0, rel=0.02)

    def test_targets_share_a_matrix(self):
        matrix = np.zeros((2, 2))
        rows = np.array([0, 0])
        grads = np.array([[0.3, 0.0], [0.0, 0.4]])
        dpsgd_row_step(((matrix, rows, grads), (matrix, rows[::-1], grads)),
                       np.random.default_rng(2), 1.0, 1e-9, 2.0)
        # Repeated rows accumulate: each target adds both of its rows
        # (lr / B = 1), into the one matrix they share.
        np.testing.assert_allclose(matrix[0], [0.6, 0.8], atol=1e-8)
        assert not matrix[1].any()
