"""Tests for the AdvSGM core: config, generators, discriminator, trainer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.advsgm import AdvSGM
from repro.core.config import AdvSGMConfig
from repro.core.discriminator import AdvSGMDiscriminator
from repro.core.generator import FakeNeighbourGenerator, GeneratorPair
from repro.graph.sampling import EdgeSampler


class TestAdvSGMConfig:
    def test_defaults_match_paper(self):
        cfg = AdvSGMConfig()
        assert cfg.embedding_dim == 128
        assert cfg.num_negatives == 5
        assert cfg.batch_size == 128
        assert cfg.num_epochs == 50
        assert cfg.discriminator_steps == 15
        assert cfg.generator_steps == 5
        assert cfg.noise_multiplier == 5.0
        assert cfg.delta == 1e-5
        assert cfg.sigmoid_a == 1e-5
        assert cfg.sigmoid_b == 120.0

    def test_without_privacy(self):
        cfg = replace(AdvSGMConfig(), dp_enabled=False)
        assert cfg.dp_enabled is False
        assert AdvSGMConfig().dp_enabled is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"embedding_dim": 0},
            {"learning_rate_d": -0.1},
            {"clip_norm": 0.0},
            {"epsilon": 0.0},
            {"delta": 2.0},
            {"sigmoid_a": 1.0, "sigmoid_b": 0.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdvSGMConfig(**kwargs)


class TestFakeNeighbourGenerator:
    def test_generate_shape_and_range(self):
        gen = FakeNeighbourGenerator(16, rng=0)
        fake = gen.generate(10)
        assert fake.shape == (10, 16)
        assert np.all(fake > 0) and np.all(fake < 1)  # sigmoid outputs

    def test_backward_requires_generate(self):
        gen = FakeNeighbourGenerator(8, rng=0)
        with pytest.raises(RuntimeError):
            gen.backward(np.zeros((1, 8)))

    def test_backward_shape_check(self):
        gen = FakeNeighbourGenerator(8, rng=0)
        gen.generate(4)
        with pytest.raises(ValueError):
            gen.backward(np.zeros((3, 8)))

    def test_backward_gradient_shape(self):
        gen = FakeNeighbourGenerator(8, rng=0)
        gen.generate(4)
        grads = gen.backward(np.ones((4, 8)))
        assert grads["theta"].shape == (8, 8)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FakeNeighbourGenerator(0)
        with pytest.raises(ValueError):
            FakeNeighbourGenerator(4).generate(0)


class TestGeneratorPair:
    def test_generate_pairs_shapes(self):
        pair = GeneratorPair(embedding_dim=16, rng=0)
        fake_vj, fake_vi = pair.generate_pairs(12)
        assert fake_vj.shape == (12, 16)
        assert fake_vi.shape == (12, 16)
        assert not np.allclose(fake_vj, fake_vi)  # independent generators

    def test_train_step_updates_parameters(self, rng):
        pair = GeneratorPair(embedding_dim=16, dp_enabled=False, rng=0)
        before_j = pair.generator_j.theta.copy()
        before_i = pair.generator_i.theta.copy()
        vi = rng.normal(size=(20, 16))
        vj = rng.normal(size=(20, 16))
        loss = pair.train_step(vi, vj, learning_rate=0.5)
        assert np.isfinite(loss)
        assert not np.allclose(pair.generator_j.theta, before_j)
        assert not np.allclose(pair.generator_i.theta, before_i)

    def test_train_step_shape_mismatch(self, rng):
        pair = GeneratorPair(embedding_dim=8, rng=0)
        with pytest.raises(ValueError):
            pair.train_step(rng.normal(size=(4, 8)), rng.normal(size=(5, 8)), 0.1)

    def test_noise_disabled_without_dp(self):
        pair = GeneratorPair(embedding_dim=8, dp_enabled=False, rng=0)
        assert np.allclose(pair._activation_noise(5), 0.0)

    def test_noise_scale_with_dp(self):
        pair = GeneratorPair(
            embedding_dim=64, dp_enabled=True, noise_multiplier=5.0, clip_norm=1.0, rng=0
        )
        noise = pair._activation_noise(500)
        assert np.std(noise) == pytest.approx(5.0, rel=0.1)


class TestDiscriminator:
    def _make(self, graph, config):
        return AdvSGMDiscriminator(graph.num_nodes, config, rng=0)

    def test_initial_rows_unit_norm(self, small_graph, tiny_config):
        disc = self._make(small_graph, tiny_config)
        norms = np.linalg.norm(disc.w_in, axis=1)
        assert np.allclose(norms, 1.0)

    def test_activation_noise_zero_without_dp(self, small_graph, tiny_config):
        disc = AdvSGMDiscriminator(
            small_graph.num_nodes, replace(tiny_config, dp_enabled=False), rng=0
        )
        assert np.allclose(disc.activation_noise(7), 0.0)

    def test_perturbed_gradients_shapes(self, small_graph, tiny_config):
        disc = self._make(small_graph, tiny_config)
        sampler = EdgeSampler(small_graph, batch_size=8, num_negatives=3, rng=0)
        batch = sampler.sample()
        fake_vj = np.full((8, tiny_config.embedding_dim), 0.5)
        fake_vi = np.full((8, tiny_config.embedding_dim), 0.5)
        grad_in, in_nodes, grad_out, out_nodes = disc.perturbed_batch_gradients(
            batch.positive_edges, fake_vj, fake_vi, positive=True
        )
        assert grad_in.shape == (8, tiny_config.embedding_dim)
        assert grad_out.shape == (8, tiny_config.embedding_dim)
        assert np.array_equal(in_nodes, batch.positive_edges[:, 0])
        assert np.array_equal(out_nodes, batch.positive_edges[:, 1])

    def test_gradients_clipped_without_dp(self, small_graph, tiny_config):
        """Without noise the per-pair gradient norm is bounded by C."""
        disc = AdvSGMDiscriminator(
            small_graph.num_nodes, replace(tiny_config, dp_enabled=False), rng=0
        )
        sampler = EdgeSampler(small_graph, batch_size=16, num_negatives=3, rng=0)
        batch = sampler.sample()
        fake_vj, fake_vi = np.ones((16, 16)) * 0.5, np.ones((16, 16)) * 0.5
        grad_in, _, grad_out, _ = disc.perturbed_batch_gradients(
            batch.positive_edges, fake_vj, fake_vi, positive=True
        )
        assert np.all(np.linalg.norm(grad_in, axis=1) <= tiny_config.clip_norm + 1e-9)
        assert np.all(np.linalg.norm(grad_out, axis=1) <= tiny_config.clip_norm + 1e-9)

    def test_noise_added_with_dp(self, small_graph, tiny_config):
        disc = self._make(small_graph, tiny_config)
        sampler = EdgeSampler(small_graph, batch_size=16, num_negatives=3, rng=0)
        batch = sampler.sample()
        fake = np.ones((16, 16)) * 0.5
        grad_in, _, _, _ = disc.perturbed_batch_gradients(
            batch.positive_edges, fake, fake, positive=True
        )
        # With sigma=5 the noisy gradients must exceed the clipping bound.
        assert np.linalg.norm(grad_in, axis=1).max() > tiny_config.clip_norm * 2

    def test_apply_gradients_moves_only_touched_rows(self, small_graph, tiny_config):
        disc = self._make(small_graph, tiny_config)
        before = disc.w_in.copy()
        rows = np.array([[1.0] * tiny_config.embedding_dim])
        disc.apply_gradients(rows, np.array([3]), rows, np.array([5]), learning_rate=0.1)
        changed = np.where(np.any(disc.w_in != before, axis=1))[0]
        assert changed.tolist() == [3]

    def test_novel_loss_finite_for_all_weight_modes(self, small_graph, tiny_config):
        disc = self._make(small_graph, tiny_config)
        sampler = EdgeSampler(small_graph, batch_size=8, num_negatives=3, rng=0)
        batch = sampler.sample()
        fake = np.full((8, tiny_config.embedding_dim), 0.5)
        assert np.isfinite(disc.novel_loss(batch, fake, fake))
        assert np.isfinite(disc.novel_loss_with_constant(batch, fake, fake, 0.5))
        assert np.isfinite(disc.novel_loss_with_constant(batch, fake, fake, 1.0))

    def test_novel_loss_unknown_mode(self, small_graph, tiny_config):
        disc = self._make(small_graph, tiny_config)
        sampler = EdgeSampler(small_graph, batch_size=4, num_negatives=2, rng=0)
        batch = sampler.sample()
        fake = np.zeros((4, tiny_config.embedding_dim))
        with pytest.raises(ValueError):
            disc._novel_loss(batch, fake, fake, "bogus", None)


class TestAdvSGMTrainer:
    def test_fit_returns_self_and_tracks_privacy(self, small_graph, tiny_config):
        model = AdvSGM(small_graph, tiny_config, rng=0)
        assert model.fit() is model
        spent = model.privacy_spent()
        assert spent is not None
        assert spent.epsilon > 0
        assert spent.delta == tiny_config.delta

    def test_fit_twice_rejected(self, small_graph, tiny_config):
        model = AdvSGM(small_graph, tiny_config, rng=0).fit()
        with pytest.raises(RuntimeError):
            model.fit()

    def test_privacy_budget_respected(self, small_graph):
        cfg = AdvSGMConfig(
            embedding_dim=16, batch_size=16, num_epochs=30, discriminator_steps=10,
            generator_steps=1, epsilon=1.0,
        )
        model = AdvSGM(small_graph, cfg, rng=0).fit()
        # The accountant's implied delta at the target epsilon never exceeds
        # the configured delta by more than one trailing step's worth.
        assert model.stopped_early
        assert model.privacy_spent().epsilon < 3.0

    def test_more_budget_allows_more_steps(self, small_graph):
        def steps_at(eps):
            cfg = AdvSGMConfig(
                embedding_dim=16, batch_size=16, num_epochs=50, discriminator_steps=10,
                generator_steps=1, epsilon=eps,
            )
            return AdvSGM(small_graph, cfg, rng=0).fit().accountant.steps

        assert steps_at(6.0) > steps_at(1.0)

    def test_no_accounting_without_dp(self, small_graph, tiny_config):
        model = AdvSGM(small_graph, replace(tiny_config, dp_enabled=False), rng=0).fit()
        assert model.accountant is None
        assert model.privacy_spent() is None
        assert model.stopped_early is False

    def test_embeddings_and_scores(self, small_graph, tiny_config):
        model = AdvSGM(small_graph, tiny_config, rng=0).fit()
        assert model.embeddings.shape == (small_graph.num_nodes, tiny_config.embedding_dim)
        scores = model.score_edges(np.array([[0, 1], [2, 3]]))
        assert scores.shape == (2,)
        assert np.all(np.isfinite(scores))

    def test_history_records_epsilon(self, small_graph, tiny_config):
        model = AdvSGM(small_graph, tiny_config, rng=0).fit()
        assert "epsilon_spent" in model.history
        assert "generator_loss" in model.history

    def test_reproducible_given_seed(self, small_graph, tiny_config):
        m1 = AdvSGM(small_graph, tiny_config, rng=77).fit()
        m2 = AdvSGM(small_graph, tiny_config, rng=77).fit()
        assert np.allclose(m1.embeddings, m2.embeddings)

    def test_different_seeds_differ(self, small_graph, tiny_config):
        m1 = AdvSGM(small_graph, tiny_config, rng=1).fit()
        m2 = AdvSGM(small_graph, tiny_config, rng=2).fit()
        assert not np.allclose(m1.embeddings, m2.embeddings)
