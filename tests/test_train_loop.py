"""Tests for the unified ``repro.train`` subsystem.

Covers the loop scheduler itself, the shared privacy-budget stop, and —
crucially — seed-for-seed parity: training through the shared loop must
produce byte-identical embeddings and history to the legacy hand-rolled
loops it replaced.
"""

import numpy as np
import pytest

from repro.baselines.dpsgm import DPSGM, DPSGMConfig
from repro.baselines.dpasgm import DPASGM, DPASGMConfig
from repro.baselines.dpggan import DPGGAN, DPGGANConfig
from repro.baselines.dpgvae import DPGVAE, DPGVAEConfig
from repro.core.advsgm import AdvSGM
from repro.core.config import AdvSGMConfig
from repro.embedding.adversarial import AdversarialSkipGram
from repro.embedding.skipgram import SkipGramConfig, SkipGramModel
from repro.api.registry import make_model
from repro.privacy.accountant import RdpAccountant
from repro.train import (
    BudgetExhausted,
    Callback,
    PrivacyBudget,
    ProgressCallback,
    TrainingLoop,
)


class RecordingCallback(Callback):
    def __init__(self):
        self.events = []

    def on_train_begin(self, loop):
        self.events.append("begin")

    def on_epoch_end(self, epoch, losses):
        self.events.append(("epoch", epoch, list(losses)))

    def on_train_end(self, result):
        self.events.append(("end", result.stopped_early))


class TestTrainingLoop:
    def test_schedule_counts(self):
        calls = []
        loop = TrainingLoop(3, 4)
        result = loop.run(lambda e, s: calls.append((e, s)))
        assert len(calls) == 12
        assert result.epochs_completed == 3
        assert result.steps_completed == 12
        assert not result.stopped_early

    def test_losses_collected_per_epoch(self):
        seen = []
        loop = TrainingLoop(2, 3)
        loop.run(
            lambda e, s: float(10 * e + s),
            lambda e, losses: seen.append((e, losses)),
        )
        assert seen == [(0, [0.0, 1.0, 2.0]), (1, [10.0, 11.0, 12.0])]

    def test_budget_exhausted_stops_immediately(self):
        ran = []

        def step(e, s):
            ran.append((e, s))
            if len(ran) == 4:
                raise BudgetExhausted

        epoch_ends = []
        loop = TrainingLoop(5, 3)
        result = loop.run(step, lambda e, losses: epoch_ends.append(e))
        assert result.stopped_early
        assert len(ran) == 4
        # The truncated epoch's end hook is skipped by default.
        assert epoch_ends == [0]
        assert result.epochs_completed == 1

    def test_finish_epoch_on_stop_runs_epoch_end(self):
        def step(e, s):
            if e == 1 and s == 1:
                raise BudgetExhausted

        epoch_ends = []
        loop = TrainingLoop(5, 3, finish_epoch_on_stop=True)
        result = loop.run(step, lambda e, losses: epoch_ends.append(e))
        assert result.stopped_early
        assert epoch_ends == [0, 1]

    def test_pre_step_budget_poll(self):
        class FakeBudget:
            def __init__(self, allowed):
                self.allowed = allowed
                self.polls = 0

            def exhausted(self):
                self.polls += 1
                return self.polls > self.allowed

        budget = FakeBudget(allowed=5)
        steps = []
        loop = TrainingLoop(4, 3, budget=budget)
        result = loop.run(lambda e, s: steps.append((e, s)))
        assert result.stopped_early
        assert len(steps) == 5  # sixth poll reports exhaustion before step 6

    def test_callbacks_and_validation(self):
        cb = RecordingCallback()
        TrainingLoop(2, 1, callbacks=[cb]).run(lambda e, s: 1.0)
        assert cb.events[0] == "begin"
        assert cb.events[-1] == ("end", False)
        assert ("epoch", 1, [1.0]) in cb.events
        with pytest.raises(ValueError):
            TrainingLoop(0, 1)
        with pytest.raises(ValueError):
            TrainingLoop(1, 0)

    def test_progress_callback_prints(self):
        lines = []
        cb = ProgressCallback(print_every=2, printer=lines.append)
        TrainingLoop(4, 2, callbacks=[cb]).run(lambda e, s: 1.0)
        assert lines == ["epoch 2: loss=1.000000", "epoch 4: loss=1.000000"]
        with pytest.raises(ValueError):
            ProgressCallback(print_every=0)


class TestPrivacyBudget:
    def test_exhaustion_flips_after_enough_steps(self):
        accountant = RdpAccountant(noise_multiplier=1.0)
        budget = PrivacyBudget(accountant, epsilon=1.0, delta=1e-5)
        assert not budget.exhausted()
        for _ in range(2000):
            accountant.step(1.0)
        assert budget.exhausted()
        assert budget.spent().epsilon > 1.0

    def test_validation(self):
        accountant = RdpAccountant(noise_multiplier=1.0)
        with pytest.raises(ValueError):
            PrivacyBudget(accountant, epsilon=0.0, delta=1e-5)
        with pytest.raises(ValueError):
            PrivacyBudget(accountant, epsilon=1.0, delta=0.0)


DP_MODELS = ("advsgm", "dpsgm", "dpasgm", "dpggan", "dpgvae", "gap", "dpar")


class TestBudgetAdmittingNoStep:
    """At delta 1e-5 an accountant that has charged nothing already reports
    epsilon 0.183, so a smaller target admits no step: every DP model refuses
    it when its privacy handle is built, instead of releasing its
    initialisation."""

    @pytest.mark.parametrize("model", DP_MODELS)
    def test_refused_in_one_line(self, small_graph, model):
        with pytest.raises(ValueError) as info:
            make_model(model, epsilon=0.1, graph=small_graph, rng=0, embedding_dim=16)
        assert str(info.value) == (
            "epsilon=0.1 at delta=1e-05 admits no training step: "
            "an untrained model already reports epsilon 0.183"
        )

    def test_refused_when_bound_at_fit(self, small_graph):
        model = make_model("dpsgm", epsilon=0.1, rng=0)
        with pytest.raises(ValueError, match="admits no training step"):
            model.fit(small_graph)

    def test_target_above_the_floor_trains(self, small_graph):
        model = make_model("advsgm", epsilon=0.19, graph=small_graph, rng=0, embedding_dim=16)
        assert model.fit().accountant.steps >= 1


# ----------------------------------------------------------------------
# Seed-for-seed parity with the legacy hand-rolled loops
# ----------------------------------------------------------------------
def legacy_advsgm_fit(model: AdvSGM) -> AdvSGM:
    """The pre-refactor AdvSGM.fit epoch loop, verbatim."""
    for _epoch in range(model.config.num_epochs):
        keep_going = True
        for _ in range(model.config.discriminator_steps):
            keep_going = model._train_discriminator_iteration()
            if not keep_going:
                model.stopped_early = True
                break
        gen_loss = 0.0
        for _ in range(model.config.generator_steps):
            gen_loss += model._train_generator_iteration()
        model.history.record("generator_loss", gen_loss / model.config.generator_steps)
        spent = model.privacy_spent()
        if spent is not None:
            model.history.record("epsilon_spent", spent.epsilon)
        if not keep_going:
            break
    return model


def legacy_dpsgm_fit(model: DPSGM) -> DPSGM:
    """The pre-refactor DPSGM.fit epoch loop, verbatim."""
    for _ in range(model.config.num_epochs):
        for _ in range(model.config.batches_per_epoch):
            if model.budget.exhausted():
                model.stopped_early = True
                return model
            batch = model.sampler.sample()
            model._dpsgd_update(batch.positive_edges, positive=True)
            if model.budget.exhausted():
                model.stopped_early = True
                return model
            model._dpsgd_update(batch.negative_pairs, positive=False)
        model.history.record("epsilon_spent", model.privacy_spent().epsilon)
    return model


def legacy_skipgram_fit(model: SkipGramModel) -> SkipGramModel:
    """The pre-refactor SkipGramModel.fit epoch loop, verbatim."""
    for _epoch in range(model.config.num_epochs):
        epoch_loss = 0.0
        for _ in range(model.config.batches_per_epoch):
            epoch_loss += model.train_step()
        model.history.record("loss", epoch_loss / model.config.batches_per_epoch)
    return model


class TestSeedForSeedParity:
    def test_skipgram_parity(self, small_graph):
        cfg = SkipGramConfig(
            embedding_dim=16, num_epochs=4, batches_per_epoch=5, batch_size=16
        )
        new = SkipGramModel(small_graph, cfg, rng=11).fit()
        old = legacy_skipgram_fit(SkipGramModel(small_graph, cfg, rng=11))
        assert np.array_equal(new.embeddings, old.embeddings)
        assert np.array_equal(new.w_out, old.w_out)
        assert new.history.get("loss") == old.history.get("loss")

    def test_advsgm_parity_no_dp(self, small_graph):
        cfg = AdvSGMConfig(
            embedding_dim=16,
            batch_size=8,
            num_epochs=3,
            discriminator_steps=3,
            generator_steps=2,
            dp_enabled=False,
        )
        new = AdvSGM(small_graph, cfg, rng=5).fit()
        old_model = AdvSGM(small_graph, cfg, rng=5)
        old_model._fitted = True
        old = legacy_advsgm_fit(old_model)
        assert np.array_equal(new.embeddings, old.embeddings)
        assert new.history.get("generator_loss") == old.history.get("generator_loss")
        assert new.stopped_early is old.stopped_early is False

    def test_advsgm_parity_with_budget_stop(self, small_graph):
        # A tiny noise multiplier exhausts the budget almost immediately, so
        # the early-stop path (Algorithm 3 lines 9-11) is exercised.
        cfg = AdvSGMConfig(
            embedding_dim=16,
            batch_size=8,
            num_epochs=6,
            discriminator_steps=4,
            generator_steps=2,
            noise_multiplier=0.6,
            epsilon=1.0,
        )
        new = AdvSGM(small_graph, cfg, rng=7).fit()
        old_model = AdvSGM(small_graph, cfg, rng=7)
        old_model._fitted = True
        old = legacy_advsgm_fit(old_model)
        assert new.stopped_early is old.stopped_early is True
        assert np.array_equal(new.embeddings, old.embeddings)
        assert new.history.get("generator_loss") == old.history.get("generator_loss")
        assert new.history.get("epsilon_spent") == old.history.get("epsilon_spent")
        assert new.accountant.steps == old.accountant.steps

    def test_dpsgm_parity_with_budget_stop(self, small_graph):
        cfg = DPSGMConfig(
            embedding_dim=16,
            batch_size=8,
            num_epochs=6,
            batches_per_epoch=4,
            noise_multiplier=0.6,
            epsilon=1.0,
        )
        new = DPSGM(small_graph, cfg, rng=9).fit()
        old = legacy_dpsgm_fit(DPSGM(small_graph, cfg, rng=9))
        assert new.stopped_early is old.stopped_early is True
        assert np.array_equal(new.embeddings, old.embeddings)
        assert np.array_equal(new.w_out, old.w_out)
        assert new.history.get("epsilon_spent") == old.history.get("epsilon_spent")
        assert new.accountant.steps == old.accountant.steps

    def test_dpsgm_parity_without_stop(self, small_graph):
        cfg = DPSGMConfig(
            embedding_dim=16, batch_size=8, num_epochs=2, batches_per_epoch=3
        )
        new = DPSGM(small_graph, cfg, rng=13).fit()
        old = legacy_dpsgm_fit(DPSGM(small_graph, cfg, rng=13))
        assert new.stopped_early is old.stopped_early is False
        assert np.array_equal(new.embeddings, old.embeddings)
        assert new.history.get("epsilon_spent") == old.history.get("epsilon_spent")


class TestAllModelsUseSharedLoop:
    def test_seven_models_route_through_training_loop(self, small_graph, labelled_graph, monkeypatch):
        runs = []
        original_run = TrainingLoop.run

        def spy(self, step_fn, epoch_end=None):
            runs.append(self)
            return original_run(self, step_fn, epoch_end)

        monkeypatch.setattr(TrainingLoop, "run", spy)

        adv_cfg = AdvSGMConfig(
            embedding_dim=8, batch_size=8, num_epochs=1,
            discriminator_steps=2, generator_steps=1,
        )
        short = dict(embedding_dim=8, batch_size=8, num_epochs=1, batches_per_epoch=2)
        models = [
            AdvSGM(small_graph, adv_cfg, rng=0),
            AdversarialSkipGram(small_graph, adv_cfg, rng=0),
            SkipGramModel(
                small_graph,
                SkipGramConfig(embedding_dim=8, num_epochs=1, batches_per_epoch=2, batch_size=8),
                rng=0,
            ),
            DPSGM(small_graph, DPSGMConfig(**short), rng=0),
            DPASGM(small_graph, DPASGMConfig(**short), rng=0),
            DPGGAN(small_graph, DPGGANConfig(**short), rng=0),
            DPGVAE(labelled_graph, DPGVAEConfig(**short), rng=0),
        ]
        for model in models:
            before = len(runs)
            model.fit()
            assert len(runs) > before, type(model).__name__
            assert model.embeddings.shape[0] in (
                small_graph.num_nodes,
                labelled_graph.num_nodes,
            )
