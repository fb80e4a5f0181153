"""The unified epoch/step training loop shared by every trainer.

Before this subsystem existed each of the seven models (AdvSGM, SkipGram,
AdversarialSkipGram, DP-SGM, DP-ASGM, DPGGAN, DPGVAE) hand-rolled its own
``for epoch: for step:`` loop with its own early-stop and history plumbing.
:class:`TrainingLoop` centralises the scheduling concerns:

* epoch / step iteration with per-epoch loss collection,
* the privacy-budget early stop of Algorithm 3 lines 9-11 — a
  :class:`~repro.train.budget.PrivacyBudget` is polled *before every step*
  and a trainer can abort mid-step by raising :class:`BudgetExhausted`,
* callbacks (progress printing, custom monitoring),
* a ``finish_epoch_on_stop`` switch: AdvSGM still runs its generator phase
  and records history for the epoch in which the budget ran out, while the
  DPSGD baselines return immediately — both behaviours are expressed with
  the same loop.

The loop is deliberately agnostic of models and gradients: trainers supply a
``step_fn(epoch, step)`` closure and an optional ``epoch_end(epoch, losses)``
hook, which keeps seed-for-seed parity with the legacy hand-rolled loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.train.budget import PrivacyBudget

#: A training step: receives (epoch, step) indices, optionally returns a
#: scalar loss to collect, and raises :class:`BudgetExhausted` to stop.
StepFn = Callable[[int, int], Optional[float]]

#: End-of-epoch hook: receives the epoch index and the losses collected from
#: the epoch's steps (empty list if the steps returned ``None``).
EpochEndFn = Callable[[int, List[float]], None]


class BudgetExhausted(Exception):
    """Raised by a training step when the privacy budget does not cover it."""


@dataclass(frozen=True)
class LoopResult:
    """Summary of one :meth:`TrainingLoop.run` invocation.

    ``steps_completed`` counts steps that ran to completion; a step aborted
    by :class:`BudgetExhausted` (which may have applied only part of its
    work, or none) is not included.
    """

    epochs_completed: int
    steps_completed: int
    stopped_early: bool


class Callback:
    """Base class for training-loop callbacks; override any subset of hooks."""

    def on_train_begin(self, loop: "TrainingLoop") -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, epoch: int, losses: List[float]) -> None:
        """Called after each completed (or budget-truncated final) epoch."""

    def on_train_end(self, result: LoopResult) -> None:
        """Called once after the loop finishes."""


class ProgressCallback(Callback):
    """Print one line per epoch (mean loss when the steps report one)."""

    def __init__(self, print_every: int = 1, printer: Callable[[str], None] = print) -> None:
        if print_every <= 0:
            raise ValueError(f"print_every must be positive, got {print_every}")
        self.print_every = int(print_every)
        self.printer = printer

    def on_epoch_end(self, epoch: int, losses: List[float]) -> None:
        if (epoch + 1) % self.print_every:
            return
        if losses:
            mean = sum(losses) / len(losses)
            self.printer(f"epoch {epoch + 1}: loss={mean:.6f}")
        else:
            self.printer(f"epoch {epoch + 1} done")


class TrainingLoop:
    """Epoch/step scheduler shared by all trainers.

    Parameters
    ----------
    num_epochs, steps_per_epoch:
        The training schedule.
    budget:
        Optional :class:`PrivacyBudget` polled before every step; training
        stops as soon as it reports exhaustion (Algorithm 3 lines 9-11).
    finish_epoch_on_stop:
        When the budget stops training mid-epoch: ``True`` still runs
        ``epoch_end`` (and callbacks) for the truncated epoch — AdvSGM's
        behaviour, whose generator phase is post-processing and free —
        while ``False`` returns immediately, the DPSGD baselines' behaviour.
    callbacks:
        :class:`Callback` instances observing the run.
    """

    def __init__(
        self,
        num_epochs: int,
        steps_per_epoch: int,
        *,
        budget: Optional[PrivacyBudget] = None,
        finish_epoch_on_stop: bool = False,
        callbacks: Sequence[Callback] = (),
    ) -> None:
        if num_epochs <= 0:
            raise ValueError(f"num_epochs must be positive, got {num_epochs}")
        if steps_per_epoch <= 0:
            raise ValueError(f"steps_per_epoch must be positive, got {steps_per_epoch}")
        self.num_epochs = int(num_epochs)
        self.steps_per_epoch = int(steps_per_epoch)
        self.budget = budget
        self.finish_epoch_on_stop = bool(finish_epoch_on_stop)
        self.callbacks = list(callbacks)

    def run(self, step_fn: StepFn, epoch_end: Optional[EpochEndFn] = None) -> LoopResult:
        """Drive the schedule; returns a :class:`LoopResult` summary."""
        for cb in self.callbacks:
            cb.on_train_begin(self)
        epochs_completed = 0
        steps_completed = 0
        stopped = False
        for epoch in range(self.num_epochs):
            losses: List[float] = []
            for step in range(self.steps_per_epoch):
                if self.budget is not None and self.budget.exhausted():
                    stopped = True
                    break
                try:
                    out = step_fn(epoch, step)
                except BudgetExhausted:
                    # The aborted step is not counted: it may have done no
                    # work at all (trainers check the budget before their
                    # first sub-batch too).
                    stopped = True
                    break
                steps_completed += 1
                if out is not None:
                    losses.append(float(out))
            if stopped and not self.finish_epoch_on_stop:
                break
            if epoch_end is not None:
                epoch_end(epoch, losses)
            for cb in self.callbacks:
                cb.on_epoch_end(epoch, losses)
            epochs_completed = epoch + 1
            if stopped:
                break
        result = LoopResult(
            epochs_completed=epochs_completed,
            steps_completed=steps_completed,
            stopped_early=stopped,
        )
        for cb in self.callbacks:
            cb.on_train_end(result)
        return result
