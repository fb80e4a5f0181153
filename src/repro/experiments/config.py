"""Shared experiment settings.

The paper trains for 50 epochs x 15 discriminator iterations on graphs of
4k-2M nodes.  The reproduction uses synthetic analogues of ~1k nodes, so the
privacy-amplification regime (``B k / |V|``) is kept comparable by using a
smaller default batch size for the DP skip-gram models, and the non-private
models use the paper's schedule scaled by ``epoch_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.utils.validation import check_positive, check_probability

#: Privacy budgets evaluated throughout the paper's Section VI.
DEFAULT_EPSILONS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


@dataclass
class ExperimentSettings:
    """Knobs shared by all experiment modules.

    Attributes
    ----------
    dataset_scale:
        Multiplier on the synthetic datasets' base node counts.
    dp_batch_size:
        Batch size for the DP skip-gram family (AdvSGM, DP-SGM, DP-ASGM).
        Smaller than the paper's 128 so that ``B k / |V|`` on the ~1k-node
        analogues matches the paper's amplification regime on its 4k-10k-node
        datasets.
    nodp_epochs / dp_epochs:
        Epoch budgets for the non-private and private skip-gram models.  DP
        models stop earlier anyway once the privacy budget is exhausted, so a
        generous ``dp_epochs`` simply lets the accountant be the binding
        constraint, as in the paper.
    epsilons:
        Privacy budgets swept by the comparison experiments.
    seed:
        Base seed; every experiment derives per-run seeds from it.
    """

    dataset_scale: float = 1.0
    dp_batch_size: int = 8
    num_negatives: int = 5
    embedding_dim: int = 128
    learning_rate: float = 0.1
    nodp_epochs: int = 50
    dp_epochs: int = 300
    discriminator_steps: int = 15
    generator_steps: int = 5
    noise_multiplier: float = 5.0
    delta: float = 1e-5
    sigmoid_b: float = 120.0
    gnn_epochs: int = 10
    test_fraction: float = 0.1
    epsilons: Tuple[float, ...] = field(default_factory=lambda: DEFAULT_EPSILONS)
    num_repeats: int = 1
    seed: int = 2025

    def __post_init__(self) -> None:
        check_positive(self.dataset_scale, "dataset_scale")
        for name in (
            "dp_batch_size",
            "num_negatives",
            "embedding_dim",
            "nodp_epochs",
            "dp_epochs",
            "discriminator_steps",
            "generator_steps",
            "gnn_epochs",
            "num_repeats",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.noise_multiplier, "noise_multiplier")
        check_probability(self.delta, "delta")
        check_positive(self.sigmoid_b, "sigmoid_b")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must lie in (0, 1)")
        if not self.epsilons:
            raise ValueError("epsilons must not be empty")

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """Reduced settings so the full benchmark suite runs in minutes."""
        return cls(
            dataset_scale=0.35,
            embedding_dim=64,
            nodp_epochs=20,
            dp_epochs=80,
            gnn_epochs=5,
            epsilons=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        )

    @classmethod
    def smoke(cls) -> "ExperimentSettings":
        """Minimal settings for unit tests of the experiment plumbing."""
        return cls(
            dataset_scale=0.15,
            embedding_dim=32,
            nodp_epochs=3,
            dp_epochs=5,
            discriminator_steps=3,
            generator_steps=2,
            gnn_epochs=2,
            epsilons=(1.0, 6.0),
        )

    @classmethod
    def full(cls) -> "ExperimentSettings":
        """Paper-scale schedule (slow; hours for the full figure sweeps)."""
        return cls(dataset_scale=1.0, nodp_epochs=50, dp_epochs=400, gnn_epochs=30)

    @classmethod
    def preset(cls, name: str) -> "ExperimentSettings":
        """Look up a named preset (``smoke`` / ``quick`` / ``full``)."""
        presets = {"smoke": cls.smoke, "quick": cls.quick, "full": cls.full}
        if name not in presets:
            raise KeyError(
                f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
            )
        return presets[name]()
