"""Configuration object for AdvSGM (paper defaults from Section VI-A)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive, check_probability


@dataclass
class AdvSGMConfig:
    """Hyper-parameters and privacy budget for :class:`repro.core.AdvSGM`.

    Defaults follow the paper's experimental setup (Section VI-A): 50 training
    epochs with 15 discriminator and 5 generator iterations each, embedding
    dimension 128, 5 negative samples, batch size 128, learning rates 0.1,
    clipping norm C = 1 (embeddings are kept inside the unit ball), noise
    multiplier sigma = 5, delta = 1e-5 and constrained-sigmoid bounds
    a = 1e-5, b = 120.

    Attributes
    ----------
    epsilon:
        Target privacy budget.  Training stops once the RDP accountant's
        implied failure probability at this epsilon exceeds ``delta``
        (Algorithm 3, lines 9-11).
    batch_size:
        Positive edges ``B`` per discriminator batch.  The
        :class:`~repro.graph.sampling.EdgeSampler` clamps the draw to the
        graph's edge count, and the accountant is charged with the sampling
        probabilities of the *actual* take, so a ``batch_size`` larger than
        ``|E|`` degrades gracefully instead of over-charging the budget.
    dp_enabled:
        Set to ``False`` to train the same architecture without any noise or
        accounting — the "AdvSGM (No DP)" configuration of Table V.

    The mechanism itself is fixed, as the paper fixes it: negative nodes are
    drawn uniformly from ``V`` (Algorithm 2), which the ``B k / |V|``
    amplification charge of Theorem 7 assumes; every node pair gets its own
    noise vector (Theorem 6); the update is not averaged over the batch; and
    the embeddings are normalised once at initialisation (Algorithm 3,
    line 2).  The accountant tracks the RDP orders 2-64.
    """

    embedding_dim: int = 128
    num_negatives: int = 5
    batch_size: int = 128
    learning_rate_d: float = 0.1
    learning_rate_g: float = 0.1
    num_epochs: int = 50
    discriminator_steps: int = 15
    generator_steps: int = 5
    clip_norm: float = 1.0
    noise_multiplier: float = 5.0
    epsilon: float = 6.0
    delta: float = 1e-5
    sigmoid_a: float = 1e-5
    sigmoid_b: float = 120.0
    dp_enabled: bool = True

    def __post_init__(self) -> None:
        for name in (
            "embedding_dim",
            "num_negatives",
            "batch_size",
            "num_epochs",
            "discriminator_steps",
            "generator_steps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        check_positive(self.learning_rate_d, "learning_rate_d")
        check_positive(self.learning_rate_g, "learning_rate_g")
        check_positive(self.clip_norm, "clip_norm")
        check_positive(self.noise_multiplier, "noise_multiplier")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta")
        check_positive(self.sigmoid_a, "sigmoid_a")
        check_positive(self.sigmoid_b, "sigmoid_b")
        if self.sigmoid_b <= self.sigmoid_a:
            raise ValueError("sigmoid_b must exceed sigmoid_a")
