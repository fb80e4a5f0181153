"""Configuration object for AdvSGM (paper defaults from Section VI-A)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.graph.sampling import check_negative_distribution
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
    negative_distribution:
        ``"uniform"`` (the paper's Algorithm 2, and what the ``B k / |V|``
        amplification analysis of Theorem 7 assumes) or ``"unigram075"`` for
        word2vec-style degree^0.75 alias-table draws.  Keep the default for
        DP runs; the weighted distribution is intended for the non-private
        configurations.
    noise_mode:
        ``"per_example"`` draws an independent noise vector for every node
        pair (the literal reading of Eqs. 19/21, i.e. what optimising
        Eq. (24) produces), ``"per_batch"`` adds one noise draw scaled for the
        batch-sum sensitivity (the literal reading of Eqs. 22/23).  Both
        guarantee the same DP statement; ``"per_example"`` is the default and
        what the utility experiments use.
    average_gradients:
        If ``True`` the batch update divides by ``B`` exactly as written in
        Eqs. (22)-(23).  The default ``False`` follows the convention of
        word2vec/LINE implementations (per-pair accumulation, the ``1/B``
        factor absorbed into the learning rate), which is what makes the
        paper's learning rates (0.01-0.3) produce visible progress within the
        step counts the privacy budget allows.
    backend:
        Compute backend spec ``name[:device][:precision]`` (``"numpy"``
        default, ``"torch"``, ``"torch:cuda"``, ``"torch:cuda:fast"``;
        ``None`` defers to ``$REPRO_BACKEND`` and then numpy — see
        :mod:`repro.backend`).  The choice affects *only* where matmuls and
        activations execute and at what width (``exact`` float64, the
        default and bit-for-bit with the numpy reference, or ``fast``
        float32 device-resident arithmetic): the DP guarantee is
        backend-independent, because the RDP accountant is charged from the
        sampling probabilities and the noise multiplier alone — and the
        Gaussian noise itself is drawn from the same seeded numpy stream on
        every backend before being transferred, so a fixed seed yields the
        same mechanism invocations (and the same budget-driven early stop)
        under every backend and precision.
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
    negative_distribution: str = "uniform"
    noise_mode: str = "per_example"
    normalize_embeddings: bool = True
    average_gradients: bool = False
    rdp_orders: Tuple[int, ...] = field(default_factory=lambda: tuple(range(2, 65)))
    backend: Optional[str] = None

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
        check_negative_distribution(self.negative_distribution)
        if self.noise_mode not in ("per_example", "per_batch"):
            raise ValueError(
                f"noise_mode must be 'per_example' or 'per_batch', got {self.noise_mode!r}"
            )
        if any(int(o) != o or o < 2 for o in self.rdp_orders):
            raise ValueError("rdp_orders must all be integers >= 2")
        if self.backend is not None:
            self.backend = str(self.backend)

    def without_privacy(self) -> "AdvSGMConfig":
        """Return a copy of this config with differential privacy disabled."""
        from dataclasses import replace

        return replace(self, dp_enabled=False)
