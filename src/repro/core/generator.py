"""Fake-neighbour generators (Section II-B.1 and Eq. 17 of the paper).

AdvSGM uses two generators: ``G_{v'_j}`` produces a fake neighbour for the
real node ``v_i`` and ``G_{v'_i}`` produces a fake neighbour for ``v_j``.
Each generator maps a Gaussian noise vector through a learnable matrix and a
sigmoid non-linearity:

    v' = phi(z @ theta),      z ~ N(0, I_r)

Both generators are trained to *fool* the discriminator: they minimise
``log(1 - F(v_real . v_fake + noise_term))`` (Eq. 17), i.e. they push the
discriminant probability of the fake pair towards 1.  The generators never
touch the private graph directly — they only see discriminator embeddings that
are already differentially private, so their updates are post-processing.

Like the discriminator, the generators draw all randomness from seeded numpy
streams, so one seed reproduces the run.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.backend import NUMPY_BACKEND
from repro.nn.constrained_sigmoid import ConstrainedSigmoid
from repro.nn.functional import rowwise_dot, sigmoid
from repro.nn.init import xavier_uniform
from repro.utils.rng import RngLike, ensure_rng


class FakeNeighbourGenerator:
    """One noise-to-embedding generator.

    Parameters
    ----------
    embedding_dim:
        Dimension ``r`` of the node embeddings it must imitate.
    rng:
        Seed or generator for noise draws and initialisation.
    """

    def __init__(
        self,
        embedding_dim: int,
        rng: RngLike = None,
    ) -> None:
        if embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive, got {embedding_dim}")
        self._rng = ensure_rng(rng)
        self.embedding_dim = int(embedding_dim)
        self.theta = xavier_uniform((embedding_dim, embedding_dim), rng=self._rng)
        self._last_noise: np.ndarray | None = None
        self._last_activation: np.ndarray | None = None

    def generate(self, count: int) -> np.ndarray:
        """Produce ``count`` fake-neighbour embeddings, caching intermediates.

        The cached noise and activation are needed by :meth:`backward` to
        compute the gradient of the generator loss with respect to ``theta``.
        The caller gets a copy, so writing into it cannot change the gradient.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        noise = NUMPY_BACKEND.gaussian(self._rng, 0.0, 1.0, (count, self.embedding_dim))
        act = sigmoid(noise @ self.theta)
        self._last_noise = noise
        self._last_activation = act
        return np.array(act, dtype=np.float64)

    def backward(self, grad_fake: np.ndarray) -> Dict[str, np.ndarray]:
        """Gradient of the loss w.r.t. ``theta`` given d(loss)/d(fake embeddings).

        Parameters
        ----------
        grad_fake:
            ``(count, embedding_dim)`` gradient of the generator loss with
            respect to the fake embeddings returned by the latest
            :meth:`generate` call.
        """
        act = self._last_activation
        if self._last_noise is None or act is None:
            raise RuntimeError("backward called before generate")
        grad_fake = np.asarray(grad_fake, dtype=np.float64)
        if tuple(grad_fake.shape) != tuple(act.shape):
            raise ValueError(
                "grad_fake shape does not match the last generated batch: "
                f"{tuple(grad_fake.shape)} vs {tuple(act.shape)}"
            )
        grad_pre = grad_fake * act * (1.0 - act)
        grad_theta = self._last_noise.T @ grad_pre
        return {"theta": grad_theta}


class GeneratorPair:
    """The two AdvSGM generators plus their adversarial training logic.

    ``generator_j`` fabricates neighbours ``v'_j`` for real nodes ``v_i`` and
    ``generator_i`` fabricates neighbours ``v'_i`` for real nodes ``v_j``.
    """

    def __init__(
        self,
        embedding_dim: int,
        noise_multiplier: float = 5.0,
        clip_norm: float = 1.0,
        sigmoid_a: float = 1e-5,
        sigmoid_b: float = 120.0,
        dp_enabled: bool = True,
        rng: RngLike = None,
    ) -> None:
        rng = ensure_rng(rng)
        seed_j = int(rng.integers(0, 2**63 - 1))
        seed_i = int(rng.integers(0, 2**63 - 1))
        self.generator_j = FakeNeighbourGenerator(embedding_dim, rng=seed_j)
        self.generator_i = FakeNeighbourGenerator(embedding_dim, rng=seed_i)
        self._rng = rng
        self.noise_multiplier = float(noise_multiplier)
        self.clip_norm = float(clip_norm)
        self.dp_enabled = bool(dp_enabled)
        self.discriminant = ConstrainedSigmoid(sigmoid_a, sigmoid_b)
        self.embedding_dim = int(embedding_dim)

    def generate_pairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Fake neighbours ``v'_j`` (for v_i) and ``v'_i`` (for v_j)."""
        return self.generator_j.generate(count), self.generator_i.generate(count)

    def _activation_noise(self, count: int) -> np.ndarray:
        """Noise vectors ``N_G(C^2 sigma^2 I)`` entering the generator loss."""
        if not self.dp_enabled:
            return np.zeros((count, self.embedding_dim))
        std = self.clip_norm * self.noise_multiplier
        return NUMPY_BACKEND.gaussian(self._rng, 0.0, std, (count, self.embedding_dim))

    def train_step(
        self,
        real_vi: np.ndarray,
        real_vj: np.ndarray,
        learning_rate: float,
    ) -> float:
        """One generator update on real node-embedding pairs (Eq. 17).

        Parameters
        ----------
        real_vi, real_vj:
            Embeddings of the real node pairs ``(v_i, v_j)`` drawn from the
            (already privatised) discriminator.
        learning_rate:
            Step size for the theta updates.

        Returns
        -------
        float
            The generator loss value before the update.
        """
        real_vi = np.asarray(real_vi, dtype=np.float64)
        real_vj = np.asarray(real_vj, dtype=np.float64)
        if tuple(real_vi.shape) != tuple(real_vj.shape):
            raise ValueError("real_vi and real_vj must have the same shape")
        count = real_vi.shape[0]
        fake_vj, fake_vi = self.generate_pairs(count)
        noise_1 = self._activation_noise(count)
        noise_2 = self._activation_noise(count)

        scores_1 = rowwise_dot(real_vi, fake_vj) + rowwise_dot(noise_1, real_vi)
        scores_2 = rowwise_dot(fake_vi, real_vj) + rowwise_dot(noise_2, real_vj)
        f1 = self.discriminant(scores_1)
        f2 = self.discriminant(scores_2)
        loss = float(np.mean(np.log(1.0 - f1 + 1e-12) + np.log(1.0 - f2 + 1e-12)))

        # d/d(fake) of log(1 - F(s)) = -F(s) * real  (sigmoid derivative folded
        # into F itself); we descend on the loss, i.e. move fakes to raise F.
        grad_fake_vj = (-f1)[:, None] * real_vi / count
        grad_fake_vi = (-f2)[:, None] * real_vj / count
        grads_j = self.generator_j.backward(grad_fake_vj)
        grads_i = self.generator_i.backward(grad_fake_vi)
        self.generator_j.theta -= learning_rate * grads_j["theta"]
        self.generator_i.theta -= learning_rate * grads_i["theta"]
        return loss
