"""AdvSGM discriminator: skip-gram module + adversarial module with
optimizable noise terms (Section IV of the paper).

The discriminator owns the two embedding matrices ``W_in`` / ``W_out`` and is
responsible for producing the *perturbed* gradients of Theorem 6:

    d L_Nov / d v_i = clip(d L_sgm / d v_i + v'_j) + N_D,1(C^2 sigma^2 I)
    d L_Nov / d v_j = clip(d L_sgm / d v_j + v'_i) + N_D,2(C^2 sigma^2 I)

which are exactly the DPSGD-style noisy clipped gradients — no extra noise is
injected on top of the adversarial module's own noise terms.  The class also
exposes the loss value ``L_Nov`` under different weight settings (lambda =
0.5, 1 or 1/S(.)) for the Fig. 2 rationality experiment.

The tensor math is plain numpy on float64 arrays; the shared kernels
(scatter-add, row normalisation, Gaussian draws) go through
:data:`repro.backend.NUMPY_BACKEND`, and the noise terms come from the
discriminator's seeded numpy stream, so one seed reproduces the mechanism.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.backend import NUMPY_BACKEND
from repro.core.config import AdvSGMConfig
from repro.graph.sampling import SampleBatch
from repro.nn.constrained_sigmoid import ConstrainedSigmoid
from repro.nn.functional import pair_gradients, rowwise_dot, score_pairs
from repro.nn.init import uniform_embedding
from repro.privacy.clipping import clip_rows_by_l2_norm
from repro.utils.rng import RngLike, ensure_rng


class AdvSGMDiscriminator:
    """Skip-gram + adversarial module with DP gradient perturbation.

    Parameters
    ----------
    num_nodes:
        Number of nodes in the training graph.
    config:
        Shared :class:`AdvSGMConfig`.
    rng:
        Seed or generator used for initialisation and for the activation
        noise terms ``N_D,1`` / ``N_D,2``.
    """

    def __init__(
        self,
        num_nodes: int,
        config: AdvSGMConfig,
        rng: RngLike = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.config = config
        self._rng = ensure_rng(rng)
        dim = config.embedding_dim
        self.w_in = uniform_embedding(num_nodes, dim, rng=self._rng)
        self.w_out = uniform_embedding(num_nodes, dim, rng=self._rng)
        self.sigmoid = ConstrainedSigmoid(config.sigmoid_a, config.sigmoid_b)
        if config.normalize_embeddings:
            self.normalize()

    # ------------------------------------------------------------------
    # embeddings
    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Released node embeddings (input vectors), as a numpy array."""
        return NUMPY_BACKEND.to_numpy(self.w_in)

    def normalize(self) -> None:
        """Rescale embedding rows to unit norm (Algorithm 3, line 2).

        The paper normalises the skip-gram parameters once at initialisation
        so that the clipping threshold C = 1 is commensurate with the
        gradient magnitudes.
        """
        for matrix in (self.w_in, self.w_out):
            NUMPY_BACKEND.normalize_rows_(matrix, 1e-12)

    def pair_scores(self, pairs: np.ndarray) -> np.ndarray:
        """Inner products ``v_i . v_j`` (input row i, output row j)."""
        return score_pairs(pairs, self.w_in, self.w_out)

    # ------------------------------------------------------------------
    # noise terms
    # ------------------------------------------------------------------
    def activation_noise(self, count: int) -> np.ndarray:
        """Draw the optimizable noise vectors ``N_D(C^2 sigma^2 I)``.

        When DP is disabled the noise is identically zero, which reduces the
        model to the non-private adversarial skip-gram of Section II-B.
        """
        if not self.config.dp_enabled:
            return np.zeros((count, self.config.embedding_dim))
        std = self.config.clip_norm * self.config.noise_multiplier
        return NUMPY_BACKEND.gaussian(
            self._rng, 0.0, std, (count, self.config.embedding_dim)
        )

    # ------------------------------------------------------------------
    # losses (used by Fig. 2 and for monitoring)
    # ------------------------------------------------------------------
    def skipgram_objective(self, pairs: np.ndarray, positive: bool) -> np.ndarray:
        """Per-pair skip-gram log-likelihood term using the constrained sigmoid."""
        scores = self.pair_scores(pairs)
        if positive:
            values = self.sigmoid(scores)
        else:
            values = self.sigmoid(-scores)
        return np.log(np.clip(values, 1e-12, None))

    def adversarial_loss_terms(
        self,
        pairs: np.ndarray,
        fake_vj: np.ndarray,
        fake_vi: np.ndarray,
        noise_1: np.ndarray,
        noise_2: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair adversarial terms and discriminant values.

        Returns ``(adv1, adv2, f1, f2)`` where ``adv1 = -log(1 - S(v_i.v'_j +
        n1.v_i))`` and ``adv2`` is the symmetric term (Eq. 13).
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        vi = np.take(self.w_in, pairs[:, 0], axis=0)
        vj = np.take(self.w_out, pairs[:, 1], axis=0)
        scores_1 = rowwise_dot(vi, fake_vj) + rowwise_dot(noise_1, vi)
        scores_2 = rowwise_dot(fake_vi, vj) + rowwise_dot(noise_2, vj)
        f1 = self.sigmoid(scores_1)
        f2 = self.sigmoid(scores_2)
        adv1 = -np.log(np.clip(1.0 - f1, 1e-12, None))
        adv2 = -np.log(np.clip(1.0 - f2, 1e-12, None))
        return adv1, adv2, f1, f2

    def novel_loss(
        self,
        batch: SampleBatch,
        fake_vj: np.ndarray,
        fake_vi: np.ndarray,
        lambda_mode: str = "inverse_sigmoid",
    ) -> float:
        """Value of ``L_Nov`` (Eq. 24) averaged over the batch.

        ``lambda_mode`` selects the weight setting: ``"inverse_sigmoid"`` for
        the paper's ``lambda = 1/S(.)``, or a float-like string / number is
        not accepted — use :meth:`novel_loss_with_constant` for constants.
        """
        return self._novel_loss(batch, fake_vj, fake_vi, lambda_mode, None)

    def novel_loss_with_constant(
        self,
        batch: SampleBatch,
        fake_vj: np.ndarray,
        fake_vi: np.ndarray,
        lambda_value: float,
    ) -> float:
        """Value of ``L_Nov`` with a constant weight (baselines in Fig. 2)."""
        return self._novel_loss(batch, fake_vj, fake_vi, "constant", lambda_value)

    def _novel_loss(
        self,
        batch: SampleBatch,
        fake_vj: np.ndarray,
        fake_vi: np.ndarray,
        lambda_mode: str,
        lambda_value: float | None,
    ) -> float:
        pos = batch.positive_edges
        count = pos.shape[0]
        noise_1 = self.activation_noise(count)
        noise_2 = self.activation_noise(count)
        sgm_pos = self.skipgram_objective(pos, positive=True)
        sgm_neg = self.skipgram_objective(batch.negative_pairs, positive=False)
        sgm = sgm_pos.sum() + sgm_neg.sum()
        adv1, adv2, f1, f2 = self.adversarial_loss_terms(
            pos, fake_vj, fake_vi, noise_1, noise_2
        )
        if lambda_mode == "inverse_sigmoid":
            lam1 = 1.0 / np.clip(f1, 1e-12, None)
            lam2 = 1.0 / np.clip(f2, 1e-12, None)
        elif lambda_mode == "constant":
            if lambda_value is None:
                raise ValueError("lambda_value required for constant mode")
            lam1 = np.full_like(f1, float(lambda_value))
            lam2 = np.full_like(f2, float(lambda_value))
        else:
            raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
        total = sgm + float(np.sum(lam1 * adv1)) + float(np.sum(lam2 * adv2))
        return float(total / max(1, count))

    # ------------------------------------------------------------------
    # gradient computation (Theorem 6)
    # ------------------------------------------------------------------
    def perturbed_batch_gradients(
        self,
        pairs: np.ndarray,
        fake_vj: np.ndarray,
        fake_vi: np.ndarray,
        positive: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Perturbed, clipped gradients per Theorem 6 for one (sub-)batch.

        Parameters
        ----------
        pairs:
            ``(n, 2)`` node pairs — positive edges or Algorithm-2 negatives.
        fake_vj, fake_vi:
            Fake neighbours aligned with ``pairs`` (one per pair).
        positive:
            Whether ``pairs`` are positive samples (affects the skip-gram
            gradient sign).

        Returns
        -------
        (grad_in_rows, in_nodes, grad_out_rows, out_nodes):
            Per-pair noisy clipped gradient rows and the node index each row
            applies to, for the input and output embedding matrices.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        count = pairs.shape[0]
        # Ascent gradients of log S(v_i.v_j) (positive) or log S(-v_i.v_j)
        # (negative) with respect to v_i and v_j.
        vi = np.take(self.w_in, pairs[:, 0], axis=0)
        vj = np.take(self.w_out, pairs[:, 1], axis=0)
        _, _, grad_vi, grad_vj = pair_gradients(
            vi, vj, count if positive else 0, self.sigmoid
        )

        # Theorem 6: with lambda = 1/S(.), the adversarial module contributes
        # exactly (v' + N_D) to each gradient, so the update becomes
        # clip(d L_sgm / d v + v') + N_D.
        clipped_in = clip_rows_by_l2_norm(grad_vi + fake_vj, self.config.clip_norm)
        clipped_out = clip_rows_by_l2_norm(grad_vj + fake_vi, self.config.clip_norm)

        if self.config.dp_enabled:
            if self.config.noise_mode == "per_example":
                noise_in = self.activation_noise(count)
                noise_out = self.activation_noise(count)
            else:
                # One draw scaled for the batch-sum sensitivity B*C (Eq. 22),
                # shared across the batch then averaged back per example.
                std = self.config.clip_norm * self.config.noise_multiplier
                dim = self.config.embedding_dim
                shared_in = NUMPY_BACKEND.gaussian(self._rng, 0.0, std * count, dim)
                shared_out = NUMPY_BACKEND.gaussian(self._rng, 0.0, std * count, dim)
                noise_in = np.tile(shared_in / count, (count, 1))
                noise_out = np.tile(shared_out / count, (count, 1))
        else:
            noise_in = np.zeros_like(clipped_in)
            noise_out = np.zeros_like(clipped_out)

        grad_in_rows = clipped_in + noise_in
        grad_out_rows = clipped_out + noise_out
        return grad_in_rows, pairs[:, 0], grad_out_rows, pairs[:, 1]

    def apply_gradients(
        self,
        grad_in_rows: np.ndarray,
        in_nodes: np.ndarray,
        grad_out_rows: np.ndarray,
        out_nodes: np.ndarray,
        learning_rate: float,
    ) -> None:
        """Accumulate per-pair gradients into their embedding rows and ascend.

        With ``config.average_gradients`` the update divides by the batch
        size exactly as in Eqs. (22)-(23); otherwise per-pair gradients are
        applied with the full learning rate (standard skip-gram SGD
        convention, the ``1/B`` absorbed into the learning rate).  Ascent
        because the skip-gram objective is a log-likelihood to be maximised.
        """
        batch_size = max(1, grad_in_rows.shape[0])
        scale = learning_rate / batch_size if self.config.average_gradients else learning_rate
        NUMPY_BACKEND.index_add_(self.w_in, in_nodes, scale * grad_in_rows)
        NUMPY_BACKEND.index_add_(self.w_out, out_nodes, scale * grad_out_rows)
        # Parameters are normalised only at initialisation (Algorithm 3,
        # line 2); re-normalising after every noisy update would keep erasing
        # the accumulated signal while the injected noise averages out over
        # steps, so the released embeddings are the raw post-processed sums.

    def parameters(self) -> Dict[str, np.ndarray]:
        """Embedding matrices as a parameter dict (Theta_D of the paper)."""
        return {"w_in": self.w_in, "w_out": self.w_out}
