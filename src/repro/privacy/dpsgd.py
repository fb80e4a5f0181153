"""The baselines' DP-SGD row step (Eq. 5 of the paper).

DP-SGM (and DP-ASGM, which inherits it) and DPGGAN update embedding rows
with the same recipe: clip each per-pair gradient row to L2 norm ``C``,
add Gaussian noise of standard deviation ``B * C * sigma`` to each row, and
apply ``(g + n / B) * lr / B``.  The noise scale follows Section III-B: the
sensitivity of the clipped-gradient *sum* is ``B * C`` rather than ``C``,
because one node can appear in every pair of a batch of ``B``.

AdvSGM's own step (``AdvSGMDiscriminator.perturbed_batch_gradients`` and
``apply_gradients``) differs in its noise and averaging and stays separate.
Each caller charges its own accountant.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.backend import NUMPY_BACKEND
from repro.privacy.clipping import clip_rows_by_l2_norm

#: ``(matrix, rows, grads)``: add ``grads[p]`` into ``matrix[rows[p]]``.
Target = Tuple[np.ndarray, np.ndarray, np.ndarray]


def dpsgd_row_step(
    targets: Iterable[Target],
    rng: np.random.Generator,
    clip_norm: float,
    noise_multiplier: float,
    learning_rate: float,
) -> None:
    """Clip, noise and apply each target's per-pair gradient rows, in order.

    Each target's ``B`` rows are clipped to ``clip_norm``, receive one
    ``N(0, (B * C * sigma)^2)`` draw per row from ``rng`` and are added,
    as ``(g + n / B) * (lr / B)``, into their matrix with a scatter-add, so
    repeated rows accumulate and two targets may share one matrix.  The
    targets are processed one after another, so the noise draws and the
    adds both follow target order.
    """
    for matrix, rows, grads in targets:
        count = grads.shape[0]
        clipped = clip_rows_by_l2_norm(grads, clip_norm)
        noise_std = count * clip_norm * noise_multiplier
        noise = NUMPY_BACKEND.gaussian(rng, 0.0, noise_std, tuple(clipped.shape))
        NUMPY_BACKEND.index_add_(
            matrix, rows, (clipped + noise / count) * (learning_rate / count)
        )
