"""Constrained sigmoid via exponential clipping (Algorithm 1 of the paper).

The AdvSGM discriminator sets the module weights to ``lambda = 1 / S(.)``.
With a plain sigmoid this weight is unbounded as the input grows negative, so
the paper replaces ``exp`` inside the sigmoid with a *smoothly clipped*
exponential: ``exp_clip(x)`` is confined to ``[a, b]`` but keeps soft corners
(controlled by a tanh-derived constant) instead of hard saturation.  The
resulting ``S(x) = 1 / (1 + exp_clip(-x))`` lies in ``[1/(1+b), 1/(1+a)]`` and
therefore ``1/S(x)`` lies in ``[1+a, 1+b]``.
"""

from __future__ import annotations

import numpy as np

from repro.backend import NUMPY_BACKEND
from repro.backend.base import Backend
from repro.utils.validation import check_positive


def exponential_clip(
    x: np.ndarray,
    lower: float | None,
    upper: float | None,
) -> np.ndarray:
    """Smoothly clip values to ``[lower, upper]`` (Algorithm 1).

    Parameters
    ----------
    x:
        Input values (interpreted as the *exponential* value to clip, i.e. the
        caller passes ``exp(t)`` or, as in the constrained sigmoid, works in
        the exponential domain directly).
    lower, upper:
        Clipping bounds.  Either may be ``None`` to leave that side open.

    Returns
    -------
    numpy.ndarray
        Values confined to the requested interval with smooth corners.
    """
    x = np.asarray(x, dtype=np.float64)
    if lower is not None and upper is not None and not upper > lower:
        raise ValueError(f"upper must exceed lower, got lower={lower}, upper={upper}")

    # Constants from Algorithm 1: c_tanh = 2 / (e^2 + 1), c = 1 / (2 c_tanh),
    # rescaled by the interval half-width when both bounds are given.
    c_tanh = 2.0 / (np.exp(2.0) + 1.0)
    c = 1.0 / (2.0 * c_tanh)
    if lower is not None and upper is not None:
        c /= (upper - lower) / 2.0

    clipped = x
    if lower is not None:
        clipped = np.maximum(clipped, lower)
    if upper is not None:
        clipped = np.minimum(clipped, upper)

    result = np.asarray(clipped, dtype=np.float64).copy()
    if lower is not None:
        result = result + np.exp(-c * np.abs(x - lower)) / (2.0 * c)
    if upper is not None:
        result = result - np.exp(-c * np.abs(x - upper)) / (2.0 * c)
    return result


class ConstrainedSigmoid:
    """Sigmoid whose internal exponential is smoothly clipped to ``[a, b]``.

    ``S(x) = 1 / (1 + exp_clip(-x))`` where ``exp_clip`` confines ``exp(-x)``
    to ``[a, b]``.  Consequently ``S`` maps into ``[1/(1+b), 1/(1+a)]`` and the
    AdvSGM weight ``1/S`` is bounded in ``[1+a, 1+b]``.

    Parameters
    ----------
    a:
        Lower bound on the clipped exponential (paper default ``1e-5``).
    b:
        Upper bound on the clipped exponential (paper default ``120``).
    backend:
        Compute backend for the clip/exp math (numpy by default, bit-for-bit
        the historical implementation).
    """

    def __init__(
        self, a: float = 1e-5, b: float = 120.0, backend: Backend = NUMPY_BACKEND
    ) -> None:
        check_positive(a, "a")
        check_positive(b, "b")
        if not b > a:
            raise ValueError(f"b must exceed a, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self.backend = backend
        # Bounds on exp()'s argument: far enough outside [log a, log b] that
        # the hard clip below decides the value, and exp() cannot overflow.
        self._log_lower = np.log(self.a) - 30.0
        self._log_upper = np.log(self.b) + 30.0

    def clipped_exp(self, x: np.ndarray) -> np.ndarray:
        """Return ``exp(x)`` confined to ``[a, b]``.

        Algorithm 1's smooth-corner correction (``exponential_clip``) scales
        its corner width with the interval; with the paper's wide interval
        ``[1e-5, 120]`` that correction would also distort the mid-range where
        ``S`` must behave like an ordinary sigmoid, so the constrained sigmoid
        uses the hard-clipped exponential and keeps the smooth variant
        available as :func:`exponential_clip` for narrow intervals.
        """
        be = self.backend
        safe = be.clip(be.asarray(x), self._log_lower, self._log_upper)
        return be.clip(be.exp(safe), self.a, self.b)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``S(x) = 1 / (1 + exp_clip(-x))``."""
        return 1.0 / (1.0 + self.clipped_exp(-self.backend.asarray(x)))

    def inverse_weight(self, x: np.ndarray) -> np.ndarray:
        """Return the AdvSGM module weight ``lambda = 1 / S(x)``."""
        return 1.0 + self.clipped_exp(-self.backend.asarray(x))

    @property
    def output_range(self) -> tuple[float, float]:
        """Theoretical range of ``S``: ``(1/(1+b), 1/(1+a))``."""
        return (1.0 / (1.0 + self.b), 1.0 / (1.0 + self.a))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstrainedSigmoid(a={self.a}, b={self.b})"
