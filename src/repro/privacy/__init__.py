"""Differential-privacy substrate.

Provides everything AdvSGM and the DPSGD baselines need:

* the Gaussian mechanism's RDP curve,
* gradient clipping,
* privacy amplification by subsampling without replacement (Theorem 4 of the
  paper, following Wang, Balle & Kasiviswanathan 2019),
* conversion of an RDP curve to (epsilon, delta)-DP (Theorem 3 /
  Mironov 2017),
* an :class:`RdpAccountant` that tracks spend across training steps and can
  calibrate the noise multiplier for a target budget,
* :func:`dpsgd_row_step`, the clip-noise-apply row update of the DP-SGM,
  DP-ASGM and DPGGAN baselines (Eq. 5).
"""

from repro.privacy.gaussian import gaussian_rdp
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm
from repro.privacy.subsampling import subsampled_gaussian_rdp
from repro.privacy.composition import rdp_to_dp, DEFAULT_RDP_ORDERS
from repro.privacy.accountant import RdpAccountant, PrivacySpent
from repro.privacy.dpsgd import dpsgd_row_step

__all__ = [
    "gaussian_rdp",
    "clip_by_l2_norm",
    "clip_rows_by_l2_norm",
    "subsampled_gaussian_rdp",
    "rdp_to_dp",
    "DEFAULT_RDP_ORDERS",
    "RdpAccountant",
    "PrivacySpent",
    "dpsgd_row_step",
]
