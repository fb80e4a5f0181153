"""Private baselines the paper compares against.

* :class:`DPSGM` — skip-gram trained with DPSGD (Eq. 6 sensitivity analysis).
* :class:`DPASGM` — the Section III-B first-cut solution: adversarial
  skip-gram trained with DPSGD.
* :class:`DPGGAN` / :class:`DPGVAE` — simplified reimplementations of the
  DPSGD-trained graph GAN / graph VAE generative models of Yang et al. 2021.
* :class:`GAP` — aggregation-perturbation GNN (Sajadmanesh et al. 2023).
* :class:`DPAR` — decoupled GNN with node-level DP via a privatised
  PageRank-style propagation (Zhang et al. 2024).

Each baseline captures the defining perturbation mechanism of the original
method at a scale that runs on a laptop.
"""

from repro.baselines.dpsgm import DPSGM, DPSGMConfig
from repro.baselines.dpasgm import DPASGM, DPASGMConfig
from repro.baselines.dpggan import DPGGAN, DPGGANConfig
from repro.baselines.dpgvae import DPGVAE, DPGVAEConfig
from repro.baselines.gap import GAP, GAPConfig
from repro.baselines.dpar import DPAR, DPARConfig

__all__ = [
    "DPSGM",
    "DPSGMConfig",
    "DPASGM",
    "DPASGMConfig",
    "DPGGAN",
    "DPGGANConfig",
    "DPGVAE",
    "DPGVAEConfig",
    "GAP",
    "GAPConfig",
    "DPAR",
    "DPARConfig",
]
