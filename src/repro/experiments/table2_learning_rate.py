"""Table II — impact of the learning rate on AdvSGM link prediction (eps=6).

The paper sweeps eta_d = eta_g over {0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
on PPI, Facebook and Blog and finds 0.1 best.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import advsgm_sweep, format_sweep

#: Learning rates swept in Table II.
LEARNING_RATES = (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
#: Datasets reported in Table II.
TABLE2_DATASETS = ("ppi", "facebook", "blog")
#: Privacy budget used for the sweep.
EPSILON = 6.0


def run(
    settings: ExperimentSettings | None = None,
    learning_rates=LEARNING_RATES,
    datasets=TABLE2_DATASETS,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Return ``{learning_rate: {dataset: {"mean": auc, "std": std}}}``."""
    return advsgm_sweep(
        settings or ExperimentSettings.quick(), learning_rates, datasets, EPSILON,
        label=lambda lr: repr(float(lr)),
        overrides=lambda lr: {"learning_rate_d": lr, "learning_rate_g": lr},
        workers=workers, cache=cache, resume=resume, force=force,
    )


def format_table(results: Dict[float, Dict[str, Dict[str, float]]]) -> str:
    """Render Table II as text."""
    return format_sweep("Table II - AUC vs learning rate (epsilon = 6)", "eta", results)
