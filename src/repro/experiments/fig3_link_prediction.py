"""Fig. 3 — link-prediction AUC vs privacy budget for all private methods.

Five methods (DPGGAN, DPGVAE, GAP, DPAR, AdvSGM) across six datasets and six
budgets.  The qualitative claim to reproduce: AdvSGM dominates the other
private methods and its AUC grows with epsilon, while the baselines stay flat
near 0.5.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.api import ExperimentSpec
from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import (
    PRIVATE_MODEL_NAMES,
    format_series,
    series_sweep,
    spec_from_settings,
)

#: Datasets shown in Fig. 3 (panels a-f).
FIG3_DATASETS = ("ppi", "facebook", "wiki", "blog", "epinions", "dblp")


def spec(
    settings: ExperimentSettings | None = None,
    datasets: Iterable[str] = FIG3_DATASETS,
    models: Iterable[str] = PRIVATE_MODEL_NAMES,
    epsilons: Iterable[float] | None = None,
) -> ExperimentSpec:
    """The declarative (dataset x model x epsilon) grid behind Fig. 3."""
    settings = settings or ExperimentSettings.quick()
    return spec_from_settings(
        "link_prediction", datasets, models, settings, epsilons=epsilons, repeats=1
    )


def run(
    settings: ExperimentSettings | None = None,
    datasets: Iterable[str] = FIG3_DATASETS,
    models: Iterable[str] = PRIVATE_MODEL_NAMES,
    epsilons: Iterable[float] | None = None,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Return ``{dataset: {model: {epsilon: auc}}}``.

    ``cache``/``resume``/``force`` behave as in
    :func:`repro.experiments.runners.run_spec`: completed cells are loaded
    from the result store instead of recomputed.
    """
    return series_sweep(
        "link_prediction", "auc", settings, datasets, models, epsilons,
        workers=workers, cache=cache, resume=resume, force=force,
    )


def format_table(results: Dict[str, Dict[str, Dict[float, float]]]) -> str:
    """Render the Fig. 3 series as one text block per dataset panel."""
    return format_series("Fig. 3 - link-prediction AUC vs epsilon", results)
