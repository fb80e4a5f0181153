"""Fig. 4 — node-clustering mutual information vs privacy budget.

Same five private methods as Fig. 3, evaluated by Affinity Propagation
clustering MI on the three labelled datasets (PPI, Wiki, Blog).  The claim to
reproduce: AdvSGM attains the highest MI among private methods at every
budget.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import PRIVATE_MODEL_NAMES, format_series, series_sweep

#: Labelled datasets shown in Fig. 4 (panels a-c).
FIG4_DATASETS = ("ppi", "wiki", "blog")


def run(
    settings: ExperimentSettings | None = None,
    datasets: Iterable[str] = FIG4_DATASETS,
    models: Iterable[str] = PRIVATE_MODEL_NAMES,
    epsilons: Iterable[float] | None = None,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Return ``{dataset: {model: {epsilon: mi}}}``.

    ``cache``/``resume``/``force`` behave as in
    :func:`repro.experiments.runners.run_spec`.
    """
    return series_sweep(
        "node_clustering", "mi", settings, datasets, models, epsilons,
        workers=workers, cache=cache, resume=resume, force=force,
    )


def format_table(results: Dict[str, Dict[str, Dict[float, float]]]) -> str:
    """Render the Fig. 4 series as one text block per dataset panel."""
    return format_series("Fig. 4 - node-clustering MI vs epsilon", results)
