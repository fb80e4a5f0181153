"""Table IV — impact of the constrained-sigmoid upper bound b (eps=6).

The paper sweeps b over {40, 60, 80, 100, 120, 140} with a = 1e-5 and finds
utility improving with b, choosing 120 as the default.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import advsgm_sweep, format_sweep

#: Upper bounds swept in Table IV.
BOUNDS = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0)
#: Datasets reported in Table IV.
TABLE4_DATASETS = ("ppi", "facebook", "blog")
#: Privacy budget used for the sweep.
EPSILON = 6.0


def run(
    settings: ExperimentSettings | None = None,
    bounds=BOUNDS,
    datasets=TABLE4_DATASETS,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Return ``{b: {dataset: {"mean": auc, "std": std}}}``."""
    return advsgm_sweep(
        settings or ExperimentSettings.quick(), bounds, datasets, EPSILON,
        label=lambda b: repr(float(b)),
        overrides=lambda b: {"sigmoid_b": float(b)},
        workers=workers, cache=cache, resume=resume, force=force,
    )


def format_table(results: Dict[float, Dict[str, Dict[str, float]]]) -> str:
    """Render Table IV as text."""
    return format_sweep("Table IV - AUC vs constrained-sigmoid bound b (epsilon = 6)", "b", results)
