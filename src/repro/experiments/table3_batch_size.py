"""Table III — impact of the batch size on AdvSGM link prediction (eps=6).

The paper sweeps B over {16, 32, 64, 128, 256, 512}.  Note on the
reproduction: because the synthetic dataset analogues have roughly 4-10x
fewer nodes and edges than the originals, the privacy-amplification rate
``B k / |V|`` for a given B is correspondingly larger, so the best batch size
shifts towards smaller values than the paper's optimum of 128.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import advsgm_sweep, format_sweep

#: Batch sizes swept in Table III.
BATCH_SIZES = (16, 32, 64, 128, 256, 512)
#: Datasets reported in Table III.
TABLE3_DATASETS = ("ppi", "facebook", "blog")
#: Privacy budget used for the sweep.
EPSILON = 6.0


def run(
    settings: ExperimentSettings | None = None,
    batch_sizes=BATCH_SIZES,
    datasets=TABLE3_DATASETS,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Return ``{batch_size: {dataset: {"mean": auc, "std": std}}}``."""
    return advsgm_sweep(
        settings or ExperimentSettings.quick(), batch_sizes, datasets, EPSILON,
        label=lambda b: str(int(b)),
        overrides=lambda b: {"batch_size": int(b)},
        workers=workers, cache=cache, resume=resume, force=force,
    )


def format_table(results: Dict[int, Dict[str, Dict[str, float]]]) -> str:
    """Render Table III as text."""
    return format_sweep("Table III - AUC vs batch size (epsilon = 6)", "B", results)
