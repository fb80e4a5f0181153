"""Table III — impact of the batch size on AdvSGM link prediction (eps=6).

The paper sweeps B over {16, 32, 64, 128, 256, 512}.  Note on the
reproduction: because the synthetic dataset analogues have roughly 4-10x
fewer nodes and edges than the originals, the privacy-amplification rate
``B k / |V|`` for a given B is correspondingly larger, so the best batch size
shifts towards smaller values than the paper's optimum of 128.
"""

from __future__ import annotations

from typing import Dict

from repro.api import ExperimentSpec
from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import (
    mean_and_std,
    run_spec,
    settings_model,
    spec_from_settings,
)

#: Batch sizes swept in Table III.
BATCH_SIZES = (16, 32, 64, 128, 256, 512)
#: Datasets reported in Table III.
TABLE3_DATASETS = ("ppi", "facebook", "blog")
#: Privacy budget used for the sweep.
EPSILON = 6.0


def spec(
    settings: ExperimentSettings,
    batch_sizes=BATCH_SIZES,
    datasets=TABLE3_DATASETS,
) -> ExperimentSpec:
    """One AdvSGM column per swept batch size."""
    models = [
        settings_model("advsgm", settings, label=str(int(b)), batch_size=int(b))
        for b in batch_sizes
    ]
    return spec_from_settings(
        "link_prediction", datasets, models, settings, epsilons=(EPSILON,)
    )


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
    settings = settings or ExperimentSettings.quick()
    rows = run_spec(
        spec(settings, batch_sizes, datasets),
        workers=workers, cache=cache, resume=resume, force=force,
    )
    results: Dict[int, Dict[str, Dict[str, float]]] = {}
    for batch_size in batch_sizes:
        results[batch_size] = {}
        for dataset in datasets:
            aucs = [
                r["auc"]
                for r in rows
                if r["model"] == str(int(batch_size)) and r["dataset"] == dataset
            ]
            mean, std = mean_and_std(aucs)
            results[batch_size][dataset] = {"mean": mean, "std": std}
    return results


def format_table(results: Dict[int, Dict[str, Dict[str, float]]]) -> str:
    """Render Table III as text."""
    datasets = list(next(iter(results.values())).keys())
    lines = ["Table III - AUC vs batch size (epsilon = 6)"]
    lines.append(f"{'B':<8}" + "".join(f"{d:>20}" for d in datasets))
    for batch_size, row in results.items():
        cells = "".join(
            f"{row[d]['mean']:>14.4f}±{row[d]['std']:.4f}" for d in datasets
        )
        lines.append(f"{batch_size:<8}" + cells)
    return "\n".join(lines)
