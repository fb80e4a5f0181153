"""Fig. 2 — rationality of the weight setting lambda = 1/S(.).

The paper evaluates the magnitude of the novel discriminator loss |L_D_Nov|
under three weight settings (lambda = 0.5, lambda = 1 and lambda = 1/S(.)) on
PPI, Facebook, Wiki and Blog, showing the gaps are small (< 6 vs 0.5, < 2 vs
1), which justifies the 1/S(.) choice needed by Theorem 6.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.config import AdvSGMConfig
from repro.core.discriminator import AdvSGMDiscriminator
from repro.core.generator import GeneratorPair
from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import settings_overrides
from repro.graph.datasets import load_dataset
from repro.graph.sampling import EdgeSampler
from repro.utils.rng import spawn_rngs

#: Datasets shown in Fig. 2.
FIG2_DATASETS = ("ppi", "facebook", "wiki", "blog")
#: Weight settings compared.
WEIGHT_SETTINGS = ("lambda=0.5", "lambda=1", "lambda=1/S")


def _loss_magnitudes(
    dataset: str, settings: ExperimentSettings, num_batches: int = 5
) -> Dict[str, float]:
    """Average |L_D_Nov| per weight setting on one dataset."""
    graph = load_dataset(dataset, scale=settings.dataset_scale, seed=settings.seed)
    config = AdvSGMConfig(epsilon=6.0, **settings_overrides("advsgm", settings))
    disc_rng, gen_rng, sample_rng = spawn_rngs(settings.seed, 3)
    discriminator = AdvSGMDiscriminator(graph.num_nodes, config, rng=disc_rng)
    generators = GeneratorPair(
        embedding_dim=config.embedding_dim,
        noise_multiplier=config.noise_multiplier,
        clip_norm=config.clip_norm,
        sigmoid_a=config.sigmoid_a,
        sigmoid_b=config.sigmoid_b,
        dp_enabled=config.dp_enabled,
        rng=gen_rng,
    )
    sampler = EdgeSampler(
        graph,
        batch_size=config.batch_size,
        num_negatives=config.num_negatives,
        rng=sample_rng,
    )
    totals = {name: [] for name in WEIGHT_SETTINGS}
    for _ in range(num_batches):
        batch = sampler.sample()
        fake_vj, fake_vi = generators.generate_pairs(batch.batch_size)
        totals["lambda=0.5"].append(
            abs(discriminator.novel_loss_with_constant(batch, fake_vj, fake_vi, 0.5))
        )
        totals["lambda=1"].append(
            abs(discriminator.novel_loss_with_constant(batch, fake_vj, fake_vi, 1.0))
        )
        totals["lambda=1/S"].append(
            abs(discriminator.novel_loss(batch, fake_vj, fake_vi))
        )
    return {name: float(np.mean(vals)) for name, vals in totals.items()}


def run(settings: ExperimentSettings | None = None) -> Dict[str, Dict[str, float]]:
    """Compute Fig. 2: dataset -> weight setting -> average |L_D_Nov|."""
    settings = settings or ExperimentSettings.quick()
    return {dataset: _loss_magnitudes(dataset, settings) for dataset in FIG2_DATASETS}


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    """Render the Fig. 2 bar values as a text table."""
    lines: List[str] = ["Fig. 2 - average |L_D_Nov| by weight setting"]
    header = f"{'dataset':<10}" + "".join(f"{name:>14}" for name in WEIGHT_SETTINGS)
    lines.append(header)
    for dataset, row in results.items():
        lines.append(
            f"{dataset:<10}" + "".join(f"{row[name]:>14.3f}" for name in WEIGHT_SETTINGS)
        )
    return "\n".join(lines)
