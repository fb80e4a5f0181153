"""The four benchmark workloads.

Each workload builds its inputs from a seed (:meth:`Workload.setup`) and then
runs one timed repetition at a time (:meth:`Workload.run`), returning an
:class:`Outcome` with its timings, its outputs and the checks they failed.
One repetition is one closed-loop client operation sequence: a single
process computing one cell or fit at a time, with no worker pool.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api import ExperimentSpec, ModelSpec
from repro.api.registry import make_model
from repro.cache import ResultStore
from repro.core.advsgm import AdvSGM
from repro.embedding.deepwalk import DeepWalk
from repro.embedding.skipgram import SkipGramModel
from repro.evals.metrics import roc_auc_score
from repro.experiments import fig3_link_prediction, runners
from repro.experiments.config import ExperimentSettings
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.graph.sampling import EdgeSampler

#: Scratch space for fig3-sweep's result stores, inside the checkout.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"

#: Released ε may exceed its target by this factor before a cell is failed
#: (AdvSGM applies the step that crosses the budget: 6.0007 at target 6).
EPSILON_SLACK = 1.05


def settings(size: str) -> ExperimentSettings:
    """Paper-default settings; ``tiny`` is the smoke preset on a graph just
    large enough that AdvSGM's first step does not overshoot ε = 2."""
    if size == "tiny":
        return replace(ExperimentSettings.smoke(), dataset_scale=0.5)
    return ExperimentSettings()


@dataclass
class Op:
    """One checked operation: a computed cell or fit, or a resume pass."""

    signature: Tuple[Any, ...]
    problem: Optional[str] = None


@dataclass
class Outcome:
    """What one timed repetition produced.

    ``cells / cell_seconds`` is ``cells_per_s``.  On fig3-sweep
    ``cell_seconds`` is the whole cold pass.  On the single-cell workloads
    it is the ``fit`` time: fits per second of fitting, which leaves out the
    per-cell graph, split and evaluation that ``wall_s`` includes and, unlike
    ``pair_updates_per_s``, does not scale with how many updates a fit makes.
    """

    wall: float
    fit: float
    pair_updates: int
    cells: int
    cell_seconds: float
    auc: float
    epsilon: Optional[float]
    ops: List[Op] = field(default_factory=list)


def digest(embeddings: np.ndarray) -> str:
    """Short content hash of an embedding matrix."""
    data = np.ascontiguousarray(embeddings, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def pair_updates(model: Any) -> int:
    """Positive plus negative pair gradient updates ``model.fit`` applied."""
    cfg = model.config
    if isinstance(model, AdvSGM):
        # Substeps alternate positive (B pairs) and negative (B*k pairs),
        # and each one charges the accountant exactly once.
        steps = model.accountant.steps
        batch = model.sampler.positive_batch_size
        return (steps + 1) // 2 * batch + steps // 2 * batch * cfg.num_negatives
    if isinstance(model, DeepWalk):
        return model.pair_source_.num_pairs * cfg.num_epochs * (1 + cfg.num_negatives)
    if isinstance(model, SkipGramModel):
        batches = cfg.num_epochs * cfg.batches_per_epoch
        return batches * model.sampler.positive_batch_size * (1 + cfg.num_negatives)
    return 0


def epsilon_spent(model: Any) -> Optional[float]:
    spent = model.privacy_spent() if hasattr(model, "privacy_spent") else None
    return None if spent is None else float(spent.epsilon)


def check_model(model: Any, auc: float, target: Optional[float]) -> Optional[str]:
    """The first problem with a trained model's released outputs, if any."""
    if not np.all(np.isfinite(model.embeddings_)):
        return "non-finite embeddings"
    if not 0.0 <= auc <= 1.0:
        return f"auc {auc!r} outside [0, 1]"
    eps = epsilon_spent(model)
    if target is not None:
        if eps is None or not math.isfinite(eps):
            return f"no finite epsilon reported (target {target})"
        if eps > target * EPSILON_SLACK:
            return f"epsilon {eps:.4f} over target {target}"
    return None


def cell_graph_shape(cell: Any) -> Tuple[int, int]:
    """Build the dataset graph a cell trains on; its ``(nodes, edges)``."""
    graph = load_dataset(cell.dataset, scale=cell.dataset_scale, seed=cell.dataset_seed)
    return graph.num_nodes, graph.num_edges


@contextmanager
def timed(tracer: Any) -> Iterator[List[float]]:
    """Time the ``with`` body into ``box[0]``, traced when ``tracer`` is set.

    The tracer's wrappers are installed before the clock starts and removed
    after it stops, so installing them is not part of the measured region.
    """
    box = [0.0]
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        yield box
        box[0] = time.perf_counter() - start


@contextmanager
def recorded_positives() -> Iterator[List[np.ndarray]]:
    """Collect the positive edges of every ``EdgeSampler.sample`` batch drawn
    in the ``with`` body: the pairs a fit actually trained on."""
    original = EdgeSampler.sample
    seen: List[np.ndarray] = []

    def sample(self, *args, **kwargs):
        batch = original(self, *args, **kwargs)
        seen.append(batch.positive_edges)
        return batch

    EdgeSampler.sample = sample
    try:
        yield seen
    finally:
        EdgeSampler.sample = original


class ModelProbe:
    """Captures each model ``compute_cell`` builds and times its ``fit``.

    Always on (tracing or not): one clock read per cell, so metrics that
    need the model — ε spent, pair updates, fit seconds — cost nothing
    measurable.
    """

    def __init__(self) -> None:
        self.fits: List[Tuple[Any, float]] = []

    def __enter__(self) -> "ModelProbe":
        self._original = original = runners.make_model
        fits = self.fits

        def make(*args, **kwargs):
            model = original(*args, **kwargs)
            fit = model.fit

            def timed_fit(*fit_args, **fit_kwargs):
                start = time.perf_counter()
                try:
                    return fit(*fit_args, **fit_kwargs)
                finally:
                    fits.append((model, time.perf_counter() - start))

            model.fit = timed_fit
            return model

        runners.make_model = make
        return self

    def __exit__(self, *exc) -> None:
        runners.make_model = self._original


class Workload:
    name = ""

    def setup(self, seed: int, size: str) -> None:
        """Build the inputs for ``seed`` (part of the measured set-up)."""
        raise NotImplementedError

    def run(self, tracer: Any = None) -> Outcome:
        raise NotImplementedError


class CellWorkload(Workload):
    """``compute_cell`` on one link-prediction cell (the cell rebuilds its graph)."""

    def spec(self, seed: int, size: str) -> ExperimentSpec:
        raise NotImplementedError

    def setup(self, seed: int, size: str) -> None:
        (self.cell,) = self.spec(seed, size).cells()
        self.graph_shape = cell_graph_shape(self.cell)

    def run(self, tracer: Any = None) -> Outcome:
        with ModelProbe() as probe, timed(tracer) as wall:
            row, _, _ = runners.compute_cell(self.cell)
        ((model, fit_seconds),) = probe.fits
        eps = epsilon_spent(model)
        op = Op((row["auc"], eps, digest(model.embeddings_)),
                check_model(model, row["auc"], self.cell.epsilon))
        return Outcome(wall=wall[0], fit=fit_seconds, pair_updates=pair_updates(model),
                       cells=1, cell_seconds=fit_seconds, auc=row["auc"],
                       epsilon=eps, ops=[op])


class AdvSGMCell(CellWorkload):
    """The paper's model: AdvSGM on ppi at ε = 6 with default settings."""

    name = "advsgm-ppi"

    def spec(self, seed: int, size: str) -> ExperimentSpec:
        return runners.spec_from_settings(
            "link_prediction", ["ppi"], ["advsgm"], replace(settings(size), seed=seed),
            epsilons=(6.0,), repeats=1)


class Node2VecCell(CellWorkload):
    """Biased walks + DeepWalk SGD on ppi at scale 3 (walk-cache bench overrides)."""

    name = "node2vec-ppi"

    def spec(self, seed: int, size: str) -> ExperimentSpec:
        tiny = size == "tiny"
        overrides = dict(
            num_walks=2 if tiny else 10, walk_length=10 if tiny else 80, p=0.25, q=4.0,
            window_size=2, num_negatives=1, embedding_dim=8, num_epochs=1, batch_size=16384,
        )
        return ExperimentSpec(
            task="link_prediction", datasets=("ppi",),
            models=(ModelSpec("node2vec", overrides=overrides),), epsilons=(None,),
            base_seed=seed, dataset_scale=0.2 if tiny else 3.0,
            walk_cache=False,
        )


class SkipGramFit(Workload):
    """``sgm`` fit on a seeded 50k-node, 250k-edge random graph (task none).

    A random graph has no structure to reconstruct, so ``auc`` probes what
    the fit learned: the skip-gram score ``pair_scores`` of 20k positive
    pairs the fit trained on against 20k random pairs.  It reads about 0.81
    and falls to 0.5 if the update is skipped.
    """

    PROBES = 20_000

    name = "sgm-50k"

    def setup(self, seed: int, size: str) -> None:
        tiny = size == "tiny"
        nodes, edges = (2_000, 10_000) if tiny else (50_000, 250_000)
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, nodes, size=(edges, 2))
        self.graph = Graph(nodes, pairs[pairs[:, 0] != pairs[:, 1]], name="perfbench-sgm")
        self.seed = seed
        self.config = dict(embedding_dim=16 if tiny else 128, num_epochs=2,
                           batches_per_epoch=5 if tiny else 50, batch_size=1024,
                           num_negatives=5)
        self.graph_shape = (self.graph.num_nodes, self.graph.num_edges)

    def run(self, tracer: Any = None) -> Outcome:
        with recorded_positives() as trained, timed(tracer) as wall:
            model = make_model("sgm", graph=self.graph, rng=self.seed, **self.config)
            start = time.perf_counter()
            model.fit()
            fit_seconds = time.perf_counter() - start
            auc = self.trained_pair_auc(model, np.concatenate(trained))
        op = Op((auc, digest(model.embeddings_)), check_model(model, auc, None))
        return Outcome(wall=wall[0], fit=fit_seconds, pair_updates=pair_updates(model),
                       cells=1, cell_seconds=fit_seconds, auc=auc, epsilon=None,
                       ops=[op])

    def trained_pair_auc(self, model: Any, trained: np.ndarray) -> float:
        rng = np.random.default_rng([self.seed, 1])
        probes = min(self.PROBES, trained.shape[0])
        pos = trained[rng.choice(trained.shape[0], probes, replace=False)]
        neg = rng.integers(0, self.graph.num_nodes, size=(probes, 2))
        labels = np.concatenate([np.ones(probes), np.zeros(probes)])
        scores = model.backend_.to_numpy(model.pair_scores(np.vstack([pos, neg])))
        return roc_auc_score(labels, scores)


class Fig3Sweep(Workload):
    """The five Fig. 3 private models x ε ∈ {2, 6} on ppi: cold pass, then resume."""

    name = "fig3-sweep"

    def setup(self, seed: int, size: str) -> None:
        self.spec = fig3_link_prediction.spec(
            replace(settings(size), seed=seed), datasets=("ppi",), epsilons=(2.0, 6.0))
        self.graph_shape = cell_graph_shape(self.spec.cells()[0])

    def run(self, tracer: Any = None) -> Outcome:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="fig3-", dir=WORK_DIR))
        try:
            store = ResultStore(root)
            with ModelProbe() as probe, timed(tracer) as wall:
                start = time.perf_counter()
                cold = runners.run_spec(self.spec, cache=store)
                cold_seconds = time.perf_counter() - start
                computed = len(probe.fits)
                hits = store.stats.hits
                resumed = runners.run_spec(self.spec, cache=store)
            resume_hits = store.stats.hits - hits
        finally:
            shutil.rmtree(root, ignore_errors=True)

        cells = self.spec.cells()
        ops: List[Op] = []
        epsilons: List[float] = []
        pairs, fit_seconds = 0, 0.0
        for cell, row, (model, seconds) in zip(cells, cold, probe.fits):
            eps = epsilon_spent(model)
            if eps is not None:
                epsilons.append(eps)
            if isinstance(model, AdvSGM):
                pairs += pair_updates(model)
                fit_seconds += seconds
            ops.append(Op((cell.model.name, cell.epsilon, row["auc"], eps,
                           digest(model.embeddings_)),
                          check_model(model, row["auc"], cell.epsilon)))
        if computed != len(cells):
            ops.append(Op(("cold",), f"cold pass computed {computed} of {len(cells)} cells"))
        problem = None
        if len(probe.fits) != computed:
            problem = f"resume pass computed {len(probe.fits) - computed} cells"
        elif resume_hits != len(cells):
            problem = f"resume pass hit {resume_hits} of {len(cells)} cells"
        elif resumed != cold:
            problem = "resume rows differ from the cold pass"
        ops.append(Op(("resume", json.dumps(resumed, sort_keys=True)), problem))
        return Outcome(
            wall=wall[0], fit=fit_seconds, pair_updates=pairs,
            cells=computed, cell_seconds=cold_seconds,
            auc=float(np.mean([row["auc"] for row in cold])),
            epsilon=max(epsilons) if epsilons else None, ops=ops,
        )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (AdvSGMCell, SkipGramFit, Node2VecCell, Fig3Sweep)
}
