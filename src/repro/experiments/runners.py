"""Shared experiment machinery: settings-to-config data, cells and runners.

Historically this module hand-assembled every model's config dataclass in a
chain of per-model factory functions.  With the :mod:`repro.api` registry the
per-model glue collapses into **data**: :data:`MODEL_SETTINGS` maps each
registry name to the config fields it derives from :class:`ExperimentSettings`
(either a settings attribute name, a constant, or a callable), and
:func:`make_model` does the construction.

Sweeps run through :class:`repro.api.ExperimentSpec`: the spec expands into
independent, serialisable cells with derived seeds, :func:`run_cell` executes
one cell, and :func:`run_spec` maps over the cells — serially or across a
process pool (``workers=N``).  Because seeds are derived *before* the fan
out, the parallel path is bit-for-bit identical to the serial one.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api import ExperimentCell, ExperimentSpec, ModelSpec, SEED_STRIDE
from repro.api.registry import get_entry, make_model
from repro.cache import CacheLike, resolve_store
from repro.core.config import AdvSGMConfig
from repro.evals.clustering import NodeClusteringTask
from repro.evals.link_prediction import LinkPredictionTask
from repro.experiments.config import ExperimentSettings
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.train import Trainer

#: Private models compared in Fig. 3 / Fig. 4 of the paper.
PRIVATE_MODEL_NAMES = ("DPGGAN", "DPGVAE", "GAP", "DPAR", "AdvSGM")

# ---------------------------------------------------------------------------
# ExperimentSettings -> config-field overrides, per registry name (pure data)
# ---------------------------------------------------------------------------
#: Each value is a mapping ``config_field -> source`` where the source is an
#: :class:`ExperimentSettings` attribute name, a constant, or a callable
#: ``settings -> value``.
SettingsSource = Union[str, int, float, Callable[[ExperimentSettings], Any]]

_DP_SKIPGRAM: Dict[str, SettingsSource] = {
    "embedding_dim": "embedding_dim",
    "num_negatives": "num_negatives",
    "batch_size": "dp_batch_size",
    "learning_rate": "learning_rate",
    "num_epochs": "dp_epochs",
    "batches_per_epoch": "discriminator_steps",
    "noise_multiplier": "noise_multiplier",
    "delta": "delta",
}

_DP_GAN: Dict[str, SettingsSource] = {
    "embedding_dim": "embedding_dim",
    "batch_size": lambda s: max(32, s.dp_batch_size),
    "num_epochs": lambda s: min(s.dp_epochs, 50),
    "batches_per_epoch": "discriminator_steps",
    "noise_multiplier": "noise_multiplier",
    "delta": "delta",
}

_DP_GNN: Dict[str, SettingsSource] = {
    "embedding_dim": "embedding_dim",
    "num_epochs": "gnn_epochs",
    "delta": "delta",
}

_ADVSGM: Dict[str, SettingsSource] = {
    "embedding_dim": "embedding_dim",
    "num_negatives": "num_negatives",
    "batch_size": "dp_batch_size",
    "learning_rate_d": "learning_rate",
    "learning_rate_g": "learning_rate",
    "num_epochs": "dp_epochs",
    "discriminator_steps": "discriminator_steps",
    "generator_steps": "generator_steps",
    "noise_multiplier": "noise_multiplier",
    "delta": "delta",
    "sigmoid_b": "sigmoid_b",
}

MODEL_SETTINGS: Dict[str, Mapping[str, SettingsSource]] = {
    "advsgm": _ADVSGM,
    "advsgm-nodp": {**_ADVSGM, "batch_size": 128, "num_epochs": "nodp_epochs"},
    "sgm": {
        "embedding_dim": "embedding_dim",
        "num_negatives": "num_negatives",
        "batch_size": 128,
        "learning_rate": "learning_rate",
        "num_epochs": "nodp_epochs",
        "batches_per_epoch": "discriminator_steps",
    },
    "dpsgm": _DP_SKIPGRAM,
    "dpasgm": _DP_SKIPGRAM,
    "dpggan": _DP_GAN,
    "dpgvae": _DP_GAN,
    "gap": _DP_GNN,
    "dpar": _DP_GNN,
    "deepwalk": {"embedding_dim": "embedding_dim"},
    "node2vec": {"embedding_dim": "embedding_dim"},
}


def settings_overrides(name: str, settings: ExperimentSettings) -> Dict[str, Any]:
    """Materialise the config overrides :data:`MODEL_SETTINGS` prescribes."""
    sources = MODEL_SETTINGS.get(get_entry(name).name, {})
    overrides: Dict[str, Any] = {}
    for config_field, source in sources.items():
        if callable(source):
            overrides[config_field] = source(settings)
        elif isinstance(source, str):
            overrides[config_field] = getattr(settings, source)
        else:
            overrides[config_field] = source
    return overrides


def settings_model(
    name: str,
    settings: ExperimentSettings,
    label: Optional[str] = None,
    **extra: Any,
) -> ModelSpec:
    """A :class:`ModelSpec` whose overrides come from ``settings`` (+ extras)."""
    overrides = settings_overrides(name, settings)
    overrides.update(extra)
    return ModelSpec(
        name=get_entry(name).name,
        label=label if label is not None else name,
        overrides=overrides,
    )


def load_experiment_graph(name: str, settings: ExperimentSettings) -> Graph:
    """Load a dataset analogue at the experiment's scale with a stable seed."""
    return load_dataset(name, scale=settings.dataset_scale, seed=settings.seed)


def advsgm_config(
    settings: ExperimentSettings,
    epsilon: float,
    dp_enabled: bool = True,
    batch_size: Optional[int] = None,
    learning_rate: Optional[float] = None,
    sigmoid_b: Optional[float] = None,
) -> AdvSGMConfig:
    """AdvSGM configuration derived from the experiment settings."""
    overrides = settings_overrides("advsgm", settings)
    if not dp_enabled:
        overrides["num_epochs"] = settings.nodp_epochs
    if batch_size is not None:
        overrides["batch_size"] = batch_size
    if learning_rate is not None:
        overrides["learning_rate_d"] = learning_rate
        overrides["learning_rate_g"] = learning_rate
    if sigmoid_b is not None:
        overrides["sigmoid_b"] = sigmoid_b
    return AdvSGMConfig(epsilon=epsilon, dp_enabled=dp_enabled, **overrides)


def build_private_model(
    name: str,
    graph: Graph,
    epsilon: float,
    settings: ExperimentSettings,
    seed: int,
) -> Trainer:
    """Instantiate one of the compared private models by name (untrained).

    Thin wrapper over :func:`repro.api.make_model` with the settings-derived
    overrides of :data:`MODEL_SETTINGS`; kept for backward compatibility with
    the historical per-model factory.
    """
    entry = get_entry(name)
    if not entry.private:
        raise KeyError(f"model {name!r} is not a private model")
    return make_model(
        entry.name,
        epsilon=epsilon,
        graph=graph,
        rng=seed,
        **settings_overrides(entry.name, settings),
    )


def build_nonprivate_model(
    name: str, graph: Graph, settings: ExperimentSettings, seed: int
) -> Trainer:
    """Instantiate SGM(No DP) or AdvSGM(No DP) (untrained)."""
    entry = get_entry(name)
    if entry.private:
        raise KeyError(f"model {name!r} is not a non-private model")
    return make_model(
        entry.name,
        graph=graph,
        rng=seed,
        **settings_overrides(entry.name, settings),
    )


# ---------------------------------------------------------------------------
# spec construction and execution
# ---------------------------------------------------------------------------
def spec_from_settings(
    task: str,
    datasets: Iterable[str],
    models: Iterable[Union[str, ModelSpec]],
    settings: ExperimentSettings,
    epsilons: Optional[Iterable[Optional[float]]] = None,
    repeats: Optional[int] = None,
) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` whose cells follow ``settings``.

    Plain model names get their :data:`MODEL_SETTINGS` overrides; pre-built
    :class:`ModelSpec` entries (e.g. from :func:`settings_model` with sweep
    extras) pass through unchanged.
    """
    model_specs = tuple(
        m if isinstance(m, ModelSpec) else settings_model(m, settings)
        for m in models
    )
    return ExperimentSpec(
        task=task,
        datasets=tuple(datasets),
        models=model_specs,
        epsilons=tuple(epsilons) if epsilons is not None else settings.epsilons,
        repeats=repeats if repeats is not None else settings.num_repeats,
        base_seed=settings.seed,
        dataset_scale=settings.dataset_scale,
        test_fraction=settings.test_fraction,
    )


def compute_cell(
    cell: ExperimentCell, capture_embeddings: bool = False
) -> Tuple[Dict[str, Any], Optional[np.ndarray], float]:
    """Compute one cell from scratch: ``(row, embeddings-or-None, seconds)``.

    This is the unit of work of the multiprocess runner, so it is a plain
    module-level function of picklable arguments.  The row is normalised to
    plain Python scalars so it is identical whether it is consumed directly
    or after a JSON round-trip through the cache.
    """
    from repro.utils.serialization import to_plain

    start = time.perf_counter()
    graph = load_dataset(
        cell.dataset, scale=cell.dataset_scale, seed=cell.dataset_seed
    )
    overrides = dict(cell.model.overrides)
    row: Dict[str, Any] = {
        "task": cell.task,
        "dataset": cell.dataset,
        "model": cell.model.display,
        "name": cell.model.name,
        "epsilon": cell.epsilon,
        "repeat": cell.repeat,
        "seed": cell.seed,
    }
    if cell.task == "link_prediction":
        task = LinkPredictionTask(
            graph, test_fraction=cell.test_fraction, rng=cell.seed
        )
        model = make_model(
            cell.model.name,
            epsilon=cell.epsilon,
            graph=task.train_graph,
            rng=cell.seed,
            **overrides,
        )
        model.fit()
        row["auc"] = task.evaluate(model.score_edges).auc
    elif cell.task == "node_clustering":
        model = make_model(
            cell.model.name,
            epsilon=cell.epsilon,
            graph=graph,
            rng=cell.seed,
            **overrides,
        )
        model.fit()
        outcome = NodeClusteringTask(graph).evaluate(model.embeddings_)
        row["mi"] = outcome.mutual_information
        row["nmi"] = outcome.normalized_mutual_information
    elif cell.task == "none":  # train without evaluating (timing/warm-up runs)
        model = make_model(
            cell.model.name,
            epsilon=cell.epsilon,
            graph=graph,
            rng=cell.seed,
            **overrides,
        ).fit()
    else:
        raise ValueError(f"unknown cell task {cell.task!r}")
    embeddings = model.embeddings_ if capture_embeddings else None
    return to_plain(row), embeddings, time.perf_counter() - start


def run_cell(
    cell: ExperimentCell,
    cache: CacheLike = None,
    force: bool = False,
    store_embeddings: bool = False,
) -> Dict[str, Any]:
    """Execute one experiment cell (or load it) and return its result row.

    With a ``cache`` (a :class:`repro.cache.ResultStore`, a directory path,
    or ``True`` for the default directory), a previously completed cell is
    loaded instead of recomputed — bit-for-bit identical, because the cell's
    derived seed fully determines the computation — and a computed result is
    persisted before returning.  ``force=True`` recomputes and overwrites;
    ``store_embeddings=True`` additionally persists ``model.embeddings_``.
    """
    store = resolve_store(cache)
    if store is not None and not force:
        # A caller that wants embeddings treats an embeddings-less entry as
        # a miss (recompute + overwrite) rather than silently going without.
        cached = store.get(cell, require_embeddings=store_embeddings)
        if cached is not None:
            return cached
    row, embeddings, wall = compute_cell(
        cell, capture_embeddings=store_embeddings and store is not None
    )
    if store is not None:
        store.put(cell, row, embeddings=embeddings, wall_time=wall)
    return row


def run_spec(
    spec: ExperimentSpec,
    workers: int = 1,
    cache: CacheLike = None,
    resume: bool = True,
    force: bool = False,
    store_embeddings: bool = False,
) -> List[Dict[str, Any]]:
    """Run every cell of ``spec``; ``workers > 1`` uses a process pool.

    The cells are independent and carry their own derived seeds, so the
    result list is identical (row for row) whichever way it is computed;
    rows follow ``spec.cells()`` order either way.

    With a ``cache``, cells already in the store are loaded instead of
    recomputed (unless ``resume=False`` or ``force=True``), and every newly
    computed cell is persisted *as soon as it finishes* — in the parent
    process, even on the multiprocess path — so an interrupted sweep keeps
    all completed work and a re-run picks up exactly where it died.
    """
    cells = spec.cells()
    store = resolve_store(cache)
    if store is None:
        if workers <= 1:
            return [run_cell(cell) for cell in cells]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_cell, cells))

    rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    pending: List[int] = []
    for index, cell in enumerate(cells):
        if resume and not force:
            cached = store.get(cell, require_embeddings=store_embeddings)
            if cached is not None:
                rows[index] = cached
                continue
        pending.append(index)
    capture = bool(store_embeddings)
    if workers <= 1:
        for index in pending:
            row, embeddings, wall = compute_cell(cells[index], capture)
            store.put(cells[index], row, embeddings=embeddings, wall_time=wall)
            rows[index] = row
    elif pending:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(compute_cell, cells[index], capture): index
                for index in pending
            }
            # One failing cell must not discard its siblings' finished work:
            # drain every future, persist all successes, then re-raise the
            # first failure — a resume only recomputes the genuinely lost.
            first_error: Optional[BaseException] = None
            for future in as_completed(futures):
                index = futures[future]
                try:
                    row, embeddings, wall = future.result()
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
                    continue
                store.put(cells[index], row, embeddings=embeddings, wall_time=wall)
                rows[index] = row
            if first_error is not None:
                raise first_error
    return rows  # type: ignore[return-value]


def nest_series(
    results: Iterable[Mapping[str, Any]], value_key: str
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Reshape result rows into ``{dataset: {model: {epsilon: value}}}``.

    Repeats of the same cell position are averaged.
    """
    grouped: Dict[tuple, List[float]] = {}
    for row in results:
        grouped.setdefault(
            (row["dataset"], row["model"], row["epsilon"]), []
        ).append(row[value_key])
    nested: Dict[str, Dict[str, Dict[float, float]]] = {}
    for (dataset, model, epsilon), values in grouped.items():
        nested.setdefault(dataset, {}).setdefault(model, {})[epsilon] = float(
            np.mean(values)
        )
    return nested


# ---------------------------------------------------------------------------
# single-cell conveniences (historical API, now spec-backed)
# ---------------------------------------------------------------------------
def _single_cell(
    task: str,
    model_name: str,
    dataset: str,
    epsilon: Optional[float],
    settings: ExperimentSettings,
    repeat: int,
) -> ExperimentCell:
    return ExperimentCell(
        task=task,
        dataset=dataset,
        model=settings_model(model_name, settings),
        epsilon=epsilon,
        repeat=repeat,
        seed=settings.seed + SEED_STRIDE * repeat,
        dataset_scale=settings.dataset_scale,
        dataset_seed=settings.seed,
        test_fraction=settings.test_fraction,
    )


def evaluate_link_prediction(
    model_name: str,
    dataset: str,
    epsilon: float,
    settings: ExperimentSettings,
    repeat: int = 0,
) -> Dict[str, Any]:
    """Train one private model and return its test AUC on ``dataset``."""
    return run_cell(
        _single_cell("link_prediction", model_name, dataset, epsilon, settings, repeat)
    )


def evaluate_node_clustering(
    model_name: str,
    dataset: str,
    epsilon: float,
    settings: ExperimentSettings,
    repeat: int = 0,
) -> Dict[str, Any]:
    """Train one private model and return clustering MI on ``dataset``."""
    return run_cell(
        _single_cell("node_clustering", model_name, dataset, epsilon, settings, repeat)
    )


def mean_and_std(values) -> tuple[float, float]:
    """Mean and standard deviation of a sequence of floats."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    return float(arr.mean()), float(arr.std())
