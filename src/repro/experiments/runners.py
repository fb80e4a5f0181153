"""Shared experiment machinery: settings-to-config data, cells, runners, renderers.

:data:`MODEL_SETTINGS` maps each registry name to the config fields it derives
from :class:`ExperimentSettings` (a settings attribute name, a constant, or a
callable), and :func:`settings_overrides` materialises them for
:func:`repro.api.make_model`.

Every paper table and figure that trains models runs through
:class:`repro.api.ExperimentSpec`: the spec expands into independent,
serialisable cells with derived seeds, :func:`compute_cell` computes one cell,
and :func:`run_cell` / :func:`run_spec` share one loop that loads cached cells,
computes the rest (serially or across a process pool, ``workers=N``) and
persists each result.  Because seeds are derived *before* the fan out, the
parallel path is bit-for-bit identical to the serial one.

Tables II-IV are one AdvSGM sweep (:func:`advsgm_sweep`, rendered by
:func:`format_sweep`); Figs. 3 and 4 are one epsilon-series sweep
(:func:`series_sweep`, rendered by :func:`format_series`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api import ExperimentCell, ExperimentSpec, ModelSpec
from repro.api.registry import get_entry, make_model
from repro.cache import CacheLike, ResultStore, resolve_store
from repro.evals.clustering import NodeClusteringTask
from repro.evals.link_prediction import LinkPredictionTask
from repro.experiments.config import ExperimentSettings
from repro.graph.datasets import load_dataset

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
    module-level function of picklable arguments.  The evaluation is set up
    before the model is trained, so a cell that cannot be evaluated (node
    clustering on an unlabelled dataset) fails before it trains.  The row is
    normalised to plain Python scalars so it is identical whether it is
    consumed directly or after a JSON round-trip through the cache.
    """
    from repro.utils.serialization import to_plain

    start = time.perf_counter()
    graph = load_dataset(
        cell.dataset, scale=cell.dataset_scale, seed=cell.dataset_seed
    )
    row: Dict[str, Any] = {
        "task": cell.task,
        "dataset": cell.dataset,
        "model": cell.model.display,
        "name": cell.model.name,
        "epsilon": cell.epsilon,
        "repeat": cell.repeat,
        "seed": cell.seed,
    }
    train_graph = graph
    if cell.task == "link_prediction":
        task = LinkPredictionTask(
            graph, test_fraction=cell.test_fraction, rng=cell.seed
        )
        train_graph = task.train_graph
    elif cell.task == "node_clustering":
        clustering = NodeClusteringTask(graph)
    elif cell.task != "none":  # "none" trains without evaluating (timing runs)
        raise ValueError(f"unknown cell task {cell.task!r}")
    model = make_model(
        cell.model.name,
        epsilon=cell.epsilon,
        graph=train_graph,
        rng=cell.seed,
        **dict(cell.model.overrides),
    )
    model.fit()
    if cell.task == "link_prediction":
        row["auc"] = task.evaluate(model.score_edges).auc
    elif cell.task == "node_clustering":
        outcome = clustering.evaluate(model.embeddings_)
        row["mi"] = outcome.mutual_information
        row["nmi"] = outcome.normalized_mutual_information
    embeddings = model.embeddings_ if capture_embeddings else None
    return to_plain(row), embeddings, time.perf_counter() - start


def _run_cells(
    cells: Sequence[ExperimentCell],
    workers: int,
    store: Optional[ResultStore],
    reuse: bool,
    store_embeddings: bool,
) -> List[Dict[str, Any]]:
    """Load or compute every cell; rows follow ``cells`` order.

    With a ``store``, cells already in it are loaded when ``reuse`` is set,
    and every computed cell is persisted *as soon as it finishes* (in this
    process, even on the pool path), so an interrupted sweep keeps all
    completed work.  A caller that wants embeddings treats an embeddings-less
    entry as a miss (recompute + overwrite) rather than going without.
    """
    rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    pending: List[int] = []
    for index, cell in enumerate(cells):
        if store is not None and reuse:
            cached = store.get(cell, require_embeddings=store_embeddings)
            if cached is not None:
                rows[index] = cached
                continue
        pending.append(index)
    capture = store_embeddings and store is not None

    def finish(index: int, row: Dict[str, Any], embeddings, wall: float) -> None:
        if store is not None:
            store.put(cells[index], row, embeddings=embeddings, wall_time=wall)
        rows[index] = row

    if workers <= 1:
        for index in pending:
            finish(index, *compute_cell(cells[index], capture))
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
                try:
                    result = future.result()
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
                    continue
                finish(futures[future], *result)
            if first_error is not None:
                raise first_error
    return rows  # type: ignore[return-value]


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
    (row,) = _run_cells(
        (cell,), 1, resolve_store(cache), not force, store_embeddings
    )
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
    computed cell is persisted as soon as it finishes, so a re-run of an
    interrupted sweep picks up exactly where it died.
    """
    return _run_cells(
        spec.cells(), workers, resolve_store(cache), resume and not force,
        store_embeddings,
    )


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


def mean_and_std(values) -> tuple[float, float]:
    """Mean and standard deviation of a sequence of floats."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    return float(arr.mean()), float(arr.std())


def advsgm_sweep(
    settings: ExperimentSettings,
    values: Sequence[Any],
    datasets: Iterable[str],
    epsilon: float,
    label: Callable[[Any], str],
    overrides: Callable[[Any], Mapping[str, Any]],
    **run_kwargs: Any,
) -> Dict[Any, Dict[str, Dict[str, float]]]:
    """One AdvSGM link-prediction column per swept value (Tables II-IV).

    ``label(value)`` names the column (it is hashed into the cell key) and
    ``overrides(value)`` gives its config overrides on top of the settings.
    ``run_kwargs`` go to :func:`run_spec`.  Returns
    ``{value: {dataset: {"mean": auc, "std": std}}}`` over the repeats.
    """
    datasets = tuple(datasets)
    models = [
        settings_model("advsgm", settings, label=label(value), **overrides(value))
        for value in values
    ]
    rows = run_spec(
        spec_from_settings(
            "link_prediction", datasets, models, settings, epsilons=(epsilon,)
        ),
        **run_kwargs,
    )
    results: Dict[Any, Dict[str, Dict[str, float]]] = {}
    for value, model in zip(values, models):
        results[value] = {}
        for dataset in datasets:
            mean, std = mean_and_std(
                r["auc"]
                for r in rows
                if r["model"] == model.display and r["dataset"] == dataset
            )
            results[value][dataset] = {"mean": mean, "std": std}
    return results


def series_sweep(
    task: str,
    value_key: str,
    settings: Optional[ExperimentSettings],
    datasets: Iterable[str],
    models: Iterable[str],
    epsilons: Optional[Iterable[float]],
    **run_kwargs: Any,
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """One epsilon series per dataset and model (Figs. 3 and 4).

    Runs ``task`` once on the (dataset x model x epsilon) grid (settings
    default to :meth:`ExperimentSettings.quick`) and returns
    ``{dataset: {model: {epsilon: row[value_key]}}}``.  ``run_kwargs`` go to
    :func:`run_spec`.
    """
    spec = spec_from_settings(
        task, datasets, models, settings or ExperimentSettings.quick(),
        epsilons=epsilons, repeats=1,
    )
    return nest_series(run_spec(spec, **run_kwargs), value_key)


def format_sweep(
    title: str, symbol: str, results: Mapping[Any, Mapping[str, Mapping[str, float]]]
) -> str:
    """Render an :func:`advsgm_sweep` result: one row per swept value."""
    datasets = list(next(iter(results.values())).keys())
    lines = [title, f"{symbol:<8}" + "".join(f"{d:>20}" for d in datasets)]
    for value, row in results.items():
        cells = "".join(
            f"{row[d]['mean']:>14.4f}±{row[d]['std']:.4f}" for d in datasets
        )
        lines.append(f"{value:<8}" + cells)
    return "\n".join(lines)


def format_series(
    title: str, results: Mapping[str, Mapping[str, Mapping[float, float]]]
) -> str:
    """Render :func:`nest_series` output as one text block per dataset panel."""
    lines = [title]
    for dataset, methods in results.items():
        lines.append(f"\n[{dataset}]")
        epsilons = sorted(next(iter(methods.values())).keys())
        lines.append(f"{'model':<10}" + "".join(f"{e:>10.1f}" for e in epsilons))
        for model, series in methods.items():
            lines.append(
                f"{model:<10}" + "".join(f"{series[e]:>10.4f}" for e in epsilons)
            )
    return "\n".join(lines)
