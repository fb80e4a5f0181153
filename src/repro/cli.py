"""``python -m repro`` — command-line front end over the estimator registry.

Subcommands
-----------
``datasets list``
    The synthetic dataset analogues and the paper datasets they stand in for.
``graph build`` / ``graph info``
    Build an on-disk memory-mapped graph directory (from a dataset analogue
    or a text edge list, via the bounded-RAM external-sort ingest) and
    inspect/verify one.
``models list``
    Every registered estimator with its paper section (plus which compute
    backends are usable in this environment).
``backends list``
    The compute backends (numpy / torch) and their availability here.
``train``
    Train one registered model on one dataset (``--set field=value`` overrides
    any config dataclass field; ``--out`` saves the embeddings as ``.npz``).
``evaluate``
    Train + evaluate one model on link prediction or node clustering using
    the experiment settings presets.
``experiment``
    Regenerate a paper figure/table (``fig2 fig3 fig4 table2 table3 table4
    table5``), optionally restricted to given datasets/models/epsilons,
    parallelised over experiment cells with ``--workers``, and cached /
    resumed with ``--cache-dir`` / ``--resume`` / ``--force``.
``cache``
    Inspect (``report``, with ``--json`` for the machine-readable report
    that ``ResultStore.report()`` returns) or ``clear`` the
    content-addressed experiment cache.
``golden``
    Compute the golden-parity digests of the default models; ``--check``
    compares against the committed fixture, ``--update`` regenerates it.

Examples
--------
::

    python -m repro datasets list
    python -m repro backends list
    python -m repro train --model advsgm --dataset ppi --epsilon 6 \
        --set num_epochs=2 --scale 0.15 --out emb.npz
    python -m repro train --model sgm --dataset ppi --backend torch:cpu:fast
    python -m repro evaluate --model dpar --dataset wiki --epsilon 4 \
        --task node_clustering --preset smoke
    python -m repro experiment fig3 --dataset ppi --workers 4 --cache-dir .cache
    python -m repro cache report --cache-dir .cache
    python -m repro golden --check
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.api.registry import config_field_names, get_entry, list_models, make_model
from repro.backend import (
    BackendError,
    backend_unavailable_reason,
    default_backend_spec,
    get_backend,
    list_backends,
)
from repro.graph.datasets import get_spec as get_dataset_spec
from repro.graph.datasets import list_datasets, load_dataset


def _entry_or_exit(name: str):
    """Resolve a registry entry, exiting with a one-line message if unknown."""
    try:
        return get_entry(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _load_dataset_or_exit(name: str, scale: float, seed: Any, on_disk: bool = False):
    """Load a dataset, exiting with a one-line message on bad name/params."""
    try:
        return load_dataset(name, scale=scale, seed=seed, on_disk=on_disk)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    except ValueError as exc:
        raise SystemExit(str(exc))


def _check_dataset_or_exit(name: str) -> None:
    """Validate a dataset name early, exiting with a one-line message."""
    try:
        get_dataset_spec(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _check_backend_or_exit(args: argparse.Namespace) -> None:
    """Validate the backend spec early, with a one-line message.

    Runs for every command that will train: an explicit ``--backend`` (or an
    ambient ``$REPRO_BACKEND``) that names an unknown, uninstalled or
    incompatible backend, device or precision must fail before any dataset
    or model work starts — and without a traceback.
    """
    try:
        get_backend(args.backend)
    except BackendError as exc:
        raise SystemExit(str(exc))


def _backend_availability_lines() -> list:
    """Human-readable availability of every registered backend."""
    lines = []
    default_family = default_backend_spec().partition(":")[0].lower()
    for name in list_backends():
        reason = backend_unavailable_reason(name)
        status = "available" if reason is None else f"unavailable ({reason})"
        marker = "  [default]" if name == default_family else ""
        lines.append(f"{name:<8}{status}{marker}")
    return lines


def _make_model_or_exit(name: str, **kwargs):
    """Construct a model, exiting with a one-line message on config errors."""
    try:
        return make_model(name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid configuration for model {name!r}: {exc}")


def _coerce(value: str, target: Any) -> Any:
    """Parse a ``--set`` string into the type of the config field default."""
    if isinstance(target, bool):
        if value.lower() in ("true", "1", "yes", "on"):
            return True
        if value.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(target, int) and not isinstance(target, bool):
        return int(value)
    if isinstance(target, float):
        return float(value)
    if isinstance(target, tuple):
        return tuple(json.loads(value))
    return value


def _parse_overrides(model_name: str, pairs: Sequence[str]) -> Dict[str, Any]:
    """Turn ``field=value`` strings into typed config overrides."""
    entry = _entry_or_exit(model_name)
    defaults = {f.name: f for f in dataclasses.fields(entry.config_cls)}
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects field=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        if key not in defaults:
            raise SystemExit(
                f"unknown config field {key!r} for model {entry.name!r}; "
                f"valid: {', '.join(sorted(defaults))}"
            )
        field = defaults[key]
        template = (
            field.default
            if field.default is not dataclasses.MISSING
            else field.default_factory()  # type: ignore[misc]
        )
        try:
            overrides[key] = _coerce(raw, template)
        except (ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot parse --set {pair!r}: {exc}")
    return overrides


def _emit(results: Any, text: str, json_path: Optional[str]) -> None:
    """Print the text rendering; optionally dump JSON next to it."""
    print(text)
    if json_path:
        payload = json.dumps(results, indent=2, default=str)
        if json_path == "-":
            print(payload)
        else:
            with open(json_path, "w") as handle:
                handle.write(payload + "\n")
            print(f"[json written to {json_path}]")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------
def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(f"{'name':<10}{'base nodes':>12}{'paper nodes':>13}{'paper edges':>13}  labelled")
        for name in list_datasets():
            spec = get_dataset_spec(name)
            labelled = f"yes ({spec.num_classes} classes)" if spec.labelled else "no"
            print(
                f"{spec.name:<10}{spec.base_nodes:>12}{spec.paper_nodes:>13}"
                f"{spec.paper_edges:>13}  {labelled}"
            )
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.graph import Graph, GraphFormatError, MmapStorage, build_disk_graph
    from repro.graph.storage import ARRAY_FILES, META_FILENAME, read_meta

    if args.action == "build":
        if (args.dataset is None) == (args.edges is None):
            raise SystemExit("graph build needs exactly one of --dataset / --edges")
        out = Path(args.out)
        try:
            if args.dataset is not None:
                graph = _load_dataset_or_exit(args.dataset, args.scale, args.seed)
                graph.save(out, overwrite=args.force)
            else:
                kwargs: Dict[str, Any] = {}
                if args.chunk_edges is not None:
                    kwargs["chunk_edges"] = args.chunk_edges
                build_disk_graph(
                    args.edges,
                    out,
                    num_nodes=args.num_nodes,
                    name=args.name or Path(args.edges).stem,
                    self_loops="drop" if args.drop_self_loops else "error",
                    overwrite=args.force,
                    **kwargs,
                )
        except (FileExistsError, FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc))
        meta = read_meta(out)
        print(f"graph written to {out}: {meta['num_nodes']} nodes, "
              f"{meta['num_edges']} edges (name={meta['name']!r})")
        return 0

    # action == "info"
    path = Path(args.path)
    try:
        meta = read_meta(path)
    except (FileNotFoundError, GraphFormatError) as exc:
        raise SystemExit(str(exc))
    sizes = {
        role: (path / filename).stat().st_size
        for role, filename in ARRAY_FILES.items()
        if (path / filename).is_file()
    }
    info = {
        "path": str(path),
        "format_version": meta["format_version"],
        "name": meta["name"],
        "num_nodes": meta["num_nodes"],
        "num_edges": meta["num_edges"],
        "fingerprint": meta["fingerprint"],
        "labelled": "labels" in sizes,
        "bytes": sizes,
    }
    lines = [
        f"graph {path} (format v{meta['format_version']})",
        f"  name:        {meta['name']}",
        f"  nodes:       {meta['num_nodes']}",
        f"  edges:       {meta['num_edges']}",
        f"  labelled:    {'yes' if 'labels' in sizes else 'no'}",
        f"  fingerprint: {meta['fingerprint']}",
    ]
    for role in sorted(sizes):
        lines.append(f"  {ARRAY_FILES[role]:<15} {sizes[role]:>12} bytes")
    if args.verify:
        try:
            MmapStorage(path).verify()
        except GraphFormatError as exc:
            print("\n".join(lines))
            raise SystemExit(f"VERIFY FAILED: {exc}")
        lines.append("  verify:      OK (all array digests match the manifest)")
        info["verified"] = True
        # Opening via Graph proves the arrays also pass structural validation.
        Graph.open(path)
    _emit(info, "\n".join(lines), args.json)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(f"{'name':<14}{'class':<22}{'private':<9}paper")
        for name in list_models():
            entry = get_entry(name)
            print(
                f"{entry.name:<14}{entry.cls.__name__:<22}"
                f"{'yes' if entry.private else 'no':<9}{entry.paper}"
            )
        print()
        print("backends: " + "; ".join(_backend_availability_lines()))
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(f"default backend: {default_backend_spec()} "
              f"(precedence: --backend > config > $REPRO_BACKEND > numpy)")
        for line in _backend_availability_lines():
            print(f"  {line}")
        print("spec: name[:device][:precision], e.g. torch:cuda:fast; "
              "precisions: exact (float64, default; bit-for-bit reference) "
              "| fast (float32 device-resident, accelerator backends only)")
    return 0


def _streaming_overrides(args: argparse.Namespace, model_name: str) -> Dict[str, Any]:
    """Translate the streaming and walk-pool flags into config overrides.

    Each flag maps onto a config field of the walk-corpus models; passing one
    for a model without the field is a one-line error, not a traceback.
    """
    fields = set(config_field_names(model_name))
    overrides: Dict[str, Any] = {}
    for flag, field_name, value in (
        ("--stream-pairs", "pair_streaming", True if args.stream_pairs else None),
        ("--chunk-walks", "stream_chunk_walks", args.chunk_walks),
        ("--walk-workers", "walk_workers", args.walk_workers),
    ):
        if value is None:
            continue
        if field_name not in fields:
            raise SystemExit(
                f"{flag} is not supported by model {model_name!r} "
                f"(no {field_name!r} config field)"
            )
        overrides[field_name] = value
    return overrides


def _cmd_train(args: argparse.Namespace) -> int:
    entry = _entry_or_exit(args.model)
    _check_backend_or_exit(args)
    overrides = _parse_overrides(args.model, args.set or [])
    overrides.update(_streaming_overrides(args, entry.name))
    graph = _load_dataset_or_exit(
        args.dataset, args.scale, args.seed, on_disk=args.on_disk
    )
    epsilon = args.epsilon if entry.private else None
    if args.epsilon is not None and not entry.private:
        raise SystemExit(f"model {entry.name!r} is not private; drop --epsilon")
    # Fold the flag into the overrides dict (rather than a separate kwarg)
    # so `--set backend=...` and `--backend ...` cannot collide; the
    # explicit flag wins, per the documented precedence.
    if args.backend is not None:
        overrides["backend"] = args.backend
    model = _make_model_or_exit(
        entry.name, epsilon=epsilon, graph=graph, rng=args.seed, **overrides
    )
    print(f"training {entry.name} on {args.dataset} "
          f"({graph.num_nodes} nodes, {graph.num_edges} edges)")
    model.fit()
    embeddings = model.embeddings_
    print(f"done: embeddings {embeddings.shape[0]} x {embeddings.shape[1]}")
    spent = getattr(model, "privacy_spent", None)
    if callable(spent):
        spent = spent()
        if spent is not None:
            print(f"privacy spent: epsilon={spent.epsilon:.3f} at delta={spent.delta:g}")
    if args.out:
        import numpy as np

        np.savez_compressed(args.out, embeddings=embeddings)
        print(f"embeddings saved to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.runners import (
        evaluate_link_prediction,
        evaluate_node_clustering,
    )

    entry = _entry_or_exit(args.model)
    _check_dataset_or_exit(args.dataset)
    _check_backend_or_exit(args)
    settings = ExperimentSettings.preset(args.preset)
    if args.scale is not None:
        settings = dataclasses.replace(settings, dataset_scale=args.scale)
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    if args.backend is not None:
        settings = dataclasses.replace(settings, backend=args.backend)
    if args.on_disk:
        settings = dataclasses.replace(settings, on_disk=True)
    epsilon = args.epsilon if entry.private else None
    if args.epsilon is not None and not entry.private:
        raise SystemExit(f"model {entry.name!r} is not private; drop --epsilon")
    runner = (
        evaluate_link_prediction
        if args.task == "link_prediction"
        else evaluate_node_clustering
    )
    row = runner(args.model, args.dataset, epsilon, settings, repeat=args.repeat)
    text = "\n".join(
        f"{key}: {value}" for key, value in row.items() if value is not None
    )
    _emit(row, text, args.json)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ExperimentSettings,
        fig2_weight_rationality,
        fig3_link_prediction,
        fig4_node_clustering,
        table2_learning_rate,
        table3_batch_size,
        table4_bound_b,
        table5_private_skipgram_comparison,
    )

    modules = {
        "fig2": fig2_weight_rationality,
        "fig3": fig3_link_prediction,
        "fig4": fig4_node_clustering,
        "table2": table2_learning_rate,
        "table3": table3_batch_size,
        "table4": table4_bound_b,
        "table5": table5_private_skipgram_comparison,
    }
    module = modules[args.name]
    _check_backend_or_exit(args)
    settings = ExperimentSettings.preset(args.preset)
    if args.backend is not None:
        settings = dataclasses.replace(settings, backend=args.backend)
    if args.on_disk:
        settings = dataclasses.replace(settings, on_disk=True)
    kwargs: Dict[str, Any] = {}
    if args.name in ("fig3", "fig4", "table2", "table3", "table4", "table5"):
        kwargs["workers"] = args.workers
    if args.dataset:
        if args.name == "fig2":
            raise SystemExit("fig2 runs on its fixed dataset panel")
        for dataset in args.dataset:
            _check_dataset_or_exit(dataset)
        key = "auc_datasets" if args.name == "table5" else "datasets"
        kwargs[key] = tuple(args.dataset)
        if args.name == "table5":
            # MI needs labels; restrict the MI columns to the labelled subset
            # of the requested datasets (possibly dropping them entirely).
            labelled = [d for d in args.dataset if get_dataset_spec(d).labelled]
            kwargs["mi_datasets"] = tuple(labelled)
    if args.models:
        if args.name not in ("fig3", "fig4"):
            raise SystemExit(f"--models only applies to fig3/fig4, not {args.name}")
        for model in args.models:
            _entry_or_exit(model)
        kwargs["models"] = tuple(args.models)
    if args.epsilons:
        if args.name not in ("fig3", "fig4", "table5"):
            raise SystemExit(f"--epsilons does not apply to {args.name}")
        kwargs["epsilons"] = tuple(args.epsilons)
    store = None
    if args.cache_dir or args.resume or args.force:
        if args.name == "fig2":
            raise SystemExit(
                "fig2 does not run experiment cells; caching does not apply"
            )
        if args.force and not (args.cache_dir or args.resume):
            raise SystemExit("--force requires --cache-dir or --resume")
        from repro.cache import ResultStore

        store = ResultStore(args.cache_dir)  # None selects the default dir
        kwargs["cache"] = store
        kwargs["force"] = args.force
    results = module.run(settings, **kwargs)
    _emit(results, module.format_table(results), args.json)
    if store is not None:
        print(
            f"[cache] {store.stats.hits} loaded / {store.stats.writes} computed / "
            f"{store.stats.stale} stale ({store.root})"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "report":
        report = store.report()
        manifests = report["entries"]
        lines = [f"cache {store.root}: {len(manifests)} entries"]
        for manifest in manifests:
            cell = manifest.get("cell") or {}
            model = cell.get("model") or {}
            lines.append(
                f"  {str(manifest.get('key', '?'))[:12]}  "
                f"{str(model.get('name', '?')):<12} "
                f"{str(cell.get('dataset', '?')):<10} "
                f"task={cell.get('task', '?')} eps={cell.get('epsilon')} "
                f"seed={cell.get('seed')} repeat={cell.get('repeat')} "
                f"{float(manifest.get('wall_time_s') or 0.0):.2f}s"
            )
        _emit(report, "\n".join(lines), args.json)
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro import golden

    if args.relaxed and not args.check:
        raise SystemExit("--relaxed only applies to --check")
    path = args.path or golden.default_path()
    if args.update:
        target = golden.write_digests(path)
        print(f"golden digests written to {target}")
        return 0
    if args.check:  # load the fixture before the (slow) recomputation
        try:
            expected = golden.load_digests(path)
        except FileNotFoundError:
            raise SystemExit(
                f"no golden fixture at {path}; run `python -m repro golden --update`"
            )
    actual = golden.compute_all()
    if args.check:
        problems = golden.compare_digests(expected, actual, relaxed=args.relaxed)
        if problems:
            for problem in problems:
                print(f"MISMATCH {problem}")
            raise SystemExit(
                f"{len(problems)} golden-parity mismatch(es) against {path}"
            )
        mode = "relaxed" if args.relaxed else "bit-for-bit"
        print(
            f"golden parity OK ({mode}) against {path} "
            f"({len(expected.get('cases', {}))} cases)"
        )
        return 0
    print(json.dumps(actual, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AdvSGM reproduction: registry-driven training, "
        "evaluation and paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="dataset registry operations")
    p_datasets.add_argument("action", choices=["list"], help="what to do")
    p_datasets.set_defaults(func=_cmd_datasets)

    p_graph = sub.add_parser(
        "graph", help="build or inspect an on-disk memory-mapped graph"
    )
    graph_sub = p_graph.add_subparsers(dest="action", required=True)
    p_gbuild = graph_sub.add_parser(
        "build", help="materialise a graph directory (meta.json + .npy arrays)"
    )
    p_gbuild.add_argument("--dataset", default=None,
                          help="dataset analogue to materialise (see `datasets list`)")
    p_gbuild.add_argument("--edges", default=None,
                          help="text edge list to ingest with the bounded-RAM "
                               "external sort (alternative to --dataset)")
    p_gbuild.add_argument("--out", required=True, help="output graph directory")
    p_gbuild.add_argument("--scale", type=float, default=1.0,
                          help="dataset scale multiplier (with --dataset)")
    p_gbuild.add_argument("--seed", type=int, default=None,
                          help="dataset generator seed (with --dataset)")
    p_gbuild.add_argument("--num-nodes", type=int, default=None,
                          help="node count for --edges (default: inferred "
                               "from a `# nodes=N` header or max id + 1)")
    p_gbuild.add_argument("--name", default=None,
                          help="graph name recorded in the manifest "
                               "(default: the edge-list file stem)")
    p_gbuild.add_argument("--chunk-edges", type=int, default=None,
                          help="ingest chunk size in edges (bounds peak RAM)")
    p_gbuild.add_argument("--drop-self-loops", action="store_true",
                          help="silently drop self-loops instead of erroring")
    p_gbuild.add_argument("--force", action="store_true",
                          help="overwrite an existing graph directory")
    p_gbuild.set_defaults(func=_cmd_graph)
    p_ginfo = graph_sub.add_parser(
        "info", help="summarise (and optionally verify) a graph directory"
    )
    p_ginfo.add_argument("path", help="graph directory to inspect")
    p_ginfo.add_argument("--verify", action="store_true",
                         help="recompute every array digest against the manifest")
    p_ginfo.add_argument("--json",
                         help="also write the summary as JSON ('-' for stdout)")
    p_ginfo.set_defaults(func=_cmd_graph)

    p_models = sub.add_parser("models", help="model registry operations")
    p_models.add_argument("action", choices=["list"], help="what to do")
    p_models.set_defaults(func=_cmd_models)

    p_backends = sub.add_parser("backends", help="compute backend availability")
    p_backends.add_argument("action", choices=["list"], help="what to do")
    p_backends.set_defaults(func=_cmd_backends)

    p_train = sub.add_parser("train", help="train one model on one dataset")
    p_train.add_argument("--model", required=True, help="registry name (see `models list`)")
    p_train.add_argument("--dataset", required=True, help="dataset name (see `datasets list`)")
    p_train.add_argument("--epsilon", type=float, default=None, help="privacy budget (private models)")
    p_train.add_argument("--scale", type=float, default=1.0, help="dataset scale multiplier")
    p_train.add_argument("--seed", type=int, default=2025, help="root seed")
    p_train.add_argument("--set", action="append", metavar="FIELD=VALUE",
                         help="override a config field (repeatable)")
    p_train.add_argument("--stream-pairs", action="store_true",
                         help="stream walk pairs into the trainer instead of "
                              "materialising the corpus (walk-corpus models)")
    p_train.add_argument("--chunk-walks", type=int, default=None,
                         help="walk rows per streamed pair chunk")
    p_train.add_argument("--walk-workers", type=int, default=None,
                         help="process-pool size for walk generation (>= 2 "
                              "walks derived-seed passes in parallel)")
    p_train.add_argument("--on-disk", action="store_true",
                         help="train against a memory-mapped on-disk graph "
                              "(materialised once under the graph cache)")
    p_train.add_argument("--backend", default=None, metavar="SPEC",
                         help="backend spec name[:device][:precision] (numpy "
                              "| torch:cuda | torch:cuda:fast; see "
                              "`backends list`)")
    p_train.add_argument("--out", help="save embeddings to this .npz file")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="train + evaluate one model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--task", choices=["link_prediction", "node_clustering"],
                        default="link_prediction")
    p_eval.add_argument("--epsilon", type=float, default=None)
    p_eval.add_argument("--preset", choices=["smoke", "quick", "full"], default="quick",
                        help="experiment settings preset")
    p_eval.add_argument("--scale", type=float, default=None, help="override dataset scale")
    p_eval.add_argument("--seed", type=int, default=None, help="override the root seed")
    p_eval.add_argument("--repeat", type=int, default=0, help="repeat index (derives the seed)")
    p_eval.add_argument("--backend", default=None, metavar="SPEC",
                        help="backend spec name[:device][:precision] (numpy "
                             "| torch:cuda | torch:cuda:fast)")
    p_eval.add_argument("--on-disk", action="store_true",
                        help="load the dataset as a memory-mapped on-disk graph")
    p_eval.add_argument("--json", help="also write the result row as JSON ('-' for stdout)")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("name", choices=["fig2", "fig3", "fig4", "table2",
                                        "table3", "table4", "table5"])
    p_exp.add_argument("--preset", choices=["smoke", "quick", "full"], default="quick")
    p_exp.add_argument("--dataset", action="append",
                       help="restrict to this dataset (repeatable)")
    p_exp.add_argument("--models", nargs="+", help="restrict fig3/fig4 to these models")
    p_exp.add_argument("--epsilons", nargs="+", type=float,
                       help="restrict the swept privacy budgets")
    p_exp.add_argument("--workers", type=int, default=1,
                       help="process-pool size for the experiment cells")
    p_exp.add_argument("--cache-dir",
                       help="cache completed cells under this directory and "
                            "load them on re-runs (content-addressed)")
    p_exp.add_argument("--resume", action="store_true",
                       help="reuse completed cells from the cache; without "
                            "--cache-dir the default ~/.cache/repro is used")
    p_exp.add_argument("--force", action="store_true",
                       help="recompute every cell, overwriting cached entries")
    p_exp.add_argument("--backend", default=None, metavar="SPEC",
                       help="backend spec for every cell, name[:device]"
                            "[:precision] (numpy | torch:cuda | "
                            "torch:cuda:fast); cached separately per spec")
    p_exp.add_argument("--on-disk", action="store_true",
                       help="load every cell's dataset as a memory-mapped "
                            "on-disk graph (cached under the graph cache root)")
    p_exp.add_argument("--json", help="also write results as JSON ('-' for stdout)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_cache = sub.add_parser("cache", help="inspect or clear the experiment cache")
    p_cache.add_argument("action", choices=["report", "clear"], help="what to do")
    p_cache.add_argument("--cache-dir",
                         help="cache directory (default: ~/.cache/repro)")
    p_cache.add_argument("--json",
                         help="write the machine-readable report as JSON "
                              "('-' for stdout)")
    p_cache.set_defaults(func=_cmd_cache)

    p_gold = sub.add_parser(
        "golden", help="golden-parity digests of the default models"
    )
    p_gold.add_argument("--update", action="store_true",
                        help="recompute and overwrite the committed fixture")
    p_gold.add_argument("--check", action="store_true",
                        help="recompute and compare against the fixture "
                             "(non-zero exit on any mismatch)")
    p_gold.add_argument("--relaxed", action="store_true",
                        help="with --check: compare metrics within a tiny "
                             "tolerance instead of raw-byte sha256 (for "
                             "BLAS builds other than the fixture's)")
    p_gold.add_argument("--path",
                        help="fixture path (default: tests/golden/golden_digests.json)")
    p_gold.set_defaults(func=_cmd_golden)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # One line, like every other CLI error (a retired flag lands here).
        raise SystemExit(f"unrecognized arguments: {' '.join(unknown)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
