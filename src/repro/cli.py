"""``python -m repro`` — command-line front end over the estimator registry.

Subcommands
-----------
``datasets list``
    The synthetic dataset analogues and the paper datasets they stand in for.
``models list``
    Every registered estimator with its paper section.
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
    python -m repro train --model advsgm --dataset ppi --epsilon 6 \
        --set num_epochs=2 --scale 0.15 --out emb.npz
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

from repro.api.registry import get_entry, list_models, make_model
from repro.graph.datasets import get_spec as get_dataset_spec
from repro.graph.datasets import list_datasets, load_dataset
from repro.utils.validation import check_positive


#: ``experiment`` name -> module of :mod:`repro.experiments` that regenerates it.
EXPERIMENTS = {
    "fig2": "fig2_weight_rationality",
    "fig3": "fig3_link_prediction",
    "fig4": "fig4_node_clustering",
    "table2": "table2_learning_rate",
    "table3": "table3_batch_size",
    "table4": "table4_bound_b",
    "table5": "table5_private_skipgram_comparison",
}


def _entry_or_exit(name: str):
    """Resolve a registry entry, exiting with a one-line message if unknown."""
    try:
        return get_entry(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _load_dataset_or_exit(name: str, scale: float, seed: Any):
    """Load a dataset, exiting with a one-line message on bad name/params."""
    try:
        return load_dataset(name, scale=scale, seed=seed)
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


def _check_labelled_or_exit(name: str) -> None:
    """Refuse node clustering on an unlabelled dataset before any training."""
    if not get_dataset_spec(name).labelled:
        labelled = [d for d in list_datasets() if get_dataset_spec(d).labelled]
        raise SystemExit(
            f"node clustering needs node labels; dataset {name!r} has none "
            f"(labelled: {', '.join(labelled)})"
        )


def _check_positive_or_exit(flag: str, *values: Optional[float]) -> None:
    """Refuse a non-positive or non-finite number in one line, before any work."""
    try:
        for value in values:
            if value is not None:
                check_positive(value, flag)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _check_seed_or_exit(seed: Optional[int]) -> None:
    """Refuse a negative root seed in one line; numpy seeds only from ints >= 0."""
    if seed is not None and seed < 0:
        raise SystemExit(f"--seed must be non-negative, got {seed}")


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
    return value


def _parse_overrides(model_name: str, pairs: Sequence[str]) -> Dict[str, Any]:
    """Turn ``field=value`` strings into typed config overrides."""
    entry = _entry_or_exit(model_name)
    defaults = {f.name: f.default for f in dataclasses.fields(entry.config_cls)}
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
        try:
            overrides[key] = _coerce(raw, defaults[key])
        except ValueError as exc:
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


def _cmd_models(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(f"{'name':<14}{'class':<22}{'private':<9}paper")
        for name in list_models():
            entry = get_entry(name)
            print(
                f"{entry.name:<14}{entry.cls.__name__:<22}"
                f"{'yes' if entry.private else 'no':<9}{entry.paper}"
            )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    _check_positive_or_exit("--epsilon", args.epsilon)
    _check_positive_or_exit("--scale", args.scale)
    _check_seed_or_exit(args.seed)
    entry = _entry_or_exit(args.model)
    overrides = _parse_overrides(args.model, args.set or [])
    graph = _load_dataset_or_exit(args.dataset, args.scale, args.seed)
    epsilon = args.epsilon if entry.private else None
    if args.epsilon is not None and not entry.private:
        raise SystemExit(f"model {entry.name!r} is not private; drop --epsilon")
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
    from repro.experiments.runners import run_cell, spec_from_settings

    _check_positive_or_exit("--epsilon", args.epsilon)
    _check_positive_or_exit("--scale", args.scale)
    entry = _entry_or_exit(args.model)
    _check_dataset_or_exit(args.dataset)
    if args.task == "node_clustering":
        _check_labelled_or_exit(args.dataset)
    if args.repeat < 0:
        raise SystemExit(f"--repeat must be non-negative, got {args.repeat}")
    _check_seed_or_exit(args.seed)
    settings = ExperimentSettings.preset(args.preset)
    if args.scale is not None:
        settings = dataclasses.replace(settings, dataset_scale=args.scale)
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    epsilon = args.epsilon if entry.private else None
    if args.epsilon is not None and not entry.private:
        raise SystemExit(f"model {entry.name!r} is not private; drop --epsilon")
    # The last cell of a (repeat + 1)-repeat spec carries repeat's seed.
    cell = spec_from_settings(
        args.task, [args.dataset], [args.model], settings,
        epsilons=(epsilon,), repeats=args.repeat + 1,
    ).cells()[-1]
    row = run_cell(cell)
    text = "\n".join(
        f"{key}: {value}" for key, value in row.items() if value is not None
    )
    _emit(row, text, args.json)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from repro import experiments

    module = getattr(experiments, EXPERIMENTS[args.name])
    accepted = inspect.signature(module.run).parameters
    # run() keyword -> (flag, value) for every option given on the line.
    given: Dict[str, Any] = {}
    if args.dataset:
        for dataset in args.dataset:
            _check_dataset_or_exit(dataset)
        if args.name == "fig4":
            for dataset in args.dataset:
                _check_labelled_or_exit(dataset)
        given["datasets"] = ("--dataset", tuple(args.dataset))
    if args.models:
        for model in args.models:
            _entry_or_exit(model)
        given["models"] = ("--models", tuple(args.models))
    if args.epsilons:
        _check_positive_or_exit("--epsilons", *args.epsilons)
        given["epsilons"] = ("--epsilons", tuple(args.epsilons))
    if args.workers is not None:
        given["workers"] = ("--workers", args.workers)
    store = None
    if args.cache_dir or args.resume or args.force:
        flag = next(f for f, on in (("--cache-dir", args.cache_dir),
                                    ("--resume", args.resume),
                                    ("--force", args.force)) if on)
        if "cache" not in accepted:
            raise SystemExit(f"{flag} does not apply to {args.name}")
        if args.force and not (args.cache_dir or args.resume):
            raise SystemExit(
                f"--force requires --cache-dir or --resume (experiment {args.name})"
            )
        from repro.cache import ResultStore

        store = ResultStore(args.cache_dir)  # None selects the default dir
        given["cache"] = (flag, store)
        given["force"] = ("--force", args.force)
    if "datasets" in given and "auc_datasets" in accepted:
        # table5: AUC columns on every requested dataset, MI columns only on
        # the labelled ones (possibly none).
        flag, datasets = given.pop("datasets")
        given["auc_datasets"] = (flag, datasets)
        given["mi_datasets"] = (
            flag, tuple(d for d in datasets if get_dataset_spec(d).labelled)
        )
    for key, (flag, _) in given.items():
        if key not in accepted:
            raise SystemExit(f"{flag} does not apply to {args.name}")
    settings = experiments.ExperimentSettings.preset(args.preset)
    results = module.run(settings, **{k: v for k, (_, v) in given.items()})
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
        try:
            target = golden.write_digests(path)
        except ValueError as exc:
            raise SystemExit(str(exc))
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

    p_models = sub.add_parser("models", help="model registry operations")
    p_models.add_argument("action", choices=["list"], help="what to do")
    p_models.set_defaults(func=_cmd_models)

    p_train = sub.add_parser("train", help="train one model on one dataset")
    p_train.add_argument("--model", required=True, help="registry name (see `models list`)")
    p_train.add_argument("--dataset", required=True, help="dataset name (see `datasets list`)")
    p_train.add_argument("--epsilon", type=float, default=None, help="privacy budget (private models)")
    p_train.add_argument("--scale", type=float, default=1.0, help="dataset scale multiplier")
    p_train.add_argument("--seed", type=int, default=2025, help="root seed")
    p_train.add_argument("--set", action="append", metavar="FIELD=VALUE",
                         help="override a config field (repeatable)")
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
    p_eval.add_argument("--json", help="also write the result row as JSON ('-' for stdout)")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("name", choices=list(EXPERIMENTS))
    p_exp.add_argument("--preset", choices=["smoke", "quick", "full"], default="quick")
    p_exp.add_argument("--dataset", action="append",
                       help="restrict to this dataset (repeatable)")
    p_exp.add_argument("--models", nargs="+", help="restrict fig3/fig4 to these models")
    p_exp.add_argument("--epsilons", nargs="+", type=float,
                       help="restrict the swept privacy budgets")
    p_exp.add_argument("--workers", type=int,
                       help="process-pool size for the experiment cells")
    p_exp.add_argument("--cache-dir",
                       help="cache completed cells under this directory and "
                            "load them on re-runs (content-addressed)")
    p_exp.add_argument("--resume", action="store_true",
                       help="reuse completed cells from the cache; without "
                            "--cache-dir the default ~/.cache/repro is used")
    p_exp.add_argument("--force", action="store_true",
                       help="recompute every cell, overwriting cached entries")
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
                        help="recompute and overwrite the committed fixture "
                             "(a changed digest needs a CACHE_SCHEMA_VERSION bump)")
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
        # One line, like every other CLI error (a retired flag lands here),
        # and argparse's usage-error status.
        print(f"unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        raise SystemExit(2)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
