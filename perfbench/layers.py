"""Per-layer tracing from outside the program.

Each layer of ``repro`` is measured by wrapping calls into its public
functions for the duration of one traced repetition; nothing in ``src/``
knows it is being traced.  A wrapped call is a *span*.  Spans nest through
one stack, so a layer's time is its **self time**: the span's duration minus
the part of it covered by spans it called.  Self times of all layers plus
``other_s`` (wall time no span covers) add up to the traced wall time.

Counts are recorded at the same boundaries (rows scattered, noise values
drawn, budget checks, ...), so per-layer ratios are measured where the work
happens.  ``BENCHMARK.json`` lists the per-layer metrics and their report
order; a name recorded here must be declared there to be reported.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Counter = Callable[[tuple, dict, Any], Dict[str, int]]

def _size(x: Any) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else len(x)


def _accountant_steps(args: tuple, kwargs: dict, _out: Any) -> Dict[str, int]:
    num_steps = args[2] if len(args) > 2 else kwargs.get("num_steps", 1)
    return {"accountant.steps": int(num_steps)}


def _gaussian_values(args: tuple, kwargs: dict, _out: Any) -> Dict[str, int]:
    shape = args[4] if len(args) > 4 else kwargs["shape"]
    values = 1
    for dim in (shape if isinstance(shape, tuple) else (shape,)):
        values *= int(dim)
    return {"backend.gaussian_values": values}


def _once(name: str) -> Counter:
    return lambda args, kwargs, out: {name: 1}


def layer_patches() -> List[Tuple[Any, str, Optional[str], Optional[Counter]]]:
    """``(owner, attribute, layer, counter)`` for every wrapped public call.

    ``layer`` ``None`` makes a count-only wrapper (no span): its time stays
    with the enclosing layer.
    """
    from repro.backend.numpy_backend import NumpyBackend
    from repro.baselines import dpar, dpasgm, dpggan, dpgvae, dpsgm, gap
    from repro.cache.store import ResultStore
    from repro.core.discriminator import AdvSGMDiscriminator
    from repro.core.generator import GeneratorPair
    from repro.embedding import deepwalk
    from repro.embedding.skipgram import SkipGramModel
    from repro.evals.link_prediction import LinkPredictionTask
    from repro.experiments import runners
    from repro.graph.graph import Graph
    from repro.graph.sampling import EdgeSampler
    from repro.graph.walk_engine import WalkEngine
    from repro.privacy.accountant import RdpAccountant
    from repro.train import PrivacyBudget

    patches = [
        (NumpyBackend, "normalize_rows_", "backend.normalize",
         lambda a, k, out: {"backend.normalize_rows": _size(a[1])}),
        (NumpyBackend, "index_add_", "backend.index_add",
         lambda a, k, out: {"backend.index_add_rows": _size(a[2])}),
        (NumpyBackend, "gaussian", "backend.gaussian", _gaussian_values),
        (GeneratorPair, "generate_pairs", "generator.forward", _once("generator.calls")),
        (GeneratorPair, "train_step", "generator.train", _once("generator.steps")),
        (AdvSGMDiscriminator, "perturbed_batch_gradients", "discriminator.gradient",
         _once("discriminator.substeps")),
        (AdvSGMDiscriminator, "apply_gradients", "discriminator.update", None),
        (PrivacyBudget, "exhausted", "budget.check", _once("budget.checks")),
        (RdpAccountant, "step", "accountant.step", _accountant_steps),
        (EdgeSampler, "sample", "sampling.sample", _once("sampling.batches")),
        (WalkEngine, "walk_corpus", "walk.corpus", None),
        (WalkEngine, "node2vec_walks", None, _once("walk.passes")),
        (deepwalk, "walks_to_pairs", "pairs.extract",
         lambda a, k, out: {"pairs.count": _size(out)}),
        (SkipGramModel, "train_step", "skipgram.step", _once("skipgram.steps")),
        (Graph, "__init__", "graph.build",
         lambda a, k, out: {"graph.nodes": a[0].num_nodes, "graph.edges": a[0].num_edges}),
        (runners, "load_dataset", "graph.build", None),
        (LinkPredictionTask, "__init__", "evals.split", None),
        (LinkPredictionTask, "evaluate", "evals.score", None),
        (ResultStore, "put", "cache.put", None),
        (ResultStore, "get", "cache.get",
         lambda a, k, out: {"cache.misses" if out is None else "cache.hits": 1}),
    ]
    for module in (dpggan, dpgvae, gap, dpar, dpsgm, dpasgm):
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and "fit" in vars(value):
                patches.append((value, "fit", "baselines.fit", None))
    return patches


class Tracer:
    """Self-time spans and counters over the calls :func:`layer_patches` names.

    Use as a context manager around exactly the region to trace: entering
    installs the wrappers, leaving restores the originals.  Totals
    accumulate across activations.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _count(self, counter: Optional[Counter], args, kwargs, out) -> None:
        if counter is not None:
            for name, n in counter(args, kwargs, out).items():
                self.counts[name] += n

    def _enter(self) -> Tuple[List[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, layer: str, frame: List[float], start: float) -> None:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.seconds[layer] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def wrap(self, fn: Callable, layer: Optional[str], counter: Optional[Counter]) -> Callable:
        """``fn`` recording a span for ``layer`` (if any) and its counts."""
        tracer = self

        if layer is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer._count(counter, args, kwargs, out)
                return out
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame, start = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame, start)
            tracer._count(counter, args, kwargs, out)
            return out
        return spanned

    def wrap_iter(self, fn: Callable, layer: str, count: str) -> Callable:
        """Generator-returning ``fn`` whose every ``next`` is a ``layer`` span."""
        tracer = self

        @functools.wraps(fn)
        def waited(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame, start = tracer._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit(layer, frame, start)
                tracer.counts[count] += 1
                yield item
        return waited

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro.train import ArrayPairSource

        targets = [(o, a, self.wrap(vars(o)[a], layer, counter))
                   for o, a, layer, counter in layer_patches()]
        targets.append((ArrayPairSource, "batches", self.wrap_iter(
            vars(ArrayPairSource)["batches"], "pair_source.wait", "pair_source.batches")))
        for owner, attr, wrapped in targets:
            self._installed.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def metrics(self, wall: float) -> Dict[str, float]:
        """The per-layer metrics recorded over a traced region of ``wall`` seconds."""
        out: Dict[str, float] = {f"{layer}_s": s for layer, s in self.seconds.items()}
        out.update(self.counts)
        steps = self.counts.get("accountant.steps", 0)
        out["budget.checks_per_step"] = self.counts.get("budget.checks", 0) / steps if steps else 0.0
        out["other_s"] = wall - sum(self.seconds.values())
        return out
