"""Frontier-batched vectorized random-walk engine.

Instead of advancing one walk at a time (one Python-level RNG call per step
per walk), the engine advances *all* walks one step per iteration: a single
gather into the CSR neighbour array moves the whole frontier, so the Python
overhead is ``O(walk_length)`` instead of ``O(num_walks * walk_length)``.

Walks are returned as an ``(num_walks, walk_length)`` int64 matrix padded
with ``-1`` after a walk terminates early (which, on an undirected graph, can
only happen when the start node is isolated).

For node2vec biasing the engine precomputes a second-order transition table:
for every directed arc ``(t, v)`` it stores the unnormalised p/q weights of
``v``'s neighbours together with their running cumulative sum, so one binary
search per active walk per step samples the biased next hop.  The table holds
``sum_v degree(v)^2`` entries, so on graphs with dense hubs the engine
automatically falls back to rejection sampling: propose a uniform neighbour,
accept with probability ``w / w_max`` where ``w`` is the p/q weight — O(2|E|)
memory regardless of the degree distribution.

``walk_corpus`` has exactly two RNG disciplines.  The default ``workers=1``
path walks every pass on one shared sequential stream, the historical
behaviour kept bit-for-bit.  ``workers >= 2`` distributes whole passes across
a process pool: per-pass seeds are derived from the root generator *before*
the fan-out (the same discipline as ``repro.experiments.runners.run_spec``),
so the pooled corpus is deterministic, identical for every worker count, and
equal to running the same derived-seed passes serially through
:meth:`WalkEngine.corpus_pass`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike, ensure_rng

#: Second-order modes accepted by :meth:`WalkEngine.node2vec_walks`.
SECOND_ORDER_MODES = ("auto", "table", "rejection")


def derive_pass_seeds(rng: np.random.Generator, num_passes: int) -> np.ndarray:
    """Per-pass seeds drawn up front, before any fan-out (run_spec discipline)."""
    return rng.integers(0, 2**63 - 1, size=num_passes)


#: Per-process engine used by the corpus pool workers; built once per
#: worker by the pool initializer instead of being pickled with every task.
_POOL_ENGINE: Optional["WalkEngine"] = None


def _init_pool_engine(graph: Graph) -> None:
    global _POOL_ENGINE
    _POOL_ENGINE = WalkEngine(graph)


def _pool_corpus_pass(args: Tuple[int, int, float, float]) -> np.ndarray:
    seed, walk_length, p, q = args
    return _POOL_ENGINE.corpus_pass(seed, walk_length, p=p, q=q)


@dataclass(frozen=True)
class SecondOrderTable:
    """Precomputed node2vec transition table for one ``(p, q)`` setting.

    Attributes
    ----------
    arc_keys:
        Sorted encoded directed arcs ``src * num_nodes + dst``; the index of
        an arc in this array is its arc id.  The keys are built in CSR order
        and are strictly increasing (the graph has no duplicate edges), so an
        arc's id is also its CSR position: arc ``(t, v)`` is
        ``offsets[t] + i`` where ``neighbours[offsets[t] + i] == v``.  The
        table walk relies on this to carry each walk's arc from step to step
        instead of searching for it.
    entry_offsets:
        ``(num_arcs + 1,)`` offsets into ``candidates`` / ``cum_weights``.
    candidates:
        Concatenated neighbour lists of every arc's destination node.
    cum_weights:
        Global running cumulative sum of the unnormalised p/q weights.
    base, total:
        Per-arc cumulative-weight baseline and segment mass, so a uniform
        draw ``base[a] + r * total[a]`` lands inside arc ``a``'s segment.
    """

    arc_keys: np.ndarray
    entry_offsets: np.ndarray
    candidates: np.ndarray
    cum_weights: np.ndarray
    base: np.ndarray
    total: np.ndarray


class WalkEngine:
    """Vectorized uniform and node2vec walks over a :class:`Graph`."""

    #: Above this many second-order table entries (``sum_v degree(v)^2``) the
    #: ``"auto"`` mode switches to rejection sampling instead of building the
    #: table.  2**25 entries keep the table under ~0.5 GB.  The table lives
    #: only while walking: DeepWalk/node2vec call :meth:`release_tables` once
    #: their walks are drawn, so a fitted model does not pin it.
    second_order_entry_limit: int = 2**25

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._offsets = graph.csr_offsets
        self._neighbours = graph.csr_neighbours
        self._degrees = graph.degrees
        self._tables: Dict[Tuple[float, float], SecondOrderTable] = {}
        self._arc_keys_cache: Optional[np.ndarray] = None
        self._entry_count: Optional[int] = None

    # ------------------------------------------------------------------
    # uniform (first-order) walks
    # ------------------------------------------------------------------
    def uniform_walks(
        self, starts: np.ndarray, walk_length: int, rng: RngLike = None
    ) -> np.ndarray:
        """Uniform random walks from ``starts``; ``(len(starts), walk_length)``."""
        starts = self._check_starts(starts)
        if walk_length <= 0:
            raise ValueError(f"walk_length must be positive, got {walk_length}")
        rng = ensure_rng(rng)
        walks = np.full((starts.size, walk_length), -1, dtype=np.int64)
        walks[:, 0] = starts
        active = np.flatnonzero(self._degrees[starts] > 0)
        current = starts[active]
        for step in range(1, walk_length):
            if active.size == 0:
                break
            current = self._uniform_step(current, rng)
            walks[active, step] = current
        return walks

    def _uniform_step(self, current: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One uniform hop for every node in ``current`` (all have degree > 0)."""
        deg = self._degrees[current]
        pick = (rng.random(current.size) * deg).astype(np.int64)
        np.minimum(pick, deg - 1, out=pick)
        return self._neighbours[self._offsets[current] + pick]

    def walk_corpus(
        self,
        num_walks: int,
        walk_length: int,
        p: float = 1.0,
        q: float = 1.0,
        rng: RngLike = None,
        workers: int = 1,
    ) -> np.ndarray:
        """DeepWalk/node2vec-style corpus: ``num_walks`` shuffled passes.

        Each pass shuffles the node order and starts one walk per node, as
        in the original DeepWalk/node2vec schedules; the passes are stacked
        into one ``(num_walks * num_nodes, walk_length)`` matrix.

        ``workers > 1`` distributes the passes across a process pool.  Per-pass
        seeds are derived from ``rng`` before the fan-out, so the pooled
        corpus is the same for every worker count and equals executing the
        same :meth:`corpus_pass` schedule serially; it differs from the
        ``workers=1`` corpus, whose passes share one sequential stream (kept
        bit-for-bit for backwards reproducibility).
        """
        passes = self.iter_corpus_passes(
            num_walks, walk_length, p=p, q=q, rng=rng, workers=workers
        )
        return np.vstack(list(passes))

    def iter_corpus_passes(
        self,
        num_walks: int,
        walk_length: int,
        p: float = 1.0,
        q: float = 1.0,
        rng: RngLike = None,
        workers: int = 1,
    ):
        """Yield the ``walk_corpus`` passes one matrix at a time.

        This is the single definition of the corpus schedule and its RNG
        discipline: ``walk_corpus`` stacks these passes, and the streaming
        pair pipeline (:func:`repro.graph.random_walk.iter_walk_pairs`)
        consumes them incrementally — which is what makes the two paths
        produce the same walks seed-for-seed.  With ``workers > 1`` at most
        ``workers + 1`` pass matrices are in flight, so a slow consumer
        bounds the producer's memory.
        """
        if num_walks <= 0:
            raise ValueError(f"num_walks must be positive, got {num_walks}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        rng = ensure_rng(rng)
        if workers > 1:
            return self._pooled_passes(num_walks, walk_length, p, q, rng, workers)
        return self._stream_passes(num_walks, walk_length, p, q, rng)

    def _stream_passes(self, num_walks, walk_length, p, q, rng):
        """Passes on the shared sequential stream (the legacy discipline)."""
        nodes = np.arange(self.graph.num_nodes)
        for _ in range(num_walks):
            rng.shuffle(nodes)
            yield self.node2vec_walks(nodes, walk_length, p=p, q=q, rng=rng)

    def _pooled_passes(self, num_walks, walk_length, p, q, rng, workers):
        """Derived-seed passes from a process pool, a bounded window ahead."""
        from collections import deque

        seeds = derive_pass_seeds(rng, num_walks)
        with ProcessPoolExecutor(
            max_workers=min(int(workers), num_walks),
            initializer=_init_pool_engine,
            initargs=(self.graph,),
        ) as pool:

            def submit(index):
                task = (int(seeds[index]), walk_length, p, q)
                return pool.submit(_pool_corpus_pass, task)

            prime = min(int(workers) + 1, num_walks)
            in_flight = deque(submit(index) for index in range(prime))
            for index in range(prime, num_walks + prime):
                matrix = in_flight.popleft().result()
                if index < num_walks:
                    in_flight.append(submit(index))
                yield matrix

    def corpus_pass(
        self,
        seed: int,
        walk_length: int,
        p: float = 1.0,
        q: float = 1.0,
    ) -> np.ndarray:
        """One derived-seed corpus pass: shuffle the nodes, walk once from each.

        This is the pool's unit of work for ``walk_corpus(workers > 1)``;
        running the derived seeds through it serially reproduces the pooled
        corpus.
        """
        rng = np.random.default_rng(int(seed))
        nodes = np.arange(self.graph.num_nodes)
        rng.shuffle(nodes)
        return self.node2vec_walks(nodes, walk_length, p=p, q=q, rng=rng)

    # ------------------------------------------------------------------
    # node2vec (second-order) walks
    # ------------------------------------------------------------------
    def node2vec_walks(
        self,
        starts: np.ndarray,
        walk_length: int,
        p: float = 1.0,
        q: float = 1.0,
        rng: RngLike = None,
        second_order: str = "auto",
    ) -> np.ndarray:
        """Second-order biased walks (node2vec) from ``starts``.

        ``p`` controls the return probability, ``q`` the in-out bias;
        ``p = q = 1`` reduces to (and is dispatched to) uniform walks.

        ``second_order`` picks how the biased step is sampled: ``"table"``
        uses the precomputed cumulative-weight table (``sum deg^2`` entries),
        ``"rejection"`` rejection-samples uniform neighbour proposals (O(2|E|)
        memory, no table), and ``"auto"`` uses the table unless it would
        exceed :attr:`second_order_entry_limit` entries.
        """
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        if second_order not in SECOND_ORDER_MODES:
            raise ValueError(
                f"second_order must be one of {SECOND_ORDER_MODES}, got {second_order!r}"
            )
        if p == 1.0 and q == 1.0:
            return self.uniform_walks(starts, walk_length, rng=rng)
        starts = self._check_starts(starts)
        if walk_length <= 0:
            raise ValueError(f"walk_length must be positive, got {walk_length}")
        rng = ensure_rng(rng)
        use_table = self.resolved_second_order(p, q, second_order) == "table"
        table = self.second_order_table(p, q) if use_table else None
        num_nodes = np.int64(self.graph.num_nodes)

        walks = np.full((starts.size, walk_length), -1, dtype=np.int64)
        walks[:, 0] = starts
        if walk_length == 1:
            return walks
        active = np.flatnonzero(self._degrees[starts] > 0)
        if active.size == 0:
            return walks
        prev = starts[active]
        current = self._uniform_step(prev, rng)
        walks[active, 1] = current
        if table is not None:
            arc = np.searchsorted(table.arc_keys, prev * num_nodes + current)
            for step in range(2, walk_length):
                lo = np.take(table.entry_offsets, arc)
                hi = np.take(table.entry_offsets, arc + 1)
                draw = rng.random(arc.size)
                target = np.take(table.base, arc) + draw * np.take(table.total, arc)
                pos = self._segment_search(table.cum_weights, target, lo, hi)
                # The hop to candidates[pos] is the arc at CSR position
                # offsets[current] + (pos - lo), since arc id == CSR position.
                arc = np.take(self._offsets, current) + (pos - lo)
                current = np.take(table.candidates, pos)
                walks[active, step] = current
            return walks
        for step in range(2, walk_length):
            prev, current = current, self._rejection_step(prev, current, p, q, rng)
            walks[active, step] = current
        return walks

    @staticmethod
    def _segment_search(
        cum_weights: np.ndarray, target: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """``clip(searchsorted(cum_weights, target, "right"), lo, hi - 1)``.

        Vectorised bisection over each walk's own segment ``[lo, hi)`` (never
        empty: ``hi - lo`` is the degree of a node a walk stands on).  Every
        ``target >= cum_weights[lo - 1]`` and ``cum_weights`` never decreases,
        so the global search never lands below ``lo``; searching the segment
        alone gives the same clipped position in ``log2(max degree)`` rounds
        instead of ``log2(num_entries)``.
        """
        base = lo.copy()
        size = hi - lo
        # Each round halves every segment (size -> ceil(size / 2)) and keeps
        # the answer in [base, base + size]; a walk whose segment is down to
        # one entry has half == 0 and stays put.
        for _ in range(int(size.max() - 1).bit_length()):
            half = size // 2
            base += half * (np.take(cum_weights, base + half) <= target)
            size -= half
        # Step past the last candidate only if it is <= target; the clip to
        # hi - 1 is the global search's.
        past = np.take(cum_weights, base) <= target
        return np.minimum(base + past, hi - 1)

    def second_order_entry_count(self) -> int:
        """Entries a second-order table would hold: ``sum_v degree(v)^2``.

        Cached on the engine: the degree distribution never changes (graph
        buffers are read-only), and the ``"auto"`` dispatch in
        :meth:`node2vec_walks` consults this once *per pass*, which made the
        O(num_nodes) reduction a recurring per-pass cost on large graphs.
        """
        if self._entry_count is None:
            self._entry_count = int((self._degrees.astype(np.float64) ** 2).sum())
        return self._entry_count

    def resolved_second_order(self, p: float, q: float, second_order: str = "auto") -> str:
        """The sampling mode a walk with these parameters actually uses.

        ``"uniform"`` for ``p = q = 1`` (dispatched to first-order walks),
        otherwise the table/rejection choice ``"auto"`` resolves to.  The
        two biased modes draw the same distribution but consume the RNG
        differently, so their walks differ seed-for-seed.
        """
        if float(p) == 1.0 and float(q) == 1.0:
            return "uniform"
        if second_order == "auto":
            if self.second_order_entry_count() <= self.second_order_entry_limit:
                return "table"
            return "rejection"
        return second_order

    def _arc_keys(self) -> np.ndarray:
        """Sorted encoded directed arcs ``src * num_nodes + dst`` (2|E| entries)."""
        if self._arc_keys_cache is None:
            src = np.repeat(
                np.arange(self.graph.num_nodes, dtype=np.int64), self._degrees
            )
            # CSR order makes these keys strictly increasing — no sort needed.
            self._arc_keys_cache = src * np.int64(self.graph.num_nodes) + self._neighbours
        return self._arc_keys_cache

    def _rejection_step(
        self,
        prev: np.ndarray,
        current: np.ndarray,
        p: float,
        q: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One second-order hop per walk via rejection sampling.

        Proposes a uniform neighbour of ``current`` and accepts it with
        probability ``w / w_max`` where ``w`` is the node2vec weight (1/p for
        returning to ``prev``, 1 for a triangle edge, 1/q otherwise).  The
        accepted draws follow exactly the table distribution while only ever
        touching the CSR arrays plus one 2|E| key array.
        """
        arc_keys = self._arc_keys()
        num_nodes = np.int64(self.graph.num_nodes)
        w_max = max(1.0 / p, 1.0, 1.0 / q)
        out = np.empty_like(current)
        pending = np.arange(current.size)
        while pending.size:
            candidate = self._uniform_step(current[pending], rng)
            prev_pending = prev[pending]
            weights = np.full(candidate.size, 1.0 / q)
            keys = candidate * num_nodes + prev_pending
            pos = np.searchsorted(arc_keys, keys)
            pos_clipped = np.minimum(pos, max(arc_keys.size - 1, 0))
            is_edge = (pos < arc_keys.size) & (arc_keys[pos_clipped] == keys)
            weights[is_edge] = 1.0
            weights[candidate == prev_pending] = 1.0 / p
            accept = rng.random(candidate.size) * w_max < weights
            out[pending[accept]] = candidate[accept]
            pending = pending[~accept]
        return out

    def release_tables(self) -> None:
        """Drop the cached second-order tables and arc keys.

        The engine is shared by every model on a graph, so its caches outlive
        any one walk.  A trainer calls this once its walks are drawn; the
        next biased walk rebuilds what it needs, with the same result.
        """
        self._tables.clear()
        self._arc_keys_cache = None

    def second_order_table(self, p: float, q: float) -> SecondOrderTable:
        """Return (building and caching on first use) the p/q transition table."""
        key = (float(p), float(q))
        cached = self._tables.get(key)
        if cached is not None:
            return cached
        table = self._build_second_order_table(float(p), float(q))
        self._tables[key] = table
        return table

    def _build_second_order_table(self, p: float, q: float) -> SecondOrderTable:
        num_nodes = np.int64(self.graph.num_nodes)
        offsets, neighbours, degrees = self._offsets, self._neighbours, self._degrees
        src = np.repeat(np.arange(self.graph.num_nodes, dtype=np.int64), degrees)
        dst = neighbours
        # CSR order makes these keys strictly increasing — no sort needed.
        arc_keys = src * num_nodes + dst

        counts = degrees[dst]
        entry_offsets = np.zeros(arc_keys.size + 1, dtype=np.int64)
        np.cumsum(counts, out=entry_offsets[1:])
        num_entries = int(entry_offsets[-1])
        entry_arc = np.repeat(np.arange(arc_keys.size, dtype=np.int64), counts)
        local = np.arange(num_entries, dtype=np.int64) - entry_offsets[entry_arc]
        candidates = neighbours[offsets[dst[entry_arc]] + local]
        prev_nodes = src[entry_arc]

        # Membership test "is (candidate, prev) an edge?" via binary search on
        # the sorted arc keys.
        cand_keys = candidates * num_nodes + prev_nodes
        pos = np.searchsorted(arc_keys, cand_keys)
        pos_clipped = np.minimum(pos, max(arc_keys.size - 1, 0))
        is_edge = (
            (pos < arc_keys.size) & (arc_keys[pos_clipped] == cand_keys)
            if arc_keys.size
            else np.zeros(0, dtype=bool)
        )

        weights = np.full(num_entries, 1.0 / q)
        weights[is_edge] = 1.0
        weights[candidates == prev_nodes] = 1.0 / p

        cum_weights = np.cumsum(weights)
        seg_end = cum_weights[entry_offsets[1:] - 1] if arc_keys.size else np.zeros(0)
        base = np.zeros_like(seg_end)
        base[1:] = seg_end[:-1]
        total = seg_end - base
        return SecondOrderTable(
            arc_keys=arc_keys,
            entry_offsets=entry_offsets,
            candidates=candidates,
            cum_weights=cum_weights,
            base=base,
            total=total,
        )

    # ------------------------------------------------------------------
    def _check_starts(self, starts: np.ndarray) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64).ravel()
        if starts.size and (starts.min() < 0 or starts.max() >= self.graph.num_nodes):
            raise ValueError(
                f"start nodes must lie in [0, {self.graph.num_nodes})"
            )
        return starts
