"""Frontier-batched vectorized random-walk engine.

Instead of advancing one walk at a time (one Python-level RNG call per step
per walk), the engine advances *all* walks one step per iteration: a single
gather into the CSR neighbour array moves the whole frontier, so the Python
overhead is ``O(walk_length)`` instead of ``O(num_walks * walk_length)``.

Walks are returned as an ``(num_walks, walk_length)`` int64 matrix padded
with ``-1`` after a walk terminates early (which, on an undirected graph, can
only happen when the start node is isolated).  ``walk_corpus`` stores its
passes in one int32 matrix instead, half the size: the engine holds node ids
as int32 (the table's candidates and the corpus), so it refuses graphs of
``2**31`` nodes or more.

For node2vec biasing the engine precomputes a second-order transition table:
for every directed arc ``(t, v)`` it stores the unnormalised p/q weights of
``v``'s neighbours together with their running cumulative sum, so one binary
search per active walk per step samples the biased next hop.  The table holds
``sum_v degree(v)^2`` entries (an int32 candidate and a float64 cumulative
weight each) and is built a bounded chunk of entries at a time.  On graphs
with dense hubs (more than ``second_order_entry_limit`` entries) the engine
falls back to rejection sampling instead: propose a uniform neighbour,
accept with probability ``w / w_max`` where ``w`` is the p/q weight —
O(2|E|) memory regardless of the degree distribution.

An engine caches its tables, so the passes of one corpus share them, and
nothing else holds an engine: DeepWalk/node2vec build one per fit and drop
it, with its tables, before they extract the training pairs.

``walk_corpus`` has one RNG discipline: every pass shuffles the node order
and walks once from each node, all on one shared sequential stream, so a
seed fixes the corpus bit for bit (the golden digests pin it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike, ensure_rng

#: Table entries built per chunk in ``WalkEngine._build_second_order_table``.
#: A chunk's temporaries (each entry's arc, CSR position, candidate, previous
#: node, search key and position: under 64 bytes per entry) stay beside the
#: finished arrays, about 4 MiB whatever the table's size.
_TABLE_CHUNK_ENTRIES = 1 << 16


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
        Concatenated neighbour lists of every arc's destination node (int32).
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

    #: Above this many second-order table entries (``sum_v degree(v)^2``)
    #: biased walks use rejection sampling instead of building the table.  A
    #: table entry is 12 bytes (int32 candidate, float64 cumulative
    #: weight; 16 with the int64 candidates held before), plus 32 per arc: at
    #: ppi scale 3, 13.1 B/entry in all (17.1 before).  The chunked build
    #: peaks at 15.7 B/entry under tracemalloc, where the one-shot build it
    #: replaced peaked at 74.8.  So 2**25 entries hold about 0.4 GiB and
    #: build within about 0.5 GiB (about 2.3 GiB before).  The table lives
    #: as long as its engine, which DeepWalk/node2vec drop once their walks
    #: are drawn, so a fitted model does not pin it.
    second_order_entry_limit: int = 2**25

    def __init__(self, graph: Graph) -> None:
        if graph.num_nodes >= 2**31:
            raise ValueError(
                f"the walk engine holds node ids as int32; {graph.num_nodes} nodes "
                "is 2**31 or more"
            )
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
    ) -> np.ndarray:
        """DeepWalk/node2vec-style corpus: ``num_walks`` shuffled passes.

        Each pass shuffles the node order and starts one walk per node, as
        in the original DeepWalk/node2vec schedules, on the one stream
        ``rng``; the passes are stacked into one int32
        ``(num_walks * num_nodes, walk_length)`` matrix.  Each (int64) pass is
        written into its slice of that matrix as it is walked, so walking
        holds the corpus and about one pass.
        """
        if num_walks <= 0:
            raise ValueError(f"num_walks must be positive, got {num_walks}")
        rng = ensure_rng(rng)
        nodes = np.arange(self.graph.num_nodes)
        corpus = None
        for index in range(num_walks):
            rng.shuffle(nodes)
            walks = self.node2vec_walks(nodes, walk_length, p=p, q=q, rng=rng)
            rows = walks.shape[0]
            if corpus is None:
                corpus = np.empty((num_walks * rows, walks.shape[1]), dtype=np.int32)
            corpus[index * rows:(index + 1) * rows] = walks
            # Let the pass go before the next one is walked.
            del walks
        return corpus

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
    ) -> np.ndarray:
        """Second-order biased walks (node2vec) from ``starts``.

        ``p`` controls the return probability, ``q`` the in-out bias;
        ``p = q = 1`` reduces to (and is dispatched to) uniform walks.  The
        biased step samples from the precomputed cumulative-weight table
        (``sum deg^2`` entries), or rejection-samples uniform neighbour
        proposals (O(2|E|) memory, no table) when the table would exceed
        :attr:`second_order_entry_limit` entries.
        """
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        if p == 1.0 and q == 1.0:
            return self.uniform_walks(starts, walk_length, rng=rng)
        starts = self._check_starts(starts)
        if walk_length <= 0:
            raise ValueError(f"walk_length must be positive, got {walk_length}")
        rng = ensure_rng(rng)
        use_table = self.resolved_second_order(p, q) == "table"
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
        buffers are read-only), and :meth:`node2vec_walks` consults this once
        *per pass*, which made the O(num_nodes) reduction a recurring
        per-pass cost on large graphs.
        """
        if self._entry_count is None:
            self._entry_count = int((self._degrees.astype(np.float64) ** 2).sum())
        return self._entry_count

    def resolved_second_order(self, p: float, q: float) -> str:
        """The sampling mode a walk with these parameters uses.

        ``"uniform"`` for ``p = q = 1`` (dispatched to first-order walks),
        otherwise ``"table"``, or ``"rejection"`` when the table would hold
        more than :attr:`second_order_entry_limit` entries.  The two biased
        modes draw the same distribution but consume the RNG differently, so
        their walks differ seed-for-seed.
        """
        if float(p) == 1.0 and float(q) == 1.0:
            return "uniform"
        if self.second_order_entry_count() <= self.second_order_entry_limit:
            return "table"
        return "rejection"

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
        """Build the p/q table a bounded chunk of entries at a time.

        The candidates and the p/q weights are written into two preallocated
        arrays, ``_TABLE_CHUNK_ENTRIES`` entries per chunk, so the per-entry
        temporaries (each entry's arc, candidate, edge-membership search)
        never outgrow one chunk; the weights then become ``cum_weights`` in
        place, by one sequential cumulative sum.
        """
        num_nodes = np.int64(self.graph.num_nodes)
        offsets, neighbours, degrees = self._offsets, self._neighbours, self._degrees
        src = np.repeat(np.arange(self.graph.num_nodes, dtype=np.int64), degrees)
        dst = neighbours
        # CSR order makes these keys strictly increasing — no sort needed.
        arc_keys = src * num_nodes + dst

        entry_offsets = np.zeros(arc_keys.size + 1, dtype=np.int64)
        np.cumsum(degrees[dst], out=entry_offsets[1:])
        num_entries = int(entry_offsets[-1])
        candidates = np.empty(num_entries, dtype=np.int32)
        weights = np.empty(num_entries, dtype=np.float64)
        last_arc = max(arc_keys.size - 1, 0)
        for lo in range(0, num_entries, _TABLE_CHUNK_ENTRIES):
            hi = min(lo + _TABLE_CHUNK_ENTRIES, num_entries)
            # The arcs whose segments overlap [lo, hi), each repeated once
            # per entry of its segment that falls inside the chunk.
            first = int(np.searchsorted(entry_offsets, lo, side="right")) - 1
            stop = int(np.searchsorted(entry_offsets, hi, side="left"))
            inside = np.diff(np.clip(entry_offsets[first:stop + 1], lo, hi))
            entry_arc = np.repeat(np.arange(first, stop, dtype=np.int64), inside)
            # Entry e of arc (t, v) is v's neighbour number e - offsets of (t, v).
            csr_pos = np.arange(lo, hi, dtype=np.int64) - entry_offsets[entry_arc]
            csr_pos += offsets[dst[entry_arc]]
            cand = neighbours[csr_pos]
            prev = src[entry_arc]
            candidates[lo:hi] = cand
            # Membership test "is (candidate, prev) an edge?" via binary
            # search on the sorted arc keys; a key past every arc is clipped
            # to the last arc, whose key is smaller, so it never matches.
            keys = np.multiply(cand, num_nodes, out=csr_pos)
            keys += prev
            pos = np.searchsorted(arc_keys, keys)
            np.minimum(pos, last_arc, out=pos)
            chunk = weights[lo:hi]
            chunk.fill(1.0 / q)
            chunk[arc_keys[pos] == keys] = 1.0
            chunk[cand == prev] = 1.0 / p

        cum_weights = np.cumsum(weights, out=weights)
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
