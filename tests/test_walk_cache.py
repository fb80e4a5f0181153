"""Derived-artifact walk-corpus cache tests.

The contract under test (see ``repro/cache/artifacts.py`` and the cache
plumbing in ``repro/graph/walk_engine.py``):

* **bit-identical replay** — a corpus computed with ``walk_cache`` (cold or
  warm, any mix of hits and misses) equals the uncached corpus seed-for-seed,
  for every walk discipline: the sequential stream (uniform and node2vec),
  and the derived-seed process pool;
* **keys are content addresses** — artifacts key on the graph *fingerprint*
  plus the full RNG derivation, so an on-disk replica of a graph hits the
  artifacts its in-RAM twin wrote, while different seeds/params never alias;
* **defensive reads** — truncated arrays, corrupt or stale manifests are
  misses (recompute + rewrite), never errors;
* **placement only** — ``walk_cache`` never enters ``cell_key``; training
  through the materialised and streaming pipelines, ``run_spec`` and a
  ``ServiceWorker`` produces bit-identical rows and embeddings either way;
* **concurrent writers are safe** — two processes walking the same corpus
  into one store interleave without corrupting it.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentCell, ExperimentSpec, ModelSpec
from repro.api.registry import make_model
from repro.cache import (
    ARTIFACT_SCHEMA_VERSION,
    ResultStore,
    WalkCorpusStore,
    cell_key,
    resolve_walk_cache,
)
from repro.cache.artifacts import WALK_CACHE_ENV, default_artifact_dir
from repro.experiments.runners import run_spec
from repro.graph.walk_engine import WalkEngine


def corpus(graph, *, walk_cache=False, **kwargs):
    engine = WalkEngine(graph)
    return engine.walk_corpus(
        3, 8, rng=kwargs.pop("rng", 42), walk_cache=walk_cache, **kwargs
    )


def store_in(tmp_path) -> WalkCorpusStore:
    return WalkCorpusStore(tmp_path / "artifacts")


def _spawn_corpus_writer(root: str, barrier) -> None:
    """Child-process body for the concurrent-writer test (spawn-safe)."""
    from repro.cache import WalkCorpusStore
    from repro.graph.generators import powerlaw_cluster_graph
    from repro.graph.walk_engine import WalkEngine

    graph = powerlaw_cluster_graph(80, attachment=3, triangle_prob=0.3, rng=5)
    store = WalkCorpusStore(root)
    barrier.wait(timeout=30)  # maximise write overlap
    WalkEngine(graph).walk_corpus(4, 8, rng=99, walk_cache=store)


# ---------------------------------------------------------------------------
# keys and resolution
# ---------------------------------------------------------------------------
class TestKeysAndResolution:
    def test_corpus_key_is_deterministic_and_payload_sensitive(self):
        base = {"graph": "f" * 64, "mode": "derived", "seed": 7, "walk_length": 8}
        assert WalkCorpusStore.corpus_key(base) == WalkCorpusStore.corpus_key(
            dict(reversed(list(base.items())))
        )
        assert WalkCorpusStore.corpus_key(base) != WalkCorpusStore.corpus_key(
            dict(base, seed=8)
        )

    def test_resolve_false_disables_even_with_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WALK_CACHE_ENV, str(tmp_path))
        assert resolve_walk_cache(False) is None

    def test_resolve_none_defers_to_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(WALK_CACHE_ENV, raising=False)
        assert resolve_walk_cache(None) is None
        for off in ("", "0", "false", "off", "no"):
            monkeypatch.setenv(WALK_CACHE_ENV, off)
            assert resolve_walk_cache(None) is None
        monkeypatch.setenv(WALK_CACHE_ENV, "1")
        assert resolve_walk_cache(None).root == default_artifact_dir()
        monkeypatch.setenv(WALK_CACHE_ENV, str(tmp_path / "arts"))
        assert resolve_walk_cache(None).root == tmp_path / "arts"

    def test_resolve_passthrough_and_paths(self, tmp_path):
        store = WalkCorpusStore(tmp_path)
        assert resolve_walk_cache(store) is store
        assert resolve_walk_cache(str(tmp_path)).root == tmp_path
        assert resolve_walk_cache(True).root == default_artifact_dir()

    def test_cell_key_unchanged_by_walk_cache(self, tmp_path):
        base = ExperimentCell(
            task="link_prediction", dataset="ppi",
            model=ModelSpec("deepwalk", overrides=dict(num_walks=1)),
            epsilon=None, repeat=0, seed=11, dataset_scale=0.1,
            dataset_seed=11, test_fraction=0.1,
        )
        key = cell_key(base)
        for value in (True, False, str(tmp_path)):
            assert cell_key(dataclasses.replace(base, walk_cache=value)) == key
        # ... whether the knob rides as a cell field or a model override.
        override = dataclasses.replace(
            base,
            model=ModelSpec(
                "deepwalk", overrides=dict(num_walks=1, walk_cache=str(tmp_path))
            ),
        )
        assert cell_key(override) == key


# ---------------------------------------------------------------------------
# bit-identical replay, per walk discipline
# ---------------------------------------------------------------------------
class TestCorpusReplay:
    @pytest.mark.parametrize("pq", [(1.0, 1.0), (0.5, 2.0)])
    def test_stream_replay_bit_identical(self, small_graph, tmp_path, pq):
        p, q = pq
        store = store_in(tmp_path)
        baseline = corpus(small_graph, p=p, q=q)
        cold = corpus(small_graph, p=p, q=q, walk_cache=store)
        assert store.stats.writes == 3 and store.stats.hits == 0
        warm = corpus(small_graph, p=p, q=q, walk_cache=store)
        assert store.stats.hits == 3 and store.stats.writes == 3
        np.testing.assert_array_equal(baseline, cold)
        np.testing.assert_array_equal(baseline, warm)

    @pytest.mark.timeout(120)
    def test_pooled_replay_bit_identical(self, small_graph, tmp_path):
        store = store_in(tmp_path)
        baseline = corpus(small_graph, workers=2)
        cold = corpus(small_graph, workers=2, walk_cache=store)
        warm = corpus(small_graph, workers=2, walk_cache=store)
        assert store.stats.writes == 3 and store.stats.hits == 3
        np.testing.assert_array_equal(baseline, cold)
        np.testing.assert_array_equal(baseline, warm)

    @pytest.mark.timeout(120)
    def test_two_disciplines_two_key_layouts(self, small_graph, tmp_path):
        # The shared stream and the pooled derived seeds never alias, and
        # they are the only layouts the store ever holds.
        store = store_in(tmp_path)
        corpus(small_graph, walk_cache=store)
        corpus(small_graph, workers=2, walk_cache=store)
        assert store.stats.writes == 6 and store.stats.hits == 0
        modes = {
            json.loads(path.read_text())["pass"]["mode"]
            for path in (store.root / "corpus").glob("*/*.json")
        }
        assert modes == {"stream", "derived"}

    def test_mixed_hit_miss_stream_replay(self, small_graph, tmp_path):
        """A partially evicted corpus still replays bit-for-bit.

        The middle pass's artifact is deleted, so the warm run hits pass 0,
        recomputes pass 1 from the restored stream position, and hits pass 2
        — the hardest case for the shared-stream RNG discipline.
        """
        store = store_in(tmp_path)
        baseline = corpus(small_graph, p=0.5, q=2.0)
        corpus(small_graph, p=0.5, q=2.0, walk_cache=store)
        manifests = sorted(store._manifest_files())
        # Find the index-1 artifact via its manifest payload, not file order.
        for manifest_path in manifests:
            data = json.loads(manifest_path.read_text())
            if data["pass"]["index"] == 1:
                manifest_path.with_suffix(".npy").unlink()
                manifest_path.unlink()
                break
        else:
            pytest.fail("no index-1 artifact found")
        mixed = corpus(small_graph, p=0.5, q=2.0, walk_cache=store)
        np.testing.assert_array_equal(baseline, mixed)
        assert store.stats.writes == 4  # 3 cold + 1 recomputed

    def test_on_disk_graph_hits_in_ram_artifacts(self, tmp_path):
        """Keys address graph *content*: a mmap replica replays RAM's corpus."""
        from repro.graph.datasets import load_dataset

        ram = load_dataset("ppi", scale=0.1, seed=3)
        disk = load_dataset(
            "ppi", scale=0.1, seed=3, on_disk=True, cache_dir=tmp_path / "graphs"
        )
        assert ram.fingerprint == disk.fingerprint
        store = store_in(tmp_path)
        ram_corpus = WalkEngine(ram).walk_corpus(2, 8, rng=17, walk_cache=store)
        disk_corpus = WalkEngine(disk).walk_corpus(2, 8, rng=17, walk_cache=store)
        assert store.stats.writes == 2 and store.stats.hits == 2
        np.testing.assert_array_equal(ram_corpus, disk_corpus)

    def test_distinct_seeds_never_alias(self, small_graph, tmp_path):
        store = store_in(tmp_path)
        a = corpus(small_graph, rng=1, walk_cache=store)
        b = corpus(small_graph, rng=2, walk_cache=store)
        assert store.stats.hits == 0 and store.stats.writes == 6
        assert not np.array_equal(a, b)

    def test_fingerprintless_graph_disables_cache(self, tmp_path, monkeypatch):
        """A graph that cannot be content-addressed is silently uncached."""
        from repro.graph.graph import Graph

        graph = Graph(4, [(0, 1), (1, 2), (2, 3)], name="t")
        monkeypatch.setattr(type(graph.storage), "fingerprint", property(lambda self: None))
        assert graph.fingerprint is None
        store = store_in(tmp_path)
        baseline = WalkEngine(graph).walk_corpus(2, 4, rng=0)
        uncached = WalkEngine(graph).walk_corpus(2, 4, rng=0, walk_cache=store)
        np.testing.assert_array_equal(baseline, uncached)
        assert store.stats.writes == 0 and store.stats.misses == 0


# ---------------------------------------------------------------------------
# defensive reads
# ---------------------------------------------------------------------------
class TestCorruption:
    def fill(self, small_graph, tmp_path):
        store = store_in(tmp_path)
        baseline = corpus(small_graph, walk_cache=store)
        return store, baseline

    def paths(self, store):
        manifests = sorted(store._manifest_files())
        assert manifests
        return manifests[0], manifests[0].with_suffix(".npy")

    def assert_recovers(self, store, small_graph, baseline, stale=True):
        replay = corpus(small_graph, walk_cache=store)
        np.testing.assert_array_equal(baseline, replay)
        if stale:
            assert store.stats.stale >= 1

    def test_truncated_array_is_a_miss(self, small_graph, tmp_path):
        store, baseline = self.fill(small_graph, tmp_path)
        _, array_path = self.paths(store)
        array_path.write_bytes(array_path.read_bytes()[:40])
        self.assert_recovers(store, small_graph, baseline)

    def test_garbage_manifest_is_a_miss(self, small_graph, tmp_path):
        store, baseline = self.fill(small_graph, tmp_path)
        manifest_path, _ = self.paths(store)
        manifest_path.write_text("{not json", encoding="utf-8")
        self.assert_recovers(store, small_graph, baseline)

    def test_stale_schema_is_a_miss(self, small_graph, tmp_path):
        store, baseline = self.fill(small_graph, tmp_path)
        manifest_path, _ = self.paths(store)
        data = json.loads(manifest_path.read_text())
        data["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_recovers(store, small_graph, baseline)

    def test_key_mismatch_is_a_miss(self, small_graph, tmp_path):
        store, baseline = self.fill(small_graph, tmp_path)
        manifest_path, _ = self.paths(store)
        data = json.loads(manifest_path.read_text())
        data["key"] = "0" * 64
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_recovers(store, small_graph, baseline)

    def test_shape_mismatch_is_a_miss(self, small_graph, tmp_path):
        store, baseline = self.fill(small_graph, tmp_path)
        manifest_path, array_path = self.paths(store)
        np.save(array_path, np.zeros((2, 2), dtype=np.int64))
        self.assert_recovers(store, small_graph, baseline)

    def test_missing_array_is_a_miss(self, small_graph, tmp_path):
        store, baseline = self.fill(small_graph, tmp_path)
        _, array_path = self.paths(store)
        array_path.unlink()
        self.assert_recovers(store, small_graph, baseline)

    def test_corrupt_post_state_recomputes(self, small_graph, tmp_path):
        """An unusable stream state falls back to recomputation, not error."""
        store, baseline = self.fill(small_graph, tmp_path)
        for manifest_path in store._manifest_files():
            data = json.loads(manifest_path.read_text())
            data["post_state"] = {"bogus": True}
            manifest_path.write_text(json.dumps(data), encoding="utf-8")
        self.assert_recovers(store, small_graph, baseline, stale=False)


# ---------------------------------------------------------------------------
# training-path parity (materialised, streaming, walk pool, models)
# ---------------------------------------------------------------------------
class TestTrainingParity:
    KW = dict(
        num_walks=2, walk_length=8, window_size=2, embedding_dim=8,
        num_epochs=1, batch_size=64,
    )

    def train(self, graph, model="deepwalk", **overrides):
        kwargs = dict(self.KW, **overrides)
        return make_model(model, graph=graph, rng=13, **kwargs).fit().embeddings_

    def test_materialised_deepwalk_parity(self, small_graph, tmp_path):
        baseline = self.train(small_graph)
        cached = self.train(small_graph, walk_cache=str(tmp_path / "a"))
        warm = self.train(small_graph, walk_cache=str(tmp_path / "a"))
        np.testing.assert_array_equal(baseline, cached)
        np.testing.assert_array_equal(baseline, warm)

    def test_streaming_deepwalk_parity(self, small_graph, tmp_path):
        baseline = self.train(small_graph, pair_streaming=True)
        cached = self.train(
            small_graph, pair_streaming=True, walk_cache=str(tmp_path / "a")
        )
        warm = self.train(
            small_graph, pair_streaming=True, walk_cache=str(tmp_path / "a")
        )
        np.testing.assert_array_equal(baseline, cached)
        np.testing.assert_array_equal(baseline, warm)

    def test_streaming_node2vec_parity(self, small_graph, tmp_path):
        kwargs = dict(p=0.5, q=2.0, pair_streaming=True)
        baseline = self.train(small_graph, "node2vec", **kwargs)
        cached = self.train(
            small_graph, "node2vec", walk_cache=str(tmp_path / "a"), **kwargs
        )
        warm = self.train(
            small_graph, "node2vec", walk_cache=str(tmp_path / "a"), **kwargs
        )
        np.testing.assert_array_equal(baseline, cached)
        np.testing.assert_array_equal(baseline, warm)

    @pytest.mark.timeout(120)
    def test_streaming_walk_pool_parity(self, small_graph, tmp_path):
        kwargs = dict(pair_streaming=True, walk_workers=2)
        baseline = self.train(small_graph, **kwargs)
        cached = self.train(
            small_graph, walk_cache=str(tmp_path / "a"), **kwargs
        )
        warm = self.train(small_graph, walk_cache=str(tmp_path / "a"), **kwargs)
        np.testing.assert_array_equal(baseline, cached)
        np.testing.assert_array_equal(baseline, warm)

    def test_false_disables_despite_env(self, small_graph, tmp_path, monkeypatch):
        monkeypatch.setenv(WALK_CACHE_ENV, str(tmp_path / "env"))
        self.train(small_graph, walk_cache=False)
        assert not (tmp_path / "env" / "corpus").exists()

    def test_env_enables_by_default(self, small_graph, tmp_path, monkeypatch):
        monkeypatch.setenv(WALK_CACHE_ENV, str(tmp_path / "env"))
        baseline_emb = self.train(small_graph)  # walk_cache=None -> env
        assert (tmp_path / "env" / "corpus").exists()
        monkeypatch.delenv(WALK_CACHE_ENV)
        uncached = self.train(small_graph)
        np.testing.assert_array_equal(baseline_emb, uncached)


# ---------------------------------------------------------------------------
# sweep and service parity
# ---------------------------------------------------------------------------
def tiny_spec(walk_cache=None, repeats=2, model="deepwalk"):
    overrides = dict(num_epochs=1, embedding_dim=8, batch_size=64)
    if model in ("deepwalk", "node2vec"):
        overrides.update(num_walks=1, walk_length=5)
    return ExperimentSpec(
        task="link_prediction",
        datasets=("ppi",),
        models=(ModelSpec(model, overrides=overrides),),
        epsilons=(None,),
        repeats=repeats,
        base_seed=11,
        dataset_scale=0.1,
        walk_cache=walk_cache,
    )


class TestSweepAndService:
    def test_run_spec_rows_identical_and_artifacts_written(
        self, tmp_path, monkeypatch
    ):
        # Every serial corpus pass goes through node2vec_walks (uniform
        # walks dispatch inside it), so counting its calls counts the passes
        # a sweep computed rather than replayed.
        passes = []
        original = WalkEngine.node2vec_walks

        def counted(self, *args, **kwargs):
            passes.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(WalkEngine, "node2vec_walks", counted)
        baseline = run_spec(tiny_spec())
        arts = tmp_path / "artifacts"
        passes.clear()
        cached = run_spec(tiny_spec(walk_cache=str(arts)))
        assert cached == baseline
        assert len(passes) > 0
        store = WalkCorpusStore(arts)
        assert store.report()["count"] >= 1
        passes.clear()
        warm = run_spec(tiny_spec(walk_cache=str(arts)))
        assert warm == baseline
        assert len(passes) == 0

    def test_non_walk_model_ignores_walk_cache(self, tmp_path):
        # The skipgram family has no walk corpus; a sweep-level walk_cache
        # must be silently ignored for its cells, not crash them.
        spec = tiny_spec(walk_cache=str(tmp_path / "a"), repeats=1, model="sgm")
        rows = run_spec(spec)
        assert rows and rows == run_spec(tiny_spec(repeats=1, model="sgm"))

    @pytest.mark.timeout(120)
    def test_service_worker_with_walk_cache_matches_serial(self, tmp_path):
        from repro.service import ServiceClient, ServiceServer, ServiceWorker

        spec = tiny_spec(repeats=2)
        serial_rows = run_spec(spec)
        arts = tmp_path / "artifacts"
        with ServiceServer(
            store=ResultStore(tmp_path / "store"), lease_seconds=10.0
        ) as srv:
            ServiceClient(srv.base_url).submit(spec)
            worker = ServiceWorker(
                srv.base_url, name="w0", drain=True, poll_interval=0.05,
                walk_cache=str(arts),
            )
            assert worker.run() == 2
            for cell, serial_row in zip(spec.cells(), serial_rows):
                assert srv.store.get(cell) == serial_row
        assert WalkCorpusStore(arts).report()["count"] >= 1


# ---------------------------------------------------------------------------
# engine-side derived caches (transition tables, entry count)
# ---------------------------------------------------------------------------
class TestEngineCaches:
    def test_second_order_entry_count_cached_and_correct(self, small_graph):
        engine = WalkEngine(small_graph)
        expected = int(
            (small_graph.degrees.astype(np.float64) ** 2).sum()
        )
        assert engine.second_order_entry_count() == expected
        assert engine._entry_count == expected  # memoised
        assert engine.second_order_entry_count() == expected

    def test_second_order_table_cached_per_pq(self, small_graph):
        engine = WalkEngine(small_graph)
        table = engine.second_order_table(0.5, 2.0)
        assert engine.second_order_table(0.5, 2.0) is table
        assert engine.second_order_table(2.0, 0.5) is not table

    def test_resolved_second_order_modes(self, small_graph):
        engine = WalkEngine(small_graph)
        assert engine.resolved_second_order(1.0, 1.0) == "uniform"
        assert engine.resolved_second_order(0.5, 2.0) in ("table", "rejection")
        assert engine.resolved_second_order(0.5, 2.0, "rejection") == "rejection"

    def test_cached_table_walks_match_fresh_engine(self, small_graph):
        """Reusing a cached table across passes changes nothing numerically."""
        warm = WalkEngine(small_graph)
        warm.second_order_table(0.5, 2.0)  # pre-warm
        a = warm.node2vec_walks(
            np.arange(20), 8, p=0.5, q=2.0, rng=np.random.default_rng(3),
            second_order="table",
        )
        b = WalkEngine(small_graph).node2vec_walks(
            np.arange(20), 8, p=0.5, q=2.0, rng=np.random.default_rng(3),
            second_order="table",
        )
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# report / clear plumbing
# ---------------------------------------------------------------------------
class TestReportAndClear:
    def test_report_shape_and_counts(self, small_graph, tmp_path):
        store = store_in(tmp_path)
        corpus(small_graph, walk_cache=store)
        report = store.report()
        assert report["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert report["count"] == 3 and report["bytes"] > 0
        assert report["stats"]["writes"] == 3

    def test_result_store_report_includes_artifacts(self, small_graph, tmp_path):
        result_store = ResultStore(tmp_path)
        corpus(small_graph, walk_cache=result_store.artifacts)
        report = result_store.report()
        assert report["artifacts"]["count"] == 3
        assert report["artifacts"]["root"] == str(tmp_path / "artifacts")

    def test_artifacts_clear_leaves_result_entries(self, small_graph, tmp_path):
        result_store = ResultStore(tmp_path)
        cell = ExperimentCell(
            task="link_prediction", dataset="ppi",
            model=ModelSpec("deepwalk"), epsilon=None, repeat=0, seed=11,
            dataset_scale=0.1, dataset_seed=11, test_fraction=0.1,
        )
        result_store.put(cell, {"auc": 0.5, "task": "link_prediction"})
        corpus(small_graph, walk_cache=result_store.artifacts)
        removed = result_store.artifacts.clear()
        assert removed == 3
        assert result_store.artifacts.report()["count"] == 0
        assert result_store.get(cell) is not None  # entries untouched


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------
class TestConcurrentWriters:
    @pytest.mark.timeout(180)
    def test_two_processes_write_one_store_coherently(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        root = str(tmp_path / "shared")
        procs = [
            ctx.Process(target=_spawn_corpus_writer, args=(root, barrier))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)
        # No orphaned temp files, and a third (warm) run replays the serial
        # corpus entirely from the store both writers raced into.
        assert not list(Path(root).glob("corpus/*/*.tmp"))
        from repro.graph.generators import powerlaw_cluster_graph

        graph = powerlaw_cluster_graph(80, attachment=3, triangle_prob=0.3, rng=5)
        store = WalkCorpusStore(root)
        replay = WalkEngine(graph).walk_corpus(4, 8, rng=99, walk_cache=store)
        assert store.stats.hits == 4 and store.stats.writes == 0
        baseline = WalkEngine(graph).walk_corpus(4, 8, rng=99)
        np.testing.assert_array_equal(baseline, replay)
