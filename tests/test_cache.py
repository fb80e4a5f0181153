"""Tests for the content-addressed experiment cache and resumable sweeps.

The correctness contract is reproducibility:

* a cache hit is bit-for-bit identical to recomputing the cell;
* an interrupted ``run_spec`` that is resumed produces results bit-for-bit
  identical to an uninterrupted serial run (for serial and parallel runs);
* mutating any cell field misses; stale-schema entries are ignored, never
  raised.
"""

import json
import multiprocessing
import pickle
import random
import threading

import numpy as np
import pytest

from repro.api import ExperimentCell, ExperimentSpec, ModelSpec
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultStore,
    canonical_cell_dict,
    cell_key,
    default_cache_dir,
    resolve_store,
)
from repro.api.registry import make_model
from repro.experiments import (
    ExperimentSettings,
    table2_learning_rate,
    table3_batch_size,
    table4_bound_b,
)
from repro.experiments.runners import compute_cell, run_cell, run_spec
from repro.golden import GOLDEN_CASES, golden_graph

#: Tiny deepwalk schedule: one cell trains in well under a second.
FAST_DEEPWALK = dict(
    num_walks=1, walk_length=5, num_epochs=1, embedding_dim=8, batch_size=64
)


def tiny_cell(**changes):
    defaults = dict(
        task="link_prediction",
        dataset="ppi",
        model=ModelSpec("deepwalk", overrides=FAST_DEEPWALK),
        epsilon=None,
        repeat=0,
        seed=11,
        dataset_scale=0.1,
        dataset_seed=11,
        test_fraction=0.1,
    )
    defaults.update(changes)
    return ExperimentCell(**defaults)


def tiny_spec(repeats=4):
    return ExperimentSpec(
        task="link_prediction",
        datasets=("ppi",),
        models=(ModelSpec("deepwalk", overrides=FAST_DEEPWALK),),
        epsilons=(None,),
        repeats=repeats,
        base_seed=11,
        dataset_scale=0.1,
    )


class SentinelError(RuntimeError):
    """Stands in for a crash/kill that interrupts a sweep mid-flight."""


class ExplodingStore(ResultStore):
    """A store whose ``put`` dies after K successful writes.

    Interrupting at the persistence step models a killed sweep: some cells
    completed and were stored, the rest were lost — for both the serial and
    the process-pool paths, because ``run_spec`` always persists results in
    the parent process.
    """

    def __init__(self, root, fail_after):
        super().__init__(root)
        self.remaining = fail_after

    def put(self, cell, row, **kwargs):
        if self.remaining <= 0:
            raise SentinelError("sweep interrupted")
        self.remaining -= 1
        return super().put(cell, row, **kwargs)


# ---------------------------------------------------------------------------
# keys: canonicalisation and invalidation
# ---------------------------------------------------------------------------
class TestCellKey:
    def test_key_is_stable_sha256(self):
        key = cell_key(tiny_cell())
        assert len(key) == 64 and int(key, 16) >= 0
        assert key == cell_key(tiny_cell())

    def test_numpy_scalars_hash_like_python(self):
        np_cell = ExperimentCell(
            task="link_prediction",
            dataset="ppi",
            model=ModelSpec(
                "deepwalk",
                overrides={
                    "num_walks": np.int64(1), "walk_length": np.int32(5),
                    "num_epochs": np.int16(1), "embedding_dim": np.int64(8),
                    "batch_size": np.int64(64),
                },
            ),
            epsilon=None,
            repeat=np.int64(0),
            seed=np.int64(11),
            dataset_scale=np.float64(0.1),
            dataset_seed=np.int64(11),
        )
        assert np_cell == tiny_cell()
        assert cell_key(np_cell) == cell_key(tiny_cell())

    def test_override_order_does_not_matter(self):
        forward = ModelSpec("deepwalk", overrides=list(FAST_DEEPWALK.items()))
        backward = ModelSpec(
            "deepwalk", overrides=list(reversed(list(FAST_DEEPWALK.items())))
        )
        assert forward == backward
        assert cell_key(tiny_cell(model=forward)) == cell_key(tiny_cell(model=backward))

    def test_model_aliases_hash_identically(self):
        plain = tiny_cell(model=ModelSpec("advsgm"), epsilon=6.0)
        alias = tiny_cell(model=ModelSpec("AdvSGM"), epsilon=6.0)
        assert cell_key(plain) == cell_key(alias)
        assert canonical_cell_dict(alias)["model"]["name"] == "advsgm"

    def test_int_epsilon_hashes_like_float(self):
        assert cell_key(tiny_cell(epsilon=6)) == cell_key(tiny_cell(epsilon=6.0))

    def test_negative_zero_normalised(self):
        a = tiny_cell(model=ModelSpec("deepwalk", overrides={"learning_rate": -0.0}))
        b = tiny_cell(model=ModelSpec("deepwalk", overrides={"learning_rate": 0.0}))
        assert cell_key(a) == cell_key(b)

    @pytest.mark.parametrize(
        "changes",
        [
            dict(epsilon=6.0),
            dict(seed=12),
            dict(repeat=1),
            dict(dataset="wiki"),
            dict(task="node_clustering"),
            dict(dataset_scale=0.2),
            dict(dataset_seed=99),
            dict(test_fraction=0.2),
            dict(model=ModelSpec("node2vec", overrides=FAST_DEEPWALK)),
            dict(model=ModelSpec("deepwalk", overrides={**FAST_DEEPWALK, "num_epochs": 2})),
        ],
    )
    def test_any_field_mutation_misses(self, changes, tmp_path):
        base = tiny_cell()
        mutated = tiny_cell(**changes)
        assert cell_key(base) != cell_key(mutated)
        store = ResultStore(tmp_path)
        store.put(base, {"auc": 0.5})
        assert store.get(mutated) is None
        assert store.stats.misses == 1

    def test_label_is_part_of_the_key(self):
        # The cached row records the display label, so a different label is
        # a different (row-producing) cell even if the numbers would agree.
        labelled = tiny_cell(model=ModelSpec("deepwalk", label="DW", overrides=FAST_DEEPWALK))
        assert cell_key(labelled) != cell_key(tiny_cell())


class TestGraphPlacementKeys:
    """Retired graph placement never moves a key.

    Older manifests record ``on_disk`` (where bit-identical arrays lived),
    which is not hashed; a cell naming an on-disk graph directory
    (``graph_path``) cannot be keyed any more, and is refused rather than
    aliased to a registry cell.
    """

    def test_only_identity_fields_are_hashed(self):
        # Older to_dict output also carried the walk-corpus cache knob; placement
        # fields never enter the key, whatever their value.
        cell = tiny_cell(model=ModelSpec("node2vec"), epsilon=None)
        old = {**cell.to_dict(), "walk_cache": True, "on_disk": True}
        assert cell_key(old) == cell_key(cell)
        assert set(canonical_cell_dict(old)) == set(canonical_cell_dict(cell))
        assert cell_key({**old, "graph_path": None}) == cell_key(cell)
        with pytest.raises(ValueError, match="on-disk graph path was deleted") as info:
            canonical_cell_dict({**old, "graph_path": "graphs/ppi"})
        assert "\n" not in str(info.value)
        # A manifest of an on-disk graph cell recorded its content
        # fingerprint: it re-hashes to its own key, never to a registry cell's.
        recorded = {**canonical_cell_dict(cell), "graph_fingerprint": "ab" * 32}
        assert cell_key(canonical_cell_dict(recorded)) == cell_key(recorded)
        assert cell_key(recorded) != cell_key(cell)


def _paper_cell(**changes):
    """The default AdvSGM cell on ppi at ε = 6 (Fig. 3's headline point)."""
    defaults = dict(
        task="link_prediction", dataset="ppi", model=ModelSpec("advsgm"),
        epsilon=6.0, repeat=0, seed=2025, dataset_seed=2025,
    )
    defaults.update(changes)
    return ExperimentCell(**defaults)


class TestPinnedKeys:
    """Literal cell keys: any change that moves a key fails here, loudly.

    Every cached result in every existing store is addressed by these
    digests, so a refactor of the cell, spec or placement plumbing must
    leave them byte-identical.  Never regenerate them to make a change
    pass; a deliberate key change bumps ``CACHE_SCHEMA_VERSION`` instead.
    """

    def test_default_advsgm_cell(self):
        assert cell_key(_paper_cell()) == (
            "25b421c88e7b68f40a5039dad3c70d9eb8c08cc827ffe1035463a4d085099b9b"
        )

    def test_node2vec_walk_cell_with_placement_knobs(self):
        cell = _paper_cell(
            model=ModelSpec("node2vec", overrides={
                "walk_length": 20, "num_walks": 4, "window_size": 3,
                "p": 0.5, "q": 2.0,
            }),
            epsilon=None,
        )
        assert cell_key(cell) == (
            "3a6b27939b2385765c4f1068978b2141fd09732da1709e02f6665599f47e057e"
        )

    def test_retired_backend_variable_changes_nothing(self, monkeypatch):
        # REPRO_BACKEND once chose the compute backend.  Nothing reads it
        # now: the keys keep their literals and a fit keeps its bytes.
        graph = golden_graph()
        overrides = GOLDEN_CASES["sgm"]["overrides"]
        before = make_model("sgm", graph=graph, rng=11, **overrides).fit()
        monkeypatch.setenv("REPRO_BACKEND", "torch:cuda:fast")
        self.test_default_advsgm_cell()
        self.test_node2vec_walk_cell_with_placement_knobs()
        after = make_model("sgm", graph=graph, rng=11, **overrides).fit()
        assert after.embeddings_.tobytes() == before.embeddings_.tobytes()

    @pytest.mark.parametrize("legacy", ["numpy", None])
    def test_legacy_numpy_backend_field_loads_to_the_same_key(self, legacy):
        cell = _paper_cell()
        spec = ExperimentSpec(
            task="link_prediction", datasets=("ppi",), models=("advsgm",),
            epsilons=(6.0,), base_seed=2025,
        )
        # Old dicts also carry the retired graph placement, switched off.
        placement = {"backend": legacy, "on_disk": False, "graph_path": None}
        old_cell = json.loads(json.dumps({**cell.to_dict(), **placement}))
        assert cell_key(ExperimentCell.from_dict(old_cell)) == cell_key(cell)
        old_spec = json.loads(json.dumps({**spec.to_dict(), **placement}))
        assert ExperimentSpec.from_dict(old_spec) == spec
        assert [cell_key(c) for c in ExperimentSpec.from_dict(old_spec).cells()] == [
            cell_key(cell)
        ]
        # A graph placed on disk is refused in one line, not run from RAM.
        for field, value in (("on_disk", True), ("graph_path", "graphs/ppi")):
            for load, old in ((ExperimentCell.from_dict, old_cell),
                              (ExperimentSpec.from_dict, old_spec)):
                with pytest.raises(ValueError, match="on-disk graph path was deleted") as info:
                    load({**old, field: value})
                assert "\n" not in str(info.value)


#: One swept value per table at smoke settings on ppi, with the key of the
#: one cell each stores.  The column label (``repr(float(lr))``,
#: ``str(int(b))``, ``repr(float(b))``) is hashed into the key, so a label
#: drift in the shared sweep would orphan every cached Table II-IV row.
PINNED_SWEEP_KEYS = [
    (table2_learning_rate, {"learning_rates": (0.1,)},
     "6d79ba5ec29cdb1ec84f2d18637c9d7b093cc3c47e781e0bfe89096ee4ae3bb0"),
    (table3_batch_size, {"batch_sizes": (16,)},
     "edaae33d79d1e71e134b0b810eec84390b0a461ef99e4a1ade1e75d521a47818"),
    (table4_bound_b, {"bounds": (120.0,)},
     "0e89be43639ece60433fd976a07f08e30181331167435290b2c24732ef350b51"),
]


class TestPinnedSweepKeys:
    """Literal keys of the Table II-IV sweep cells (see :class:`TestPinnedKeys`)."""

    @pytest.mark.parametrize("module,sweep,key", PINNED_SWEEP_KEYS,
                             ids=["table2", "table3", "table4"])
    def test_sweep_cell_key(self, module, sweep, key, tmp_path):
        store = ResultStore(tmp_path)
        module.run(ExperimentSettings.smoke(), datasets=("ppi",), cache=store, **sweep)
        assert [entry["key"] for entry in store.report()["entries"]] == [key]


class TestRoundTripDeterminism:
    def test_to_dict_sorted_and_plain(self):
        cell = tiny_cell(
            model=ModelSpec("deepwalk", overrides={"walk_length": np.int64(5), "num_walks": 1})
        )
        overrides = cell.to_dict()["model"]["overrides"]
        assert list(overrides) == sorted(overrides)
        assert all(type(v) in (int, float, bool, str, tuple) for v in overrides.values())

    def test_json_roundtrip_rehashes_identically(self):
        cell = tiny_cell(epsilon=6.0)
        bounced = ExperimentCell.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert bounced == cell
        assert cell_key(bounced) == cell_key(cell)

    def test_property_random_cells_rehash_after_roundtrip(self):
        """from_dict(to_dict(cell)) re-hashes identically, 100 random cells."""
        rng = random.Random(20250731)
        models = ("deepwalk", "advsgm", "sgm", "node2vec", "dpar")
        for _ in range(100):
            overrides = {}
            for field_name in rng.sample(
                ["embedding_dim", "num_epochs", "batch_size", "learning_rate",
                 "walk_length", "num_walks"],
                k=rng.randint(0, 4),
            ):
                overrides[field_name] = rng.choice(
                    [rng.randint(1, 512), rng.random(), np.int64(rng.randint(1, 64)),
                     np.float64(rng.random())]
                )
            name = rng.choice(models)
            cell = ExperimentCell(
                task=rng.choice(("link_prediction", "node_clustering", "none")),
                dataset=rng.choice(("ppi", "wiki", "blog")),
                model=ModelSpec(name, label=rng.choice([None, name.upper()]),
                                overrides=overrides),
                epsilon=rng.choice([None, rng.randint(1, 6), rng.random() * 6]),
                repeat=rng.randint(0, 5),
                seed=rng.randint(0, 2**31),
                dataset_scale=rng.choice([0.1, 0.5, 1.0]),
                dataset_seed=rng.choice([None, rng.randint(0, 1000)]),
                test_fraction=rng.uniform(0.05, 0.5),
            )
            bounced = ExperimentCell.from_dict(json.loads(json.dumps(cell.to_dict())))
            assert bounced == cell
            assert cell_key(bounced) == cell_key(cell)


# ---------------------------------------------------------------------------
# store behaviour
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_put_get_roundtrip_bit_for_bit(self, tmp_path):
        cell = tiny_cell()
        row, _, wall = compute_cell(cell)
        store = ResultStore(tmp_path)
        key = store.put(cell, row, wall_time=wall)
        loaded = store.get(cell)
        assert loaded == row
        assert loaded is not row  # a copy, not shared mutable state
        assert cell in store and len(store) == 1
        manifest = store.manifest(cell)
        assert manifest.key == key
        assert manifest.schema_version == CACHE_SCHEMA_VERSION
        assert manifest.cell == canonical_cell_dict(cell)
        assert manifest.wall_time_s == pytest.approx(wall)
        assert manifest.created_at  # ISO timestamp recorded

    def test_embeddings_roundtrip(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        row = run_cell(cell, cache=store, store_embeddings=True)
        cached_embeddings = store.load_embeddings(cell)
        recomputed_row, recomputed_embeddings, _ = compute_cell(
            cell, capture_embeddings=True
        )
        assert row == recomputed_row
        np.testing.assert_array_equal(cached_embeddings, recomputed_embeddings)
        assert store.manifest(cell).has_embeddings

    def test_store_embeddings_recomputes_embeddingless_hit(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        plain_row = run_cell(cell, cache=store)  # warm without embeddings
        assert store.load_embeddings(cell) is None
        row = run_cell(cell, cache=store, store_embeddings=True)
        assert row == plain_row  # recompute is bit-for-bit the same row
        assert store.load_embeddings(cell) is not None
        assert store.stats.writes == 2  # entry was recomputed + overwritten
        # And now it hits without recomputation.
        run_cell(cell, cache=store, store_embeddings=True)
        assert store.stats.writes == 2

    def test_overwrite_without_embeddings_removes_stale_npz(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        run_cell(cell, cache=store, store_embeddings=True)
        assert any((tmp_path / "entries").rglob("*.npz"))
        run_cell(cell, cache=store, force=True)  # overwrite, no embeddings
        assert not any((tmp_path / "entries").rglob("*.npz"))
        assert not store.manifest(cell).has_embeddings
        assert store.load_embeddings(cell) is None

    def test_clear_sweeps_orphaned_npz(self, tmp_path):
        store = ResultStore(tmp_path)
        run_cell(tiny_cell(), cache=store, store_embeddings=True)
        # Simulate a crash between the npz write and the entry write.
        orphan = tmp_path / "entries" / "00" / ("f" * 64 + ".npz")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"")
        assert store.clear() == 1
        assert not any((tmp_path / "entries").rglob("*.npz"))

    def test_no_embeddings_by_default(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        run_cell(cell, cache=store)
        assert store.load_embeddings(cell) is None
        assert not store.manifest(cell).has_embeddings

    def test_stale_schema_ignored_not_crash(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        store.put(cell, {"auc": 0.75})
        path = store._entry_path(store.key(cell))
        entry = json.loads(path.read_text())
        entry["manifest"]["schema_version"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        fresh = ResultStore(tmp_path)
        assert fresh.get(cell) is None
        assert fresh.stats.stale == 1
        assert fresh.stats.misses == 1
        # The report surface agrees with get(): stale entries are invisible,
        # so a listing never advertises work a sweep would recompute anyway.
        assert list(fresh.entries()) == []
        assert len(fresh) == 0

    def test_manifest_missing_fields_is_defensive(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        store.put(cell, {"auc": 0.5})
        path = store._entry_path(store.key(cell))
        entry = json.loads(path.read_text())
        entry["manifest"] = {"schema_version": CACHE_SCHEMA_VERSION}
        path.write_text(json.dumps(entry))
        fresh = ResultStore(tmp_path)
        assert fresh.get(cell) == {"auc": 0.5}  # the row itself is intact
        assert fresh.manifest(cell) is None  # no TypeError on missing fields

    def test_corrupt_entry_ignored_not_crash(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        store.put(cell, {"auc": 0.75})
        store._entry_path(store.key(cell)).write_text("{not json")
        fresh = ResultStore(tmp_path)
        assert fresh.get(cell) is None
        assert fresh.stats.stale == 1
        assert list(fresh.entries()) == []  # report iteration skips it too

    def test_clear_removes_entries_and_embeddings(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        run_cell(cell, cache=store, store_embeddings=True)
        assert store.clear() == 1
        assert len(store) == 0
        assert not any((tmp_path / "entries").rglob("*.npz"))

    def test_resolve_store(self, tmp_path, monkeypatch):
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        store = ResultStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(tmp_path).root == tmp_path
        assert resolve_store(str(tmp_path)).root == tmp_path
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_store(True).root == tmp_path / "env"
        assert default_cache_dir() == tmp_path / "env"


# ---------------------------------------------------------------------------
# run_cell / run_spec caching semantics
# ---------------------------------------------------------------------------
class TestRunWithCache:
    def test_cache_hit_equals_recompute(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        computed = run_cell(cell, cache=store)
        cached = run_cell(cell, cache=store)
        fresh = run_cell(cell)  # no cache at all
        assert computed == cached == fresh
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_force_recomputes_and_overwrites(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path)
        run_cell(cell, cache=store)
        forced = run_cell(cell, cache=store, force=True)
        assert store.stats.writes == 2
        assert forced == store.get(cell)

    def test_fully_cached_spec_computes_zero_cells(self, tmp_path):
        spec = tiny_spec(repeats=3)
        first = run_spec(spec, cache=ResultStore(tmp_path))
        rerun_store = ResultStore(tmp_path)
        second = run_spec(spec, cache=rerun_store)
        assert second == first
        assert rerun_store.stats.hits == 3
        assert rerun_store.stats.writes == 0  # zero cells computed

    def test_resume_false_recomputes_without_reading(self, tmp_path):
        spec = tiny_spec(repeats=2)
        run_spec(spec, cache=ResultStore(tmp_path))
        store = ResultStore(tmp_path)
        rows = run_spec(spec, cache=store, resume=False)
        assert store.stats.hits == 0 and store.stats.writes == 2
        assert rows == run_spec(spec)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_sweep_resumes_bit_for_bit(self, tmp_path, workers):
        """Kill after K cells, resume, compare to an uninterrupted serial run."""
        spec = tiny_spec(repeats=4)
        uninterrupted = run_spec(spec)  # serial, no cache: the reference

        exploding = ExplodingStore(tmp_path, fail_after=2)
        with pytest.raises(SentinelError):
            run_spec(spec, workers=workers, cache=exploding)
        assert len(ResultStore(tmp_path)) == 2  # exactly K cells survived

        resume_store = ResultStore(tmp_path)
        merged = run_spec(spec, workers=workers, cache=resume_store)
        assert merged == uninterrupted
        assert resume_store.stats.hits == 2
        assert resume_store.stats.writes == 2  # only the lost cells recomputed

        # And a third pass is fully cached, still bit-for-bit identical.
        final_store = ResultStore(tmp_path)
        assert run_spec(spec, workers=workers, cache=final_store) == uninterrupted
        assert final_store.stats.writes == 0

    def test_parallel_sibling_results_survive_one_failing_cell(self, tmp_path):
        """A failing cell must not discard its siblings' finished work."""
        good_model = ModelSpec("deepwalk", overrides=FAST_DEEPWALK)
        bad_model = ModelSpec(
            "deepwalk", label="bad",
            overrides={**FAST_DEEPWALK, "walk_length": -1},  # rejected by config
        )
        spec = ExperimentSpec(
            task="link_prediction", datasets=("ppi",),
            models=(good_model, bad_model), epsilons=(None,),
            repeats=2, base_seed=11, dataset_scale=0.1,
        )
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            run_spec(spec, workers=2, cache=store)
        assert store.stats.writes == 2  # both good cells persisted
        good_spec = spec.with_(models=(good_model,))
        resume_store = ResultStore(tmp_path)
        resumed = run_spec(good_spec, workers=2, cache=resume_store)
        assert resume_store.stats.hits == 2  # nothing good was recomputed
        assert resumed == run_spec(good_spec)

    def test_parallel_cached_equals_serial_cached(self, tmp_path):
        spec = tiny_spec(repeats=3)
        serial = run_spec(spec, cache=ResultStore(tmp_path / "serial"))
        parallel = run_spec(spec, workers=2, cache=ResultStore(tmp_path / "parallel"))
        assert serial == parallel

    def test_fig3_spec_fully_cached_on_second_run(self, tmp_path):
        """Acceptance: re-running a fully cached fig3 spec computes zero cells."""
        from repro.experiments import ExperimentSettings, fig3_link_prediction

        settings = ExperimentSettings.smoke()
        kwargs = dict(datasets=("ppi",), models=("AdvSGM",), epsilons=(1.0,))
        first = fig3_link_prediction.run(
            settings, cache=ResultStore(tmp_path), **kwargs
        )
        store = ResultStore(tmp_path)
        second = fig3_link_prediction.run(settings, cache=store, **kwargs)
        assert second == first
        assert store.stats.writes == 0  # zero cells computed
        assert store.stats.hits == 1
        uncached = fig3_link_prediction.run(settings, **kwargs)
        assert uncached == second  # hit == recompute, through the driver too


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCacheCli:
    def run_fig3(self, tmp_path, *extra):
        from repro.cli import main

        return main([
            "experiment", "fig3", "--preset", "smoke", "--dataset", "ppi",
            "--models", "AdvSGM", "--epsilons", "6",
            "--cache-dir", str(tmp_path), *extra,
        ])

    def test_experiment_cache_flags(self, tmp_path, capsys):
        assert self.run_fig3(tmp_path) == 0
        assert "0 loaded / 1 computed" in capsys.readouterr().out
        assert self.run_fig3(tmp_path) == 0
        assert "1 loaded / 0 computed" in capsys.readouterr().out
        assert self.run_fig3(tmp_path, "--force") == 0
        assert "0 loaded / 1 computed" in capsys.readouterr().out

    def test_force_without_cache_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["experiment", "fig3", "--preset", "smoke", "--dataset", "ppi",
                  "--models", "AdvSGM", "--epsilons", "6", "--force"])

    def test_fig2_rejects_cache_flags(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["experiment", "fig2", "--preset", "smoke",
                  "--cache-dir", str(tmp_path)])

    def test_cache_report_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path)
        run_cell(tiny_cell(), cache=store)
        report_json = tmp_path / "manifest.json"
        assert main(["cache", "report", "--cache-dir", str(tmp_path),
                     "--json", str(report_json)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "deepwalk" in out
        # The --json format is the store's report() dict: root, schema
        # version, count, entries, stats.
        report = json.loads(report_json.read_text())
        assert report == ResultStore(tmp_path).report()
        assert report["count"] == 1
        assert report["schema_version"] == CACHE_SCHEMA_VERSION
        assert len(report["entries"]) == 1
        assert report["entries"][0]["schema_version"] == CACHE_SCHEMA_VERSION
        assert set(report["stats"]) == {"hits", "misses", "writes", "stale"}
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert len(ResultStore(tmp_path)) == 0


# ---------------------------------------------------------------------------
# concurrent writers (two sweeps resuming from one store directory)
# ---------------------------------------------------------------------------
def _hammer_put(root, cell, barrier, rounds):
    """Child-process body: repeatedly put the same cell into a shared store."""
    store = ResultStore(root)
    embeddings = np.arange(12, dtype=np.float64).reshape(4, 3)
    barrier.wait(timeout=30)  # maximise write overlap between the writers
    for i in range(rounds):
        store.put(cell, {"auc": 0.5, "round": i}, embeddings=embeddings)


class TestConcurrentWriters:
    @pytest.mark.timeout(120)
    def test_two_processes_put_the_same_cell_concurrently(self, tmp_path):
        """Both writers land: the entry stays valid and readable throughout.

        The store's atomic temp-file + ``os.replace`` writes mean concurrent
        same-key puts can interleave in any order and the survivor is always
        one writer's complete, coherent entry (last write wins) — never a
        torn mix of both.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        ctx = multiprocessing.get_context("fork")
        cell = tiny_cell()
        rounds = 25
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=_hammer_put, args=(tmp_path, cell, barrier, rounds))
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)

        store = ResultStore(tmp_path)
        assert len(store) == 1  # one content-address, however many writers
        row = store.get(cell)
        assert row is not None
        assert row["auc"] == 0.5 and row["round"] == rounds - 1
        np.testing.assert_array_equal(
            store.load_embeddings(cell),
            np.arange(12, dtype=np.float64).reshape(4, 3),
        )
        manifests = list(store.entries())
        assert len(manifests) == 1
        assert manifests[0]["key"] == cell_key(cell)

    def test_cache_stats_counting_is_thread_safe(self, tmp_path):
        store = ResultStore(tmp_path)
        threads = [
            threading.Thread(
                target=lambda: [store.stats.count("hits") for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stats.hits == 8000
        assert store.stats.as_dict() == {
            "hits": 8000, "misses": 0, "writes": 0, "stale": 0
        }

    def test_cache_stats_rejects_unknown_counter(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).stats.count("nonsense")

    def test_cache_stats_pickles_without_its_lock(self, tmp_path):
        stats = ResultStore(tmp_path).stats
        stats.count("writes", 3)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.writes == 3
        clone.count("writes")  # the clone got a fresh, working lock
        assert clone.writes == 4
