"""The compute backend: how old placement fields resolve, ``NumpyBackend``'s
kernels and malloc pin, the kernels and the models' numpy helpers against
plain numpy, the backend's place in the experiment cache, and model plumbing.

numpy is the only compute backend.  ``import repro`` and full training never
touch torch, which the import-gate test below checks.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.api.spec import ExperimentCell, ExperimentSpec, ModelSpec
from repro.backend import numpy_backend
from repro.backend import NUMPY_BACKEND
from repro.cache import ResultStore, cell_key
from repro.golden import golden_graph
from repro.nn.functional import log_sigmoid, rowwise_dot, sigmoid, sigmoid_pair
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm


def _cell(**changes):
    base = dict(
        task="link_prediction",
        dataset="ppi",
        model=ModelSpec(name="sgm"),
        epsilon=None,
        repeat=0,
        seed=7,
    )
    base.update(changes)
    return ExperimentCell(**base)


# ---------------------------------------------------------------------------
# resolution: every way of naming a backend resolves to numpy or is refused
# ---------------------------------------------------------------------------
class TestResolution:
    def test_default_is_numpy(self):
        # Every model binds the one process-wide numpy backend (the
        # adversarial skip-gram through the AdvSGM it wraps).
        graph = golden_graph()
        for name in repro.list_models():
            model = repro.make_model(name, graph=graph)
            assert getattr(model, "_model", model).backend_ is NUMPY_BACKEND, name

    def test_unknown_backend_is_one_line_error(self):
        # A backend is no longer a config field or a make_model argument.
        for spec in ("torch", "numpy"):
            with pytest.raises(TypeError, match="only compute backend") as info:
                repro.make_model("sgm", backend=spec)
            assert "\n" not in str(info.value)

    def test_conflicting_devices_rejected(self):
        # Old spec JSON carries "device": null and still loads; a device
        # value is refused in one line.
        data = ExperimentSpec(task="none", datasets=("ppi",), models=("sgm",)).to_dict()
        with pytest.raises(ValueError, match="device='cuda': numpy on the CPU"):
            ExperimentSpec.from_dict({**data, "device": "cuda"})
        old = json.loads(json.dumps({**data, "device": None, "precision": None}))
        assert ExperimentSpec.from_dict(old) == ExperimentSpec.from_dict(data)
        # One cell's dict takes the same path: nulls load, values are refused.
        cell = _cell()
        assert ExperimentCell.from_dict({**cell.to_dict(), "device": None}) == cell
        with pytest.raises(ValueError, match="only compute backend"):
            ExperimentCell.from_dict({**cell.to_dict(), "device": "cuda"})

    def test_torch_unavailable_is_one_line_error(self):
        # Old spec and cell dicts load with "backend": "numpy" or null (see
        # tests/test_cache.py::TestPinnedKeys); naming any other backend is
        # refused in one line.
        cell = _cell().to_dict()
        with pytest.raises(ValueError) as info:
            ExperimentCell.from_dict({**cell, "backend": "torch:cpu"})
        assert "torch:cpu" in str(info.value) and "\n" not in str(info.value)
        spec = ExperimentSpec(task="none", datasets=("ppi",), models=("sgm",)).to_dict()
        with pytest.raises(ValueError, match="backend='torch': numpy on the CPU"):
            ExperimentSpec.from_dict({**spec, "backend": "torch"})
        # A raw cell mapping naming it is refused too, not keyed as numpy.
        with pytest.raises(ValueError, match="numpy is the only compute backend"):
            cell_key({**cell, "backend": "torch:cuda:fast"})

    def test_retired_walk_cache_accepts_only_off(self):
        # The walk-corpus cache is gone: "off" (None/False) is still accepted
        # and stored nowhere, anything else is refused in one line.
        base = dict(task="none", datasets=("ppi",), models=("sgm",))
        spec = ExperimentSpec(**base, walk_cache=False)
        assert spec == ExperimentSpec(**base)
        assert "walk_cache" not in spec.to_dict()
        with pytest.raises(ValueError, match="walk-corpus cache was deleted"):
            ExperimentSpec(**base, walk_cache=True)
        # Old spec and cell dicts carry it as null or false and still load.
        data = spec.to_dict()
        for off in (None, False):
            old = json.loads(json.dumps({**data, "walk_cache": off}))
            assert ExperimentSpec.from_dict(old) == spec
        with pytest.raises(ValueError, match="walk-corpus cache was deleted"):
            ExperimentSpec.from_dict({**data, "walk_cache": ".artifacts"})
        cell = _cell()
        for off in (None, False):
            assert ExperimentCell.from_dict({**cell.to_dict(), "walk_cache": off}) == cell
        with pytest.raises(ValueError, match="walk-corpus cache was deleted"):
            ExperimentCell.from_dict({**cell.to_dict(), "walk_cache": True})


class TestPrecisionResolution:
    def test_conflicting_precisions_rejected(self):
        # Old spec JSON carries "precision": null and still loads; a value
        # is refused in one line.
        data = ExperimentSpec(task="none", datasets=("ppi",), models=("sgm",)).to_dict()
        spec = ExperimentSpec.from_dict(data)
        assert ExperimentSpec.from_dict({**data, "precision": None}) == spec
        with pytest.raises(ValueError, match="precision='exact': numpy on the CPU"):
            ExperimentSpec.from_dict({**data, "precision": "exact"})
        cell = _cell()
        assert ExperimentCell.from_dict({**cell.to_dict(), "precision": None}) == cell
        with pytest.raises(ValueError, match="precision='fast'"):
            ExperimentCell.from_dict({**cell.to_dict(), "precision": "fast"})


# ---------------------------------------------------------------------------
# NumpyBackend's kernels
# ---------------------------------------------------------------------------
class TestNumpyBackendOps:
    def test_gather_and_index_add(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(10, 4))
        idx = np.array([3, 3, 7])
        assert np.array_equal(np.take(table, idx, axis=0), table[idx])
        target = np.zeros((10, 4))
        rows = rng.normal(size=(3, 4))
        expected = target.copy()
        np.add.at(expected, idx, rows)
        NUMPY_BACKEND.index_add_(target, idx, rows)
        assert np.array_equal(target, expected)
        unique_idx = np.array([7, 0, 3])
        np.add.at(expected, unique_idx, rows)
        NUMPY_BACKEND.index_add_(target, unique_idx, rows, unique=True)
        assert target.tobytes() == expected.tobytes()

    def test_dots_match_einsum(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        assert np.array_equal(rowwise_dot(a, b), np.einsum("ij,ij->i", a, b))

    def test_row_ops_match_privacy_clipping(self):
        # At floor 1.0 the unit-ball projection is DP's per-row clipping at
        # C = 1, up to the round-off of the two norm computations.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4))
        x[:3] *= 3.0
        clipped = clip_rows_by_l2_norm(x, 1.0)
        expected = x.copy()
        norms = np.linalg.norm(expected, axis=1, keepdims=True)
        np.divide(expected, np.maximum(norms, 1.0), out=expected)
        NUMPY_BACKEND.normalize_rows_(x, 1.0)
        assert np.array_equal(x, expected)
        assert np.allclose(x, clipped, rtol=1e-12, atol=1e-12)

    def test_segment_sum_is_add_at_into_zeros(self):
        rng = np.random.default_rng(4)
        # 12 slots x 16 contributions each, in shuffled order, some of them
        # -0.0 and some whole rows of -0.0.
        slots = rng.permutation(np.repeat(np.arange(12), 16))
        rows = rng.normal(scale=10.0, size=(slots.shape[0], 5))
        rows[rng.random(rows.shape) < 0.1] = -0.0
        rows[slots == 3] = -0.0
        expected = np.zeros((13, 5))
        np.add.at(expected, slots, rows)
        got = NUMPY_BACKEND.segment_sum(slots, rows, 13)
        assert got.tobytes() == expected.tobytes()
        # The data separates a sequential sum from numpy's pairwise one.
        order = np.argsort(slots, kind="stable")
        pairwise = np.add.reduceat(rows[order], np.arange(0, 192, 16))
        assert pairwise.tobytes() != expected[:12].tobytes()

    def test_touched_row_normalize_with_carry_is_the_full_pass(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-3.0, 3.0, size=(400, 128))
        ref = x.copy()
        NUMPY_BACKEND.normalize_rows_(ref, 1.0)
        carry = NUMPY_BACKEND.normalize_rows_(x, 1.0, (np.arange(400),))
        assert x.tobytes() == ref.tobytes()
        carried = len(carry)
        for _ in range(6):
            # Unsorted, with repeats: the kernel rescales the union.
            draws = rng.integers(0, 400, size=150)
            touched = np.unique(draws)
            step = rng.uniform(-3.0, 3.0, size=(touched.shape[0], 128))
            x[touched] += step
            ref[touched] += step
            NUMPY_BACKEND.normalize_rows_(ref, 1.0)
            carry = NUMPY_BACKEND.normalize_rows_(x, 1.0, (draws, carry))
            assert x.tobytes() == ref.tobytes()
            assert np.all(np.linalg.norm(np.delete(x, carry, axis=0), axis=1) <= 1.0)
            carried += len(carry)
        assert carried > 0

    def test_gaussian_is_the_raw_generator_stream(self):
        draws = NUMPY_BACKEND.gaussian(np.random.default_rng(42), 0.0, 2.0, (3, 2))
        assert np.array_equal(
            draws, np.random.default_rng(42).normal(0.0, 2.0, size=(3, 2))
        )


# ---------------------------------------------------------------------------
# glibc's malloc thresholds, pinned when the numpy backend is imported
# ---------------------------------------------------------------------------
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class _Mallopt:
    """Stands in for libc's ``mallopt``; records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture()
def mallopt(monkeypatch):
    """A fake glibc with an untuned environment; yields its ``mallopt``."""
    fake = _Mallopt()
    monkeypatch.setattr(numpy_backend.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=fake))
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    for var in MALLOC_ENV:
        monkeypatch.delenv(var, raising=False)
    return fake


#: Three ``sgm`` fits of 30 steps on a 50k-node, 250k-edge graph, dim 128,
#: in one interpreter; prints each fit's minor page faults per step.  The
#: multi-MB step temporaries fault the heap back in on every step when glibc
#: trims it (about 1,800 faults per step without the pin); a 20k-node graph
#: does not show it.
FAULT_PROBE = """
import resource
import numpy as np
import repro
from repro.api.registry import make_model
from repro.graph.graph import Graph
from repro.train import Callback

STEPS = 30

class Faults(Callback):
    def on_train_begin(self, loop):
        self.start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def on_train_end(self, result):
        self.per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self.start) / STEPS

pairs = np.random.default_rng(0).integers(0, 50_000, size=(250_000, 2))
graph = Graph(50_000, pairs[pairs[:, 0] != pairs[:, 1]])
for seed in range(3):
    faults = Faults()
    model = make_model("sgm", graph=graph, rng=seed, embedding_dim=128, num_epochs=1,
                       batches_per_epoch=STEPS, batch_size=1024, num_negatives=5)
    model.fit(callbacks=[faults])
    print(faults.per_step)
"""


class TestMallocPin:
    def test_sets_both_thresholds(self, mallopt):
        numpy_backend._pin_malloc_thresholds()
        assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_other_tunables_do_not_count(self, mallopt, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=2048")
        numpy_backend._pin_malloc_thresholds()
        assert len(mallopt.calls) == 2

    @pytest.mark.parametrize("var,value", [
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.arena_max=1"),
    ])
    def test_environment_tuning_wins(self, mallopt, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        numpy_backend._pin_malloc_thresholds()
        assert mallopt.calls == []

    def test_only_on_glibc(self, mallopt, monkeypatch):
        def unknown_name(name):
            raise ValueError("unrecognized configuration name")

        monkeypatch.setattr(os, "confstr", lambda name: None)
        numpy_backend._pin_malloc_thresholds()
        monkeypatch.setattr(os, "confstr", unknown_name)
        numpy_backend._pin_malloc_thresholds()
        assert mallopt.calls == []

    def test_never_raises(self, mallopt, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(numpy_backend.ctypes, "CDLL", no_libc)
        numpy_backend._pin_malloc_thresholds()
        monkeypatch.setattr(numpy_backend.ctypes, "CDLL", lambda name: SimpleNamespace())
        numpy_backend._pin_malloc_thresholds()

    @pytest.mark.skipif(not _on_glibc(), reason="pins glibc's malloc only")
    def test_sgm_steps_do_not_refault_the_heap(self):
        env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        per_step = [float(line) for line in proc.stdout.split()]
        # The first fit also pays for first touches and the scipy.sparse import.
        assert len(per_step) == 3 and sum(per_step[1:]) / 2 < 100, per_step


# ---------------------------------------------------------------------------
# the kernels and the models' numpy helpers against textbook numpy
# ---------------------------------------------------------------------------
class TestBackendProtocolConformance:
    """The kernels and the activations, dot product and clipping the models
    call agree with textbook numpy at float64 round-off."""

    def test_core_ops_match_reference(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        bundle = rng.normal(size=(6, 5, 4))
        slots = np.array([2, 0, 2, 2, 0, 1])
        sig = 1.0 / (1.0 + np.exp(-a))
        big = a * 3
        checks = [
            (rowwise_dot(a, b), (a * b).sum(axis=1)),
            (sigmoid(a), sig),
            (sigmoid_pair(a)[0], sig),
            (sigmoid_pair(a)[1], 1.0 - sig),
            (log_sigmoid(a), np.log(sig)),
            (clip_rows_by_l2_norm(big, 1.0),
             big / np.maximum(1.0, np.linalg.norm(big, axis=1, keepdims=True))),
            (clip_by_l2_norm(big, 1.0), big / max(1.0, np.linalg.norm(big))),
            (NUMPY_BACKEND.segment_sum(slots, bundle[:, 0], 3),
             np.stack([bundle[slots == s, 0].sum(axis=0) for s in range(3)])),
        ]
        for got, want in checks:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_touched_row_kernels_match_reference(self):
        be = NUMPY_BACKEND
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-3.0, 3.0, size=(8, 4))
        rows = np.array([1, 4, 5])
        # Index arrays in any order, with repeats, name their union.
        parts = (np.array([5, 1]), np.array([[4, 1]]))
        want = x0.copy()
        want[rows] /= np.maximum(np.linalg.norm(want[rows], axis=1, keepdims=True), 1.0)
        got = x0.copy()
        carry = be.normalize_rows_(got, 1.0, parts)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        untouched = [0, 2, 3, 6, 7]
        assert np.array_equal(got[untouched], x0[untouched])
        assert set(carry.tolist()) <= set(rows.tolist())
        # The fused add-and-project equals its reference, the add followed
        # by the touched-row pass, with the carry overlapping the added rows,
        # disjoint from them, and empty.
        want = got.copy()
        for carry in (np.array([4, 6]), np.array([0, 7]), np.zeros(0, dtype=np.int64)):
            update = rng.normal(size=(3, 4))
            before = got.copy()
            be.index_add_(want, rows, update, unique=True)
            want_carry = be.normalize_rows_(want, 1.0, (rows, carry))
            got_carry = be.add_rows_project_(got, rows, update, carry)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            moved = sorted(set(rows.tolist()) | set(carry.tolist()))
            untouched = [i for i in range(8) if i not in moved]
            assert np.array_equal(got[untouched], before[untouched])
            for returned in (got_carry, want_carry):
                assert set(returned.tolist()) <= set(moved)


# ---------------------------------------------------------------------------
# the backend in the experiment cache
# ---------------------------------------------------------------------------
class TestCacheBackendIdentity:
    def test_manifest_records_backend(self, tmp_path):
        # The manifest and the hashed cell keep recording the one backend.
        store = ResultStore(tmp_path)
        cell = _cell()
        store.put(cell, {"auc": 0.5})
        manifest = store.manifest(cell)
        assert manifest.backend == "numpy"
        assert manifest.cell["backend"] == "numpy"

    def test_stale_schema_entry_is_a_tolerated_miss(self, tmp_path):
        """A v1 (pre-backend) entry under the current key is ignored, never an error."""
        store = ResultStore(tmp_path)
        cell = _cell()
        key = store.key(cell)
        path = store._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stale = {
            "manifest": {"key": key, "schema_version": 1, "cell": {}},
            "row": {"auc": 0.9},
        }
        path.write_text(json.dumps(stale))
        assert store.get(cell) is None
        assert store.stats.stale == 1


# ---------------------------------------------------------------------------
# model plumbing: configs, make_model, the import gate
# ---------------------------------------------------------------------------
class TestModelPlumbing:
    @pytest.mark.parametrize("name", repro.list_models())
    def test_no_config_carries_placement_fields(self, name):
        # numpy on the CPU is the only backend: no model config names a
        # backend, a device or a precision.
        fields = {f.name for f in dataclasses.fields(repro.get_entry(name).config_cls)}
        assert not {"backend", "device", "precision"} & fields

    def test_make_model_refuses_device_and_precision(self):
        for field in ("device", "precision"):
            with pytest.raises(TypeError, match="only compute backend"):
                repro.make_model("sgm", **{field: "fast"})

    def test_import_repro_does_not_import_torch(self):
        code = (
            "import sys; import repro; "
            "assert 'torch' not in sys.modules, 'torch was imported eagerly'; "
            "print('gate-ok')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={"PYTHONPATH": "src"},
        )
        assert out.returncode == 0, out.stderr
        assert "gate-ok" in out.stdout
