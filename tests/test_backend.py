"""The compute-backend seam: resolution, numpy reference ops, cache identity,
and (when torch is installed) numpy-vs-torch parity across the models.

Torch is intentionally optional: on a torch-less machine every test in the
``TestTorch*`` classes skips, and the rest of this module doubles as the
proof of the import gate — ``import repro`` and full numpy training never
touch torch.
"""

import json
import time

import numpy as np
import pytest

import repro
from repro.api.spec import ExperimentCell, ExperimentSpec, ModelSpec
from repro.backend import (
    BACKEND_ENV_VAR,
    NUMPY_BACKEND,
    Backend,
    BackendError,
    backend_available,
    canonical_backend_spec,
    get_backend,
    list_backends,
)
from repro.cache import ResultStore, cell_backend_spec, cell_key
from repro.golden import GOLDEN_CASES, golden_graph
from repro.graph.graph import Graph

TORCH_AVAILABLE = backend_available("torch")


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
# resolution and availability
# ---------------------------------------------------------------------------
class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        be = get_backend()
        assert be.name == "numpy"
        assert be.spec == "numpy"
        assert be is NUMPY_BACKEND

    def test_registered_backends(self):
        assert "numpy" in list_backends()
        assert "torch" in list_backends()

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "definitely-not-a-backend")
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend()

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "definitely-not-a-backend")
        assert get_backend("numpy").name == "numpy"

    def test_unknown_backend_is_one_line_error(self):
        with pytest.raises(BackendError, match="unknown backend 'tensorflow'"):
            get_backend("tensorflow")

    def test_numpy_rejects_non_cpu_device(self):
        with pytest.raises(BackendError, match="does not support device"):
            get_backend("numpy:cuda")

    def test_conflicting_devices_rejected(self):
        # The spec string is the only spelling of a device: a spec dict
        # that names a second one beside it is refused, pointing at the
        # spec-string form, instead of being reconciled.
        data = ExperimentSpec(
            task="none", datasets=("ppi",), models=("sgm",), backend="torch:cpu"
        ).to_dict()
        with pytest.raises(ValueError, match=r"backend spec string.*torch:cuda:fast"):
            ExperimentSpec.from_dict({**data, "device": "cuda"})
        # Old spec JSON carries "device": null and still loads.
        old = json.loads(json.dumps({**data, "device": None, "precision": None}))
        assert ExperimentSpec.from_dict(old).backend == "torch:cpu"
        # One cell's dict takes the same path: nulls load, values are refused.
        cell = _cell(backend="torch:cpu")
        assert ExperimentCell.from_dict({**cell.to_dict(), "device": None}) == cell
        with pytest.raises(ValueError, match=r"backend spec string.*torch:cuda:fast"):
            ExperimentCell.from_dict({**cell.to_dict(), "device": "cuda"})

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

    def test_instance_passthrough(self):
        assert get_backend(NUMPY_BACKEND) is NUMPY_BACKEND

    @pytest.mark.skipif(TORCH_AVAILABLE, reason="torch installed here")
    def test_torch_unavailable_is_one_line_error(self):
        with pytest.raises(BackendError, match="torch is not installed"):
            get_backend("torch")

    def test_canonical_spec_is_total_without_torch(self, monkeypatch):
        # Pure string work: resolves specs for backends that may not be
        # importable in this process (cache keys must never raise).
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert canonical_backend_spec() == "numpy"
        assert canonical_backend_spec("numpy") == "numpy"
        assert canonical_backend_spec("torch") == "torch:cpu"
        assert canonical_backend_spec("torch:cuda") == "torch:cuda"
        assert canonical_backend_spec("torch:cuda:1") == "torch:cuda:1"
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch")
        assert canonical_backend_spec() == "torch:cpu"


# ---------------------------------------------------------------------------
# precision modes: spec grammar, resolution, canonicalisation (torch-free)
# ---------------------------------------------------------------------------
class TestPrecisionResolution:
    def test_precision_token_parses_off_the_spec_end(self, monkeypatch):
        # Devices may contain colons ("cuda:0"), so the precision token is
        # peeled off the END of the spec, never the middle.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert canonical_backend_spec("torch:fast") == "torch:cpu:fast"
        assert canonical_backend_spec("torch:cuda:fast") == "torch:cuda:fast"
        assert canonical_backend_spec("torch:cuda:0:fast") == "torch:cuda:0:fast"

    def test_exact_is_canonicalised_away(self, monkeypatch):
        # Pre-precision cache keys must survive: an explicit "exact" resolves
        # to the very same canonical strings the seam produced before.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert canonical_backend_spec("numpy:exact") == "numpy"
        assert canonical_backend_spec("torch:cpu:exact") == "torch:cpu"
        assert canonical_backend_spec("torch:exact") == "torch:cpu"
        assert canonical_backend_spec("torch:cuda:1:exact") == "torch:cuda:1"

    def test_env_var_can_name_a_fast_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch:cuda:fast")
        assert canonical_backend_spec() == "torch:cuda:fast"

    def test_conflicting_precisions_rejected(self):
        # Old spec JSON carries "precision": null and still loads; a real
        # value beside the spec string is refused, never reconciled.
        data = ExperimentSpec(
            task="none", datasets=("ppi",), models=("sgm",), backend="torch:cpu:fast"
        ).to_dict()
        assert ExperimentSpec.from_dict({**data, "precision": None}).backend == (
            "torch:cpu:fast"
        )
        with pytest.raises(ValueError, match="'precision' is no longer"):
            ExperimentSpec.from_dict({**data, "precision": "exact"})
        cell = _cell(backend="torch:cpu:fast")
        assert ExperimentCell.from_dict({**cell.to_dict(), "precision": None}) == cell
        with pytest.raises(ValueError, match="'precision' is no longer"):
            ExperimentCell.from_dict({**cell.to_dict(), "precision": "exact"})

    def test_agreeing_precisions_accepted(self, monkeypatch):
        # The short and the full spelling of one precision resolve to one
        # canonical spec and one backend instance.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert canonical_backend_spec("torch:fast") == "torch:cpu:fast"
        assert canonical_backend_spec("torch:cpu:fast") == "torch:cpu:fast"
        assert get_backend("numpy:exact") is get_backend("numpy")

    def test_unknown_precision_rejected(self):
        # Only exact/fast peel off as a precision token; anything else is
        # read as (part of) the device and refused there.
        with pytest.raises(BackendError, match="does not support device 'double'"):
            get_backend("numpy:double")

    def test_numpy_rejects_fast(self):
        # numpy IS the exact reference; it has no float32 mode to offer.
        with pytest.raises(BackendError, match="does not support precision"):
            get_backend("numpy:fast")

    def test_numpy_exact_is_the_shared_instance(self):
        assert get_backend("numpy:exact") is NUMPY_BACKEND
        assert NUMPY_BACKEND.precision == "exact"
        assert NUMPY_BACKEND.spec == "numpy"


# ---------------------------------------------------------------------------
# the numpy backend is the reference implementation
# ---------------------------------------------------------------------------
class TestNumpyBackendOps:
    def test_asarray_is_identity_for_float64(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert NUMPY_BACKEND.asarray(x) is x
        assert NUMPY_BACKEND.to_numpy(x) is x

    def test_gather_and_index_add(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(10, 4))
        idx = np.array([3, 3, 7])
        assert np.array_equal(NUMPY_BACKEND.gather(table, idx), table[idx])
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
        bundle = rng.normal(size=(5, 4, 3))
        coeff = rng.normal(size=(5, 4))
        assert np.array_equal(
            NUMPY_BACKEND.rowwise_dot(a, b), np.einsum("ij,ij->i", a, b)
        )
        assert np.array_equal(
            NUMPY_BACKEND.batched_rowwise_dot(a, bundle),
            np.einsum("ij,ikj->ik", a, bundle),
        )
        assert np.array_equal(
            NUMPY_BACKEND.weighted_rows_sum(coeff, bundle),
            np.einsum("ik,ikj->ij", coeff, bundle),
        )

    def test_activations_match_functional(self):
        from repro.nn import functional as F

        x = np.linspace(-600, 600, 41)
        assert np.array_equal(NUMPY_BACKEND.sigmoid(x), F.sigmoid(x))
        assert np.array_equal(NUMPY_BACKEND.log_sigmoid(x), F.log_sigmoid(x))
        assert np.array_equal(NUMPY_BACKEND.relu(x), F.relu(x))
        assert np.array_equal(NUMPY_BACKEND.tanh(x), F.tanh(x))
        m = x.reshape(-1, 1) + np.arange(3)
        assert np.array_equal(NUMPY_BACKEND.softmax(m, axis=1), F.softmax(m, axis=1))

    def test_row_ops_match_privacy_clipping(self):
        from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm

        rng = np.random.default_rng(2)
        g = rng.normal(scale=3.0, size=(6, 4))
        assert np.array_equal(NUMPY_BACKEND.clip_rows(g, 1.0), clip_rows_by_l2_norm(g, 1.0))
        assert np.array_equal(NUMPY_BACKEND.clip_global(g, 1.0), clip_by_l2_norm(g, 1.0))
        x = rng.normal(size=(6, 4))
        expected = x.copy()
        norms = np.linalg.norm(expected, axis=1, keepdims=True)
        np.divide(expected, np.maximum(norms, 1.0), out=expected)
        NUMPY_BACKEND.normalize_rows_(x, 1.0)
        assert np.array_equal(x, expected)

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
# protocol conformance: every (backend, precision) vs the numpy reference
# ---------------------------------------------------------------------------
def _precisioned_backends():
    """Every (family, precision) combination available in this process."""
    combos = [("numpy", "exact")]
    if TORCH_AVAILABLE:
        combos += [("torch", "exact"), ("torch", "fast")]
    return combos


#: Agreement tolerance with the float64 numpy reference, per precision mode.
CONFORMANCE_RTOL = {"exact": 1e-12, "fast": 3e-5}
CONFORMANCE_ATOL = {"exact": 1e-12, "fast": 1e-5}


@pytest.mark.parametrize("family,precision", _precisioned_backends())
class TestBackendProtocolConformance:
    """The full array-ops protocol agrees with the numpy reference.

    ``exact`` backends must match at float64 round-off; ``fast`` backends
    (float32 device arithmetic) within single-precision tolerance.  The
    sweep runs for whatever is installed — numpy-only machines still pin the
    reference against itself, and the CI torch job covers all three combos.
    """

    def _backend(self, family, precision):
        return get_backend("numpy" if family == "numpy" else f"torch:cpu:{precision}")

    def test_core_ops_match_reference(self, family, precision):
        be = self._backend(family, precision)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        bundle = rng.normal(size=(6, 5, 4))
        coeff = rng.normal(size=(6, 5))
        slots = np.array([2, 0, 2, 2, 0, 1])
        checks = [
            (be.rowwise_dot(be.asarray(a), be.asarray(b)),
             NUMPY_BACKEND.rowwise_dot(a, b)),
            (be.batched_rowwise_dot(be.asarray(a), be.asarray(bundle)),
             NUMPY_BACKEND.batched_rowwise_dot(a, bundle)),
            (be.weighted_rows_sum(be.asarray(coeff), be.asarray(bundle)),
             NUMPY_BACKEND.weighted_rows_sum(coeff, bundle)),
            (be.sigmoid(be.asarray(a)), NUMPY_BACKEND.sigmoid(a)),
            (be.log_sigmoid(be.asarray(a)), NUMPY_BACKEND.log_sigmoid(a)),
            (be.softmax(be.asarray(a), axis=1), NUMPY_BACKEND.softmax(a, axis=1)),
            (be.clip(be.asarray(a), -0.5, 0.5), NUMPY_BACKEND.clip(a, -0.5, 0.5)),
            (be.clip_rows(be.asarray(a * 3), 1.0), NUMPY_BACKEND.clip_rows(a * 3, 1.0)),
            (be.clip_global(be.asarray(a * 3), 1.0),
             NUMPY_BACKEND.clip_global(a * 3, 1.0)),
            (be.sum(be.asarray(a), axis=0), NUMPY_BACKEND.sum(a, axis=0)),
            (be.mean(be.asarray(a)), NUMPY_BACKEND.mean(a)),
            (be.segment_sum(slots, be.asarray(bundle[:, 0]), 3),
             NUMPY_BACKEND.segment_sum(slots, bundle[:, 0], 3)),
        ]
        rtol = CONFORMANCE_RTOL[precision]
        atol = CONFORMANCE_ATOL[precision]
        for got, want in checks:
            assert np.allclose(
                be.to_numpy(got), np.asarray(want), rtol=rtol, atol=atol
            )

    def test_clip_without_bounds_is_a_no_op(self, family, precision):
        # clip(x, None, None) must not call into the element-wise kernel
        # (np.clip raises on two None bounds); the template method returns
        # the values unchanged.
        be = self._backend(family, precision)
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = be.clip(be.asarray(x), None, None)
        assert np.allclose(
            be.to_numpy(out), x,
            rtol=CONFORMANCE_RTOL[precision], atol=CONFORMANCE_ATOL[precision],
        )

    def test_scalar_returns_a_python_float(self, family, precision):
        be = self._backend(family, precision)
        total = be.scalar(be.sum(be.asarray(np.full((3, 3), 0.5))))
        assert isinstance(total, float)
        assert total == pytest.approx(4.5, rel=CONFORMANCE_RTOL[precision])

    def test_sample_negatives_deterministic_and_in_range(self, family, precision):
        be = self._backend(family, precision)
        first = be.to_numpy(be.sample_negatives(np.random.default_rng(5), (7, 3), 20))
        second = be.to_numpy(be.sample_negatives(np.random.default_rng(5), (7, 3), 20))
        assert np.array_equal(first, second)  # seeded => reproducible
        assert first.shape == (7, 3)
        assert first.min() >= 0 and first.max() < 20
        if precision == "exact":
            # Exact backends consume the raw numpy stream verbatim.
            assert np.array_equal(
                first, np.random.default_rng(5).integers(0, 20, size=(7, 3))
            )

    def test_touched_row_kernels_match_reference(self, family, precision):
        be = self._backend(family, precision)
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-3.0, 3.0, size=(8, 4))
        rows = np.array([1, 4, 5])
        # Index arrays in any order, with repeats, name their union.
        parts = (np.array([5, 1]), np.array([[4, 1]]))
        want = x0.copy()
        want_carry = NUMPY_BACKEND.normalize_rows_(want, 1.0, parts)
        got = be.parameter(x0)
        before = be.to_numpy(got).copy()
        got_carry = be.normalize_rows_(got, 1.0, parts)
        rtol = CONFORMANCE_RTOL[precision]
        atol = CONFORMANCE_ATOL[precision]
        assert np.allclose(be.to_numpy(got), want, rtol=rtol, atol=atol)
        untouched = [0, 2, 3, 6, 7]
        assert np.array_equal(be.to_numpy(got)[untouched], before[untouched])
        for carry in (be.to_numpy(got_carry), want_carry):
            assert set(carry.tolist()) <= set(rows.tolist())
        update = rng.normal(size=(3, 4))
        NUMPY_BACKEND.index_add_(want, rows, update, unique=True)
        be.index_add_(got, rows, be.asarray(update), unique=True)
        assert np.allclose(be.to_numpy(got), want, rtol=rtol, atol=atol)
        # The fused add-and-project (inherited by torch, overridden by
        # numpy) equals the add followed by the touched-row pass, with the
        # carry overlapping the added rows, disjoint from them, and empty.
        for carry in (np.array([4, 6]), np.array([0, 7]), np.zeros(0, dtype=np.int64)):
            update = rng.normal(size=(3, 4))
            before = be.to_numpy(got).copy()
            want_carry = Backend.add_rows_project_(NUMPY_BACKEND, want, rows, update, carry)
            got_carry = be.add_rows_project_(got, rows, be.asarray(update), carry)
            assert np.allclose(be.to_numpy(got), want, rtol=rtol, atol=atol)
            moved = sorted(set(rows.tolist()) | set(carry.tolist()))
            untouched = [i for i in range(8) if i not in moved]
            assert np.array_equal(be.to_numpy(got)[untouched], before[untouched])
            # Which rows land a last-bit above norm 1 may differ by backend.
            for returned in (be.to_numpy(got_carry), want_carry):
                assert set(returned.tolist()) <= set(moved)

    def test_skipgram_step_matches_reference(self, family, precision):
        """The fused op equals reference loss + weight updates per precision."""
        be = self._backend(family, precision)
        rng = np.random.default_rng(17)
        w_in0 = rng.normal(scale=0.3, size=(30, 8))
        w_out0 = rng.normal(scale=0.3, size=(30, 8))
        positive = rng.integers(0, 30, size=(12, 2))
        negatives = rng.integers(0, 30, size=(12, 4))
        lr = 0.05
        ref_in, ref_out = w_in0.copy(), w_out0.copy()
        ref_loss = NUMPY_BACKEND.skipgram_step(ref_in, ref_out, positive, negatives, lr)
        w_in = be.parameter(w_in0)
        w_out = be.parameter(w_out0)
        loss = be.skipgram_step(w_in, w_out, positive, negatives, lr)
        rtol = CONFORMANCE_RTOL[precision]
        atol = CONFORMANCE_ATOL[precision]
        assert be.scalar(loss) == pytest.approx(NUMPY_BACKEND.scalar(ref_loss), rel=max(rtol, 1e-12))
        assert np.allclose(be.to_numpy(w_in), ref_in, rtol=rtol, atol=atol)
        assert np.allclose(be.to_numpy(w_out), ref_out, rtol=rtol, atol=atol)

    def test_skipgram_step_on_numpy_matches_unfused_model_math(self, family, precision):
        """One reference step == one unfused loss+gradient+update sequence."""
        if family != "numpy":
            pytest.skip("pins the numpy reference only")
        from repro.graph.sampling import SampleBatch

        rng = np.random.default_rng(23)
        w_in0 = rng.normal(scale=0.3, size=(20, 6))
        w_out0 = rng.normal(scale=0.3, size=(20, 6))
        positive = rng.integers(0, 20, size=(9, 2))
        negatives = rng.integers(0, 20, size=(9, 3))
        lr = 0.1
        fused_in, fused_out = w_in0.copy(), w_out0.copy()
        fused_loss = NUMPY_BACKEND.skipgram_step(
            fused_in, fused_out, positive, negatives, lr
        )
        # The unfused path as the SkipGramModel runs it (sans normalisation).
        model = repro.make_model("sgm", embedding_dim=6, normalize_embeddings=False)
        model.graph = None
        model.backend_ = NUMPY_BACKEND
        model.w_in, model.w_out = w_in0.copy(), w_out0.copy()
        model.config.learning_rate = lr
        sources = np.repeat(positive[:, 0], negatives.shape[1])
        batch = SampleBatch(
            positive_edges=positive,
            negative_pairs=np.stack([sources, negatives.reshape(-1)], axis=1),
        )
        loss, grad_in, touched_in, grad_out, touched_out = model._loss_and_gradients(batch)
        NUMPY_BACKEND.index_add_(model.w_in, touched_in, lr * grad_in)
        NUMPY_BACKEND.index_add_(model.w_out, touched_out, lr * grad_out)
        assert float(fused_loss) == pytest.approx(float(loss), rel=1e-12)
        assert np.allclose(fused_in, model.w_in, rtol=1e-12, atol=1e-12)
        assert np.allclose(fused_out, model.w_out, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# backend identity in the experiment cache
# ---------------------------------------------------------------------------
class TestCacheBackendIdentity:
    def test_cell_backend_spec_precedence(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert cell_backend_spec(_cell()) == "numpy"
        assert cell_backend_spec(_cell(backend="torch")) == "torch:cpu"
        assert cell_backend_spec(_cell(backend="torch:cuda")) == "torch:cuda"
        # A model-level override counts when the cell is silent...
        via_model = _cell(model=ModelSpec(name="sgm", overrides={"backend": "torch"}))
        assert cell_backend_spec(via_model) == "torch:cpu"
        # ...but the cell-level field wins (mirrors compute_cell).
        both = _cell(
            model=ModelSpec(name="sgm", overrides={"backend": "torch"}),
            backend="numpy",
        )
        assert cell_backend_spec(both) == "numpy"

    def test_numpy_and_torch_cells_never_share_a_key(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        keys = {
            cell_key(_cell()),
            cell_key(_cell(backend="numpy")),  # same work: unset == numpy
            cell_key(_cell(backend="torch")),
            cell_key(_cell(backend="torch:cuda")),
        }
        assert cell_key(_cell()) == cell_key(_cell(backend="numpy"))
        assert len(keys) == 3
        # Naming the backend through the model overrides is the same work
        # unit as naming it on the cell — one key for both spellings.
        via_model = _cell(model=ModelSpec(name="sgm", overrides={"backend": "torch"}))
        assert cell_key(via_model) == cell_key(_cell(backend="torch"))

    def test_env_backend_changes_the_key(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        ambient = cell_key(_cell())
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch")
        assert cell_key(_cell()) != ambient
        # ...and matches an explicit torch request: same computation.
        assert cell_key(_cell()) == cell_key(_cell(backend="torch:cpu"))

    def test_manifest_records_backend(self, tmp_path, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        store = ResultStore(tmp_path)
        cell = _cell(backend="torch")
        store.put(cell, {"auc": 0.5})
        manifest = store.manifest(cell)
        assert manifest.backend == "torch:cpu"
        assert manifest.cell["backend"] == "torch:cpu"

    def test_stale_schema_entry_is_a_tolerated_miss(self, tmp_path, monkeypatch):
        """A v1 (pre-backend) entry under the current key is ignored, never an error."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
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
# precision identity in the experiment cache (torch-free: pure string work)
# ---------------------------------------------------------------------------
class TestCachePrecisionIdentity:
    def test_exact_cells_keep_their_pre_precision_keys(self, monkeypatch):
        """An explicit "exact" is the same work unit as no precision at all.

        This is what guarantees the precision seam never invalidated any
        pre-existing cache entry: the canonical form of an exact cell is
        byte-identical to what it was before precision existed.
        """
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert cell_key(_cell()) == cell_key(_cell(backend="numpy:exact"))
        assert cell_key(_cell(backend="torch")) == cell_key(
            _cell(backend="torch:exact")
        )
        assert cell_key(_cell(backend="torch")) == cell_key(
            _cell(backend="torch:cpu:exact")
        )

    def test_fast_and_exact_cells_never_share_a_key(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        exact = cell_key(_cell(backend="torch"))
        fast = cell_key(_cell(backend="torch:fast"))
        assert exact != fast
        assert cell_backend_spec(_cell(backend="torch:fast")) == "torch:cpu:fast"

    def test_fast_spellings_are_one_work_unit(self, monkeypatch):
        """Short and full spec strings, on the cell or as a model override,
        all hash identically."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        fast = cell_key(_cell(backend="torch:fast"))
        assert fast == cell_key(_cell(backend="torch:cpu:fast"))
        via_model = _cell(model=ModelSpec(name="sgm", overrides={"backend": "torch:fast"}))
        assert fast == cell_key(via_model)


# ---------------------------------------------------------------------------
# model plumbing: configs, make_model, explicit-numpy parity
# ---------------------------------------------------------------------------
class TestModelPlumbing:
    @pytest.mark.parametrize(
        "name",
        ["sgm", "advsgm", "advsgm-nodp", "deepwalk", "node2vec",
         "dpsgm", "dpasgm", "dpggan", "dpgvae", "gap", "dpar"],
    )
    def test_every_config_carries_backend_fields(self, name):
        from repro.api.registry import config_field_names

        fields = config_field_names(name)
        # The spec string is the one placement knob: device and precision
        # ride inside it and have no fields of their own.
        assert "backend" in fields
        assert "device" not in fields and "precision" not in fields

    def test_make_model_backend_kwarg_sets_config(self):
        model = repro.make_model("sgm", backend="torch:cuda:fast")
        assert model.config.backend == "torch:cuda:fast"

    def test_make_model_refuses_device_and_precision(self):
        for field in ("device", "precision"):
            with pytest.raises(TypeError, match="backend spec string"):
                repro.make_model("sgm", **{field: "fast"})

    def test_numpy_fast_fails_at_bind_time(self):
        model = repro.make_model("sgm", backend="numpy:fast")
        with pytest.raises(BackendError, match="does not support precision"):
            model.fit(golden_graph())

    def test_unknown_backend_fails_at_bind_time(self):
        model = repro.make_model("sgm", backend="not-a-backend")
        with pytest.raises(BackendError, match="unknown backend"):
            model.fit(golden_graph())

    def test_explicit_numpy_is_bit_for_bit_the_default(self):
        graph = golden_graph()
        overrides = dict(GOLDEN_CASES["sgm"]["overrides"])
        default = repro.make_model("sgm", graph=graph, rng=11, **overrides).fit()
        explicit = repro.make_model(
            "sgm", graph=graph, rng=11, backend="numpy", **overrides
        ).fit()
        assert np.array_equal(default.embeddings_, explicit.embeddings_)

    def test_import_repro_does_not_import_torch(self):
        import subprocess
        import sys

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


# ---------------------------------------------------------------------------
# torch parity (skips without torch; exercised by the CI torch job)
# ---------------------------------------------------------------------------
torch = pytest.importorskip("torch") if TORCH_AVAILABLE else None

#: Small-but-complete schedules for the numpy-vs-torch model parity sweep:
#: the four golden cases plus the remaining private trainers.
PARITY_CASES = dict(GOLDEN_CASES)
PARITY_CASES.update({
    "advsgm-nodp": {
        "model": "advsgm-nodp", "epsilon": None,
        "overrides": {"embedding_dim": 16, "num_epochs": 2,
                      "discriminator_steps": 2, "generator_steps": 1,
                      "batch_size": 8},
    },
    "dpsgm": {
        "model": "dpsgm", "epsilon": 6.0,
        "overrides": {"embedding_dim": 16, "num_epochs": 2,
                      "batches_per_epoch": 3, "batch_size": 8},
    },
    "dpasgm": {
        "model": "dpasgm", "epsilon": 6.0,
        "overrides": {"embedding_dim": 16, "num_epochs": 2,
                      "batches_per_epoch": 3, "batch_size": 8,
                      "generator_steps": 1},
    },
    "dpggan": {
        "model": "dpggan", "epsilon": 6.0,
        "overrides": {"embedding_dim": 16, "num_epochs": 2,
                      "batches_per_epoch": 3, "batch_size": 8},
    },
    "dpgvae": {
        "model": "dpgvae", "epsilon": 6.0,
        "overrides": {"feature_dim": 12, "embedding_dim": 16, "num_epochs": 2,
                      "batches_per_epoch": 3, "batch_size": 8},
    },
})


@pytest.mark.skipif(not TORCH_AVAILABLE, reason="torch not installed")
class TestTorchBackendOps:
    def _backend(self):
        return get_backend("torch:cpu")

    def test_spec_and_device(self):
        be = self._backend()
        assert be.name == "torch"
        assert be.spec == "torch:cpu"

    def test_roundtrip_and_gather(self):
        be = self._backend()
        x = np.random.default_rng(0).normal(size=(5, 3))
        native = be.asarray(x)
        assert np.allclose(be.to_numpy(native), x)
        idx = np.array([0, 2, 2])
        assert np.allclose(be.to_numpy(be.gather(native, idx)), x[idx])

    def test_parameter_does_not_alias_numpy(self):
        be = self._backend()
        x = np.zeros((2, 2))
        param = be.parameter(x)
        param += 1.0
        assert np.array_equal(x, np.zeros((2, 2)))

    def test_ops_match_numpy_reference(self):
        be = self._backend()
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        bundle = rng.normal(size=(6, 5, 4))
        coeff = rng.normal(size=(6, 5))
        checks = [
            (be.rowwise_dot(be.asarray(a), be.asarray(b)), NUMPY_BACKEND.rowwise_dot(a, b)),
            (be.batched_rowwise_dot(be.asarray(a), be.asarray(bundle)),
             NUMPY_BACKEND.batched_rowwise_dot(a, bundle)),
            (be.weighted_rows_sum(be.asarray(coeff), be.asarray(bundle)),
             NUMPY_BACKEND.weighted_rows_sum(coeff, bundle)),
            (be.sigmoid(be.asarray(a)), NUMPY_BACKEND.sigmoid(a)),
            (be.log_sigmoid(be.asarray(a)), NUMPY_BACKEND.log_sigmoid(a)),
            (be.softmax(be.asarray(a), axis=1), NUMPY_BACKEND.softmax(a, axis=1)),
            (be.clip(be.asarray(a), -0.5, None), NUMPY_BACKEND.clip(a, -0.5, None)),
            (be.clip_rows(be.asarray(a * 3), 1.0), NUMPY_BACKEND.clip_rows(a * 3, 1.0)),
            (be.clip_global(be.asarray(a * 3), 1.0), NUMPY_BACKEND.clip_global(a * 3, 1.0)),
            (be.sum(be.asarray(a), axis=0), NUMPY_BACKEND.sum(a, axis=0)),
            (be.mean(be.asarray(a)), NUMPY_BACKEND.mean(a)),
        ]
        for got, want in checks:
            assert np.allclose(be.to_numpy(got), np.asarray(want), rtol=1e-12, atol=1e-12)

    def test_index_add_accumulates_duplicates(self):
        be = self._backend()
        target = be.asarray(np.zeros((4, 2)))
        rows = be.asarray(np.ones((3, 2)))
        be.index_add_(target, np.array([1, 1, 3]), rows)
        expected = np.zeros((4, 2)); expected[1] = 2.0; expected[3] = 1.0
        assert np.allclose(be.to_numpy(target), expected)

    def test_noise_stream_identical_to_numpy(self):
        """Same seed => the same Gaussian noise on every backend."""
        be = self._backend()
        torch_draw = be.to_numpy(be.gaussian(np.random.default_rng(9), 0.0, 5.0, (4, 3)))
        numpy_draw = NUMPY_BACKEND.gaussian(np.random.default_rng(9), 0.0, 5.0, (4, 3))
        assert np.array_equal(torch_draw, numpy_draw)


@pytest.mark.skipif(not TORCH_AVAILABLE, reason="torch not installed")
class TestTorchModelParity:
    """NumPy-vs-torch embeddings and metrics at rtol 1e-5, all trainers."""

    RTOL = 1e-5
    ATOL = 1e-8

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_embeddings_and_scores_match(self, name):
        case = PARITY_CASES[name]
        graph = golden_graph()
        models = {}
        for backend in ("numpy", "torch"):
            models[backend] = repro.make_model(
                case["model"],
                epsilon=case["epsilon"],
                graph=graph,
                rng=77,
                backend=backend,
                **case["overrides"],
            ).fit()
        emb_np = models["numpy"].embeddings_
        emb_torch = models["torch"].embeddings_
        assert isinstance(emb_torch, np.ndarray)  # public surface stays numpy
        assert emb_np.shape == emb_torch.shape
        scale = np.maximum(np.abs(emb_np), 1.0)
        assert np.allclose(emb_np, emb_torch, rtol=self.RTOL, atol=self.ATOL * scale.max()), (
            f"{name}: max deviation "
            f"{np.max(np.abs(emb_np - emb_torch) / scale):.3e} exceeds rtol"
        )
        pairs = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.int64)
        assert np.allclose(
            models["numpy"].score_edges(pairs),
            models["torch"].score_edges(pairs),
            rtol=self.RTOL, atol=self.ATOL,
        )

    def test_noise_seeding_determinism_per_backend(self):
        """Two torch runs with one seed are identical to each other."""
        case = PARITY_CASES["advsgm"]
        graph = golden_graph()
        runs = [
            repro.make_model(
                case["model"], epsilon=case["epsilon"], graph=graph, rng=5,
                backend="torch", **case["overrides"],
            ).fit().embeddings_
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_privacy_accounting_is_backend_independent(self):
        """Same seed => identical accountant trajectory under numpy and torch."""
        case = PARITY_CASES["dpsgm"]
        graph = golden_graph()
        spends = {}
        for backend in ("numpy", "torch"):
            model = repro.make_model(
                case["model"], epsilon=case["epsilon"], graph=graph, rng=3,
                backend=backend, **case["overrides"],
            ).fit()
            spent = model.privacy_spent()
            spends[backend] = (spent.epsilon, spent.delta, model.stopped_early)
        assert spends["numpy"] == spends["torch"]


# ---------------------------------------------------------------------------
# fast precision: float32 device path (skips without torch; CI torch job)
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not TORCH_AVAILABLE, reason="torch not installed")
class TestTorchFastPath:
    """The float32 fast path: identity, determinism, statistical parity, speed.

    Fast mode trades bit-level parity for throughput, so unlike the exact
    torch rows it is held to *statistical* quality bars — downstream task
    metrics within tolerance of the exact run — plus strict determinism
    (same seed, same fast run, twice).
    """

    def _backend(self):
        return get_backend("torch:cpu:fast")

    def test_spec_dtype_and_instance_identity(self):
        be = self._backend()
        assert be.precision == "fast"
        assert be.spec == "torch:cpu:fast"
        assert be.asarray(np.zeros((2, 2))).dtype == torch.float32
        # One cached instance per (name, device, precision); fast and exact
        # never alias.
        assert be is get_backend("torch:cpu:fast")
        assert be is not get_backend("torch:cpu")

    def test_fast_runs_are_deterministic(self):
        graph = golden_graph()
        overrides = dict(GOLDEN_CASES["sgm"]["overrides"])
        runs = [
            repro.make_model(
                "sgm", graph=graph, rng=13,
                backend="torch:fast", **overrides,
            ).fit().embeddings_
            for _ in range(2)
        ]
        assert isinstance(runs[0], np.ndarray)  # public surface stays numpy
        assert np.array_equal(runs[0], runs[1])
        assert np.all(np.isfinite(runs[0]))

    def test_fast_loss_history_is_finite_floats(self):
        graph = golden_graph()
        overrides = dict(GOLDEN_CASES["sgm"]["overrides"])
        model = repro.make_model(
            "sgm", graph=graph, rng=13,
            backend="torch:fast", **overrides,
        ).fit()
        losses = model.history.get("loss")
        assert len(losses) == model.config.num_epochs
        assert all(isinstance(v, float) and np.isfinite(v) for v in losses)

    def _fit_sgm(self, graph, precision, rng=29):
        return repro.make_model(
            "sgm",
            graph=graph,
            rng=rng,
            backend=f"torch:{precision}",
            embedding_dim=32,
            num_epochs=15,
            batches_per_epoch=10,
            batch_size=64,
        ).fit()

    def test_statistical_parity_link_prediction(self):
        """Fast AUC within 0.05 of exact on the same held-out split."""
        from repro.evals.link_prediction import LinkPredictionTask
        from repro.graph.datasets import load_dataset

        graph = load_dataset("ppi", scale=0.4, seed=29)
        task = LinkPredictionTask(graph, test_fraction=0.1, rng=29)
        aucs = {
            precision: task.evaluate(
                self._fit_sgm(task.train_graph, precision).embeddings_
            ).auc
            for precision in ("exact", "fast")
        }
        assert aucs["exact"] > 0.6  # the exact run must itself have signal
        assert abs(aucs["fast"] - aucs["exact"]) < 0.05

    def test_statistical_parity_node_clustering(self):
        """Fast NMI within 0.1 of exact on a labelled dataset."""
        from repro.evals.clustering import NodeClusteringTask
        from repro.graph.datasets import load_dataset

        graph = load_dataset("wiki", scale=0.15, seed=29)
        task = NodeClusteringTask(graph)
        nmis = {
            precision: task.evaluate(
                self._fit_sgm(graph, precision).embeddings_
            ).normalized_mutual_information
            for precision in ("exact", "fast")
        }
        assert abs(nmis["fast"] - nmis["exact"]) < 0.1

    def test_fast_fit_at_least_2x_exact_on_50k_graph(self):
        """The fast path must pay for its lost bit-parity: >= 2x on 50k nodes.

        One seeded 50k-node, 250k-edge graph; each row is clocked from
        ``make_model`` to the end of ``fit``, the exact row first.
        """
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 50_000, size=(250_000, 2))
        graph = Graph(50_000, edges[edges[:, 0] != edges[:, 1]])
        seconds = {}
        for spec in ("torch:cpu", "torch:cpu:fast"):
            start = time.perf_counter()
            repro.make_model(
                "sgm", graph=graph, rng=2025, backend=spec,
                embedding_dim=128, num_epochs=5, batches_per_epoch=50,
                batch_size=1024, num_negatives=5,
            ).fit()
            seconds[spec] = time.perf_counter() - start
        speedup = seconds["torch:cpu"] / seconds["torch:cpu:fast"]
        assert speedup >= 2.0, f"fast path only {speedup:.2f}x over exact"
