"""Tests for the unified estimator API: registry, protocol, specs, runners."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import (
    ExperimentCell,
    ExperimentSpec,
    GraphEmbedder,
    ModelSpec,
    get_entry,
    list_models,
    make_model,
)
from repro.experiments import ExperimentSettings
from repro.experiments.runners import (
    run_spec,
    settings_model,
    settings_overrides,
    spec_from_settings,
)
from repro.graph.datasets import load_dataset

ALL_MODELS = (
    "advsgm",
    "advsgm-nodp",
    "sgm",
    "deepwalk",
    "node2vec",
    "dpsgm",
    "dpasgm",
    "dpggan",
    "dpgvae",
    "gap",
    "dpar",
)

#: Tiny schedules so every model fits a 100-node graph in well under a second.
FAST_OVERRIDES = {
    "advsgm": dict(num_epochs=1, discriminator_steps=2, generator_steps=1,
                   batch_size=4, embedding_dim=8),
    "advsgm-nodp": dict(num_epochs=1, discriminator_steps=2, generator_steps=1,
                        batch_size=4, embedding_dim=8),
    "sgm": dict(num_epochs=1, batches_per_epoch=2, batch_size=8, embedding_dim=8),
    "deepwalk": dict(num_walks=1, walk_length=5, num_epochs=1, embedding_dim=8,
                     batch_size=64),
    "node2vec": dict(num_walks=1, walk_length=5, num_epochs=1, embedding_dim=8,
                     batch_size=64, p=0.5, q=2.0),
    "dpsgm": dict(num_epochs=1, batches_per_epoch=2, batch_size=4, embedding_dim=8),
    "dpasgm": dict(num_epochs=1, batches_per_epoch=2, batch_size=4, embedding_dim=8,
                   generator_steps=1),
    "dpggan": dict(num_epochs=1, batches_per_epoch=2, batch_size=8, embedding_dim=8),
    "dpgvae": dict(num_epochs=1, batches_per_epoch=2, batch_size=8, embedding_dim=8,
                   feature_dim=8),
    "gap": dict(num_epochs=1, embedding_dim=8, feature_dim=8, batch_size=32),
    "dpar": dict(num_epochs=1, embedding_dim=8, feature_dim=8, batch_size=32),
}


@pytest.fixture(scope="module")
def tiny_graph():
    return load_dataset("ppi", scale=0.1, seed=7)


class TestRegistry:
    def test_all_models_listed(self):
        assert set(list_models()) == set(ALL_MODELS)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_construct_fit_roundtrip(self, name, tiny_graph):
        """Every registered name constructs, fits, and round-trips params."""
        overrides = FAST_OVERRIDES[name]
        entry = get_entry(name)
        epsilon = 6.0 if entry.private else None
        model = make_model(name, epsilon=epsilon, rng=0, **overrides)

        params = model.get_params()
        for key, value in overrides.items():
            assert params[key] == value
        if entry.private:
            assert params["epsilon"] == 6.0

        model.fit(tiny_graph)
        assert isinstance(model, GraphEmbedder)
        assert model.embeddings_.shape == (tiny_graph.num_nodes,
                                           overrides["embedding_dim"])
        scores = model.score_edges(np.array([[0, 1], [2, 3]]))
        assert scores.shape == (2,)
        # get_params is a plain dict that reconstructs the same config.
        rebuilt = entry.config_cls(**model.get_params())
        assert rebuilt == model.config

    def test_aliases_resolve(self):
        assert get_entry("DP-SGM").name == "dpsgm"
        assert get_entry("SGM(No DP)").name == "sgm"
        assert get_entry("AdvSGM(No DP)").name == "advsgm-nodp"

    def test_unknown_model_and_field(self):
        with pytest.raises(KeyError):
            make_model("nope")
        with pytest.raises(TypeError):
            make_model("advsgm", not_a_field=1)

    @pytest.mark.parametrize("field", [
        "frontier_shard", "pair_prefetch", "prefetch_depth",
        "pair_streaming", "stream_chunk_walks", "walk_workers",
    ])
    def test_retired_walk_knobs_are_unknown_fields(self, field):
        with pytest.raises(TypeError, match=f"unknown config field\\(s\\) \\['{field}'\\]"):
            make_model("deepwalk", **{field: 2})

    def test_epsilon_rejected_for_nonprivate(self):
        with pytest.raises(ValueError):
            make_model("deepwalk", epsilon=1.0)

    def test_set_params_before_bind_only(self, tiny_graph):
        model = make_model("sgm", **FAST_OVERRIDES["sgm"])
        model.set_params(num_epochs=2)
        assert model.get_params()["num_epochs"] == 2
        model.fit(tiny_graph)
        with pytest.raises(RuntimeError):
            model.set_params(num_epochs=3)

    def test_graph_at_construction_equals_graph_at_fit(self, tiny_graph):
        """Deferred binding is seed-for-seed identical to eager binding."""
        kwargs = dict(epsilon=6.0, rng=3, **FAST_OVERRIDES["advsgm"])
        eager = make_model("advsgm", graph=tiny_graph, **kwargs).fit()
        lazy = make_model("advsgm", **kwargs).fit(tiny_graph)
        np.testing.assert_array_equal(eager.embeddings_, lazy.embeddings_)

    def test_fit_without_graph_raises(self):
        with pytest.raises(RuntimeError):
            make_model("sgm").fit()

    def test_fit_rejects_non_graph_positional(self):
        """Legacy positional-callbacks calls get a clear TypeError."""
        with pytest.raises(TypeError, match="callbacks"):
            make_model("sgm").fit([object()])

    def test_rebind_different_graph_raises(self, tiny_graph):
        other = load_dataset("wiki", scale=0.1, seed=1)
        model = make_model("sgm", graph=tiny_graph, **FAST_OVERRIDES["sgm"])
        with pytest.raises(RuntimeError):
            model.fit(other)

    def test_gap_dpar_accept_callbacks(self, tiny_graph):
        from repro.train import Callback

        calls = []

        class Recorder(Callback):
            def on_epoch_end(self, epoch, losses):
                calls.append(epoch)

        for name in ("gap", "dpar"):
            make_model(name, epsilon=6.0, rng=0, **FAST_OVERRIDES[name]).fit(
                tiny_graph, callbacks=[Recorder()]
            )
        assert calls  # both models drove the shared loop's callbacks


class TestSpec:
    def _spec(self, **kwargs):
        defaults = dict(
            task="link_prediction",
            datasets=("ppi",),
            models=(ModelSpec("advsgm", overrides=FAST_OVERRIDES["advsgm"]),),
            epsilons=(1.0, 6.0),
            repeats=2,
            base_seed=11,
            dataset_scale=0.1,
        )
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_cells_carry_derived_seeds(self):
        spec = self._spec()
        cells = spec.cells()
        assert len(cells) == 1 * 1 * 2 * 2
        assert {c.seed for c in cells} == {11, 11 + 7919}
        assert all(c.dataset_seed == 11 for c in cells)

    def test_roundtrip_dict(self):
        spec = self._spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        cell = spec.cells()[0]
        assert ExperimentCell.from_dict(cell.to_dict()) == cell

    def test_validation(self):
        with pytest.raises(ValueError):
            self._spec(task="nope")
        with pytest.raises(ValueError):
            ExperimentCell(task="nope", dataset="ppi", model=ModelSpec("sgm"),
                           epsilon=None, repeat=0, seed=0)
        with pytest.raises(ValueError):
            self._spec(datasets=())
        with pytest.raises(ValueError):
            self._spec(epsilons=())
        with pytest.raises(ValueError):
            self._spec(repeats=0)

    def test_model_spec_coercion(self):
        spec = self._spec(models=("sgm", {"name": "deepwalk", "label": "DW"}))
        assert spec.models[0].display == "sgm"
        assert spec.models[1].display == "DW"


class TestRunSpec:
    @pytest.fixture(scope="class")
    def small_spec(self):
        settings = ExperimentSettings.smoke()
        return spec_from_settings(
            "link_prediction",
            ("ppi",),
            ("AdvSGM", "DPAR"),
            settings,
            epsilons=(1.0,),
            repeats=2,
        )

    def test_parallel_identical_to_serial(self, small_spec):
        serial = run_spec(small_spec, workers=1)
        parallel = run_spec(small_spec, workers=2)
        assert serial == parallel
        assert len(serial) == 4  # 2 models x 1 epsilon x 2 repeats
        seeds = {row["seed"] for row in serial}
        assert seeds == {2025, 2025 + 7919}

    def test_settings_overrides_are_data(self):
        settings = ExperimentSettings.smoke()
        overrides = settings_overrides("advsgm", settings)
        assert overrides["batch_size"] == settings.dp_batch_size
        assert overrides["num_epochs"] == settings.dp_epochs
        # Non-DP variant swaps the epoch budget and fixes the batch size.
        nodp = settings_overrides("advsgm-nodp", settings)
        assert nodp["num_epochs"] == settings.nodp_epochs
        assert nodp["batch_size"] == 128

    def test_settings_model_merges_extras(self):
        settings = ExperimentSettings.smoke()
        spec = settings_model("advsgm", settings, label="lr=0.2",
                              learning_rate_d=0.2)
        overrides = dict(spec.overrides)
        assert overrides["learning_rate_d"] == 0.2
        assert spec.display == "lr=0.2"


#: Config fields that alternative mechanisms once read, with the value every
#: caller used (as a Python value and as ``--set`` text).  The paper fixes
#: one mechanism, so the fields are gone and passing one is an error.
DELETED_FIELDS = {
    "noise_mode": ("per_example", "per_example"),
    "average_gradients": (False, "false"),
    "normalize_embeddings": (True, "true"),
    "rdp_orders": (tuple(range(2, 65)), json.dumps(list(range(2, 65)))),
    "negative_distribution": ("uniform", "uniform"),
}
DELETED_FIELD_CASES = [
    (model, field)
    for model, fields in [
        ("advsgm", list(DELETED_FIELDS)),
        ("advsgm-nodp", list(DELETED_FIELDS)),
        ("sgm", ["normalize_embeddings", "negative_distribution"]),
        ("dpsgm", ["negative_distribution"]),
        ("dpasgm", ["negative_distribution"]),
        ("deepwalk", ["negative_distribution"]),
        ("node2vec", ["negative_distribution"]),
    ]
    for field in fields
]


class TestDeletedConfigFields:
    @pytest.mark.parametrize("model,field", DELETED_FIELD_CASES)
    def test_make_model_refuses(self, model, field):
        with pytest.raises(TypeError) as info:
            make_model(model, **{field: DELETED_FIELDS[field][0]})
        message = str(info.value)
        assert f"unknown config field(s) ['{field}']" in message
        assert "\n" not in message

    @pytest.mark.parametrize("model,field", DELETED_FIELD_CASES)
    def test_cli_set_refuses(self, model, field, monkeypatch):
        from repro import cli

        def refuse_load(*args, **kwargs):
            raise AssertionError("a dataset was loaded before the CLI refused")

        monkeypatch.setattr(cli, "load_dataset", refuse_load)
        with pytest.raises(SystemExit) as info:
            cli.main(["train", "--model", model, "--dataset", "ppi",
                      "--set", f"{field}={DELETED_FIELDS[field][1]}"])
        # A string exit code is printed to stderr with exit status 1.
        message = info.value.code
        assert isinstance(message, str)
        assert message.startswith(f"unknown config field {field!r}")
        assert "\n" not in message


class TestPairDtype:
    """Pairs take the narrowest unsigned dtype that holds the largest node id."""

    def test_narrowest_unsigned_pairs_for_small_graphs(self, tiny_graph):
        from reference_impl import reference_walks_to_pairs
        from repro.graph.random_walk import walks_to_pairs
        from repro.graph.walk_engine import WalkEngine

        matrix = WalkEngine(tiny_graph).walk_corpus(1, 8, rng=0)
        pairs = walks_to_pairs(matrix, window_size=3)
        assert tiny_graph.num_nodes <= 256 and pairs.dtype == np.uint8
        # Same multiset as the reference loops over the unpadded walks.
        as_lists = [row[row >= 0].tolist() for row in matrix]
        key = lambda p: sorted(map(tuple, p.tolist()))
        assert key(pairs) == key(reference_walks_to_pairs(as_lists, 3))

    @pytest.mark.parametrize(
        "top,dtype",
        [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32),
         (2**32 - 1, np.uint32), (2**32, np.uint64), (2**40 + 3, np.uint64)],
    )
    def test_dtype_boundaries(self, top, dtype):
        from repro.graph.random_walk import walks_to_pairs

        want = sorted([(0, top), (top, 0), (top, 1), (1, top), (top, 2), (2, top)])
        matrix = np.array([[0, top, 1], [top, 2, -1]], dtype=np.int64)
        pairs = walks_to_pairs(matrix, window_size=1)
        assert pairs.dtype == dtype
        assert sorted(map(tuple, pairs.tolist())) == want

    def test_all_padding_yields_no_pairs(self):
        from repro.graph.random_walk import walks_to_pairs

        for matrix in (np.full((3, 5), -1), np.full((20, 4), -1, dtype=np.int32)):
            assert walks_to_pairs(matrix, window_size=2).shape == (0, 2)
        assert walks_to_pairs(np.zeros((3, 0), dtype=np.int64), window_size=2).shape == (0, 2)

    def test_deepwalk_pass_is_dtype_independent(self):
        # Training only indexes with the ids: one pass from uint16 pairs is
        # byte-equal to the same pass from the same pairs as int32.
        from repro.graph.generators import powerlaw_cluster_graph
        from repro.graph.random_walk import walks_to_pairs
        from repro.graph.walk_engine import WalkEngine
        from repro.train import ArrayPairSource

        graph = powerlaw_cluster_graph(400, attachment=3, triangle_prob=0.3, rng=2)
        corpus = WalkEngine(graph).walk_corpus(2, 10, rng=4)
        pairs = walks_to_pairs(corpus, window_size=3)
        assert pairs.dtype == np.uint16
        trained = []
        for ids in (pairs, pairs.astype(np.int32)):
            model = make_model("deepwalk", graph=graph, rng=6, embedding_dim=16,
                               batch_size=64, num_negatives=3)
            loss = model._train_one_pass(ArrayPairSource(ids.copy(), batch_size=64))
            trained.append((loss, model.w_in.tobytes(), model.w_out.tobytes()))
        assert trained[0] == trained[1]

    def test_deepwalk_fits_from_uint32_pairs(self, monkeypatch):
        # A 65,537-node ring is the smallest graph whose pairs need uint32.
        from repro.embedding import deepwalk
        from repro.graph.graph import Graph

        n = 65_537
        ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        graph = Graph(n, ring)
        extract = deepwalk.walks_to_pairs
        dtypes = []

        def spy(corpus, window_size):
            pairs = extract(corpus, window_size=window_size)
            dtypes.append(pairs.dtype)
            return pairs

        monkeypatch.setattr(deepwalk, "walks_to_pairs", spy)
        model = make_model("deepwalk", graph=graph, rng=0, num_walks=1, walk_length=2,
                           window_size=1, embedding_dim=4, num_negatives=1,
                           num_epochs=1, batch_size=8192).fit()
        assert dtypes == [np.uint32]
        assert model.pair_source_.num_pairs == 2 * n
        assert np.isfinite(model.embeddings).all()
