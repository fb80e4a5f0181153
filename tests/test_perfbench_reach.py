"""What the benchmark harness needs from ``repro``, checked in the test loop.

``perfbench/layers.py`` measures layers by patching named attributes of
``repro`` classes and modules and counting their positional arguments, and
``perfbench/workloads.py`` reads scores through ``model.backend_.to_numpy``.
A rename or a moved kernel breaks the benchmark without failing any other
test, so this module loads the harness's tracer by file path (it is not a
package) and drives it over tiny fits.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.api.registry import make_model
from repro.core.advsgm import AdvSGM
from repro.train import ArrayPairSource

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_is_defined_on_its_owner(layers):
    # The tracer reads vars(owner)[attr], so an inherited or renamed
    # attribute fails there, and setattr would then shadow, not wrap.
    targets = [(owner, attr) for owner, attr, _, _ in layers.layer_patches()]
    targets.append((ArrayPairSource, "batches"))
    missing = [(getattr(o, "__name__", o), a) for o, a in targets if a not in vars(o)]
    assert not missing


def test_sgm_backend_to_numpy_returns_the_embeddings(small_graph):
    model = make_model("sgm", graph=small_graph, rng=0, num_epochs=1,
                       batches_per_epoch=2, embedding_dim=8).fit()
    # The identity on a float64 ndarray: no copy of the embedding table.
    assert model.backend_.to_numpy(model.w_in) is model.w_in
    assert model.embeddings.tobytes() == model.w_in.tobytes()


def test_tracer_counts_the_kernels_of_advsgm_and_sgm(layers, small_graph, tiny_config):
    with layers.Tracer() as advsgm:
        AdvSGM(small_graph, tiny_config, rng=0).fit()
    with layers.Tracer() as sgm:
        make_model("sgm", graph=small_graph, rng=0, num_epochs=1,
                   batches_per_epoch=2, embedding_dim=8).fit()
    for name in ("backend.gaussian_values", "backend.index_add_rows",
                 "backend.normalize_rows", "accountant.steps"):
        assert advsgm.counts[name] > 0, name
    for name in ("backend.index_add_rows", "backend.normalize_rows", "skipgram.steps"):
        assert sgm.counts[name] > 0, name
