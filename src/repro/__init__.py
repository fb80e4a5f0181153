"""AdvSGM reproduction: differentially private graph embeddings via an
adversarial skip-gram model (Zhang et al., ICDE 2025).

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.graph``
    Graph data structure, synthetic dataset generators that stand in for the
    paper's public datasets, sampling routines (Algorithm 2) and edge-split
    utilities.
``repro.backend``
    ``NumpyBackend``: the six array kernels the models share (scatter-add,
    segment sum, row projection, fused add-and-project, Gaussian draws,
    ``to_numpy``).  Every model binds its one instance as ``backend_``; the
    rest of the models' tensor math is plain numpy.
``repro.nn``
    Minimal neural-network substrate: numerically stable activations, the
    row-wise dot product, the skip-gram pair gradient, the constrained
    sigmoid built from exponential clipping (Algorithm 1) and parameter
    initialisers.
``repro.privacy``
    Differential-privacy substrate: the Gaussian RDP curve, gradient
    clipping, the baselines' DP-SGD row step, RDP of the subsampled
    Gaussian mechanism, conversion to (epsilon, delta)-DP and a privacy
    accountant.
``repro.embedding``
    Non-private skip-gram family models (LINE-style SGM, DeepWalk, node2vec
    walks, the adversarial skip-gram without privacy).
``repro.core``
    AdvSGM itself (Algorithm 3): discriminator with optimizable noise terms,
    generator, weight tuning lambda = 1/S(.) and RDP-accounted training.
``repro.train``
    Unified training loop (epoch/step scheduling, callbacks) plus the
    single shared privacy-budget early stop used by every DP trainer.
``repro.baselines``
    Private baselines: DP-SGM, DP-ASGM, DPGGAN, DPGVAE, GAP and DPAR.
``repro.evals``
    Link-prediction and node-clustering evaluation protocols (AUC, affinity
    propagation, mutual information).
``repro.api``
    The unified estimator surface: the ``GraphEmbedder`` protocol, the
    string-keyed model registry (``make_model``) and declarative
    ``ExperimentSpec`` grids.
``repro.cache``
    Content-addressed experiment result cache: canonical cell keys,
    provenance manifests and the filesystem ``ResultStore`` that makes
    re-running partial sweeps free and interrupted sweeps resumable.
``repro.experiments``
    One module per paper table/figure that regenerates the reported series,
    all running through ``run_spec`` (serially or across a process pool,
    optionally against a result cache).

The command line mirrors the library: ``python -m repro train / evaluate /
experiment / cache / golden / datasets list / models list``.
"""

from repro.api import (
    ExperimentCell,
    ExperimentSpec,
    GraphEmbedder,
    ModelSpec,
    get_entry,
    list_models,
    make_model,
    register_model,
)
from repro.cache import ResultStore, cell_key
from repro.core.advsgm import AdvSGM
from repro.core.config import AdvSGMConfig
from repro.embedding.skipgram import SkipGramModel
from repro.embedding.adversarial import AdversarialSkipGram
from repro.graph.graph import Graph
from repro.graph.walk_engine import WalkEngine
from repro.graph.datasets import load_dataset, list_datasets
from repro.evals.link_prediction import LinkPredictionTask
from repro.evals.clustering import NodeClusteringTask
from repro.train import (
    Callback,
    PrivacyBudget,
    ProgressCallback,
    Trainer,
    TrainingLoop,
)

__version__ = "1.8.0"

__all__ = [
    "AdvSGM",
    "AdvSGMConfig",
    "SkipGramModel",
    "AdversarialSkipGram",
    "Graph",
    "WalkEngine",
    "load_dataset",
    "list_datasets",
    "LinkPredictionTask",
    "NodeClusteringTask",
    "Callback",
    "PrivacyBudget",
    "ProgressCallback",
    "Trainer",
    "TrainingLoop",
    "GraphEmbedder",
    "ExperimentCell",
    "ExperimentSpec",
    "ModelSpec",
    "ResultStore",
    "cell_key",
    "get_entry",
    "list_models",
    "make_model",
    "register_model",
    "__version__",
]


def run_spec(spec, workers: int = 1, **kwargs):
    """Run an :class:`ExperimentSpec`; see :func:`repro.experiments.runners.run_spec`.

    Imported lazily so ``import repro`` stays light.  ``cache=``, ``resume=``,
    ``force=`` and ``store_embeddings=`` pass through to the runner.
    """
    from repro.experiments.runners import run_spec as _run_spec

    return _run_spec(spec, workers=workers, **kwargs)
