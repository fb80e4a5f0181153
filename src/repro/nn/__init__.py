"""Minimal NumPy neural-network substrate.

The AdvSGM model and the GNN baselines in this repository are shallow enough
that closed-form gradients are practical, so instead of depending on an
autograd framework we provide:

* numerically stable activations, the row-wise dot product, the pair
  scorer and the one skip-gram pair gradient (:mod:`repro.nn.functional`),
* the paper's *constrained sigmoid* built from exponential clipping
  (:mod:`repro.nn.constrained_sigmoid`, Algorithm 1),
* parameter initialisers (:mod:`repro.nn.init`).

Each model writes its own reduction and update rule in plain numpy.
"""

from repro.nn.functional import sigmoid, log_sigmoid
from repro.nn.constrained_sigmoid import ConstrainedSigmoid, exponential_clip
from repro.nn.init import xavier_uniform, uniform_embedding, normal_init

__all__ = [
    "sigmoid",
    "log_sigmoid",
    "ConstrainedSigmoid",
    "exponential_clip",
    "xavier_uniform",
    "uniform_embedding",
    "normal_init",
]
