"""Property-based tests (hypothesis) for core numerics and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.evals.metrics import mutual_information, roc_auc_score
from repro.nn.constrained_sigmoid import ConstrainedSigmoid
from repro.nn.functional import log_sigmoid, sigmoid
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm
from repro.privacy.composition import DEFAULT_RDP_ORDERS, rdp_to_dp
from repro.privacy.subsampling import subsampled_gaussian_rdp

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(hnp.arrays(np.float64, st.integers(1, 50), elements=finite_floats))
def test_sigmoid_range_property(x):
    values = sigmoid(x)
    assert np.all(values >= 0.0)
    assert np.all(values <= 1.0)
    assert np.all(np.isfinite(values))


@given(hnp.arrays(np.float64, st.integers(1, 50), elements=finite_floats))
def test_log_sigmoid_nonpositive_property(x):
    values = log_sigmoid(x)
    assert np.all(values <= 1e-12)
    assert np.all(np.isfinite(values))


@given(
    hnp.arrays(np.float64, st.integers(2, 30),
               elements=st.floats(-1e3, 1e3, allow_nan=False)),
    st.floats(0.01, 10.0),
)
def test_clip_norm_bound_property(gradient, clip_norm):
    clipped = clip_by_l2_norm(gradient, clip_norm)
    assert np.linalg.norm(clipped) <= clip_norm + 1e-9
    # Clipping never increases any coordinate's magnitude direction flip.
    assert np.all(np.sign(clipped) * np.sign(gradient) >= 0)


@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 10)),
               elements=st.floats(-1e3, 1e3, allow_nan=False)),
    st.floats(0.01, 5.0),
)
def test_rowwise_clip_property(matrix, clip_norm):
    clipped = clip_rows_by_l2_norm(matrix, clip_norm)
    assert np.all(np.linalg.norm(clipped, axis=1) <= clip_norm + 1e-9)


@given(st.floats(-60.0, 60.0), st.floats(1e-5, 1e-2), st.floats(20.0, 200.0))
def test_constrained_sigmoid_range_property(x, a, b):
    s = ConstrainedSigmoid(a=a, b=b)
    value = float(s(np.array([x]))[0])
    lo, hi = s.output_range
    assert lo - 1e-9 <= value <= hi + 1e-9
    weight = float(s.inverse_weight(np.array([x]))[0])
    assert 1.0 + a - 1e-9 <= weight <= 1.0 + b + 1e-6


@settings(deadline=None, max_examples=30)
@given(
    st.integers(2, 32),
    st.floats(0.001, 0.5),
    st.floats(0.5, 20.0),
)
def test_subsampling_amplification_property(alpha, gamma, sigma):
    """Amplified RDP is non-negative and never worse than the base mechanism."""
    from repro.privacy.gaussian import gaussian_rdp

    amplified = subsampled_gaussian_rdp(alpha, gamma, sigma)
    assert amplified >= 0.0
    assert amplified <= gaussian_rdp(alpha, sigma) + 1e-12


@settings(deadline=None, max_examples=30)
@given(st.floats(0.001, 2.0), st.floats(1e-8, 1e-3))
def test_rdp_to_dp_monotone_in_rdp_property(scale, delta):
    """Uniformly larger RDP curves convert to larger epsilon."""
    small = {order: scale * 0.01 for order in DEFAULT_RDP_ORDERS}
    large = {order: scale * 0.02 for order in DEFAULT_RDP_ORDERS}
    eps_small, _ = rdp_to_dp(small, delta)
    eps_large, _ = rdp_to_dp(large, delta)
    assert eps_large >= eps_small


@settings(deadline=None, max_examples=30)
@given(st.integers(5, 60), st.integers(0, 2**32 - 1))
def test_auc_complement_property(n, seed):
    """Negating the scores flips AUC to 1 - AUC."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.ones(n), np.zeros(n)])
    scores = rng.normal(size=2 * n)
    auc = roc_auc_score(labels, scores)
    flipped = roc_auc_score(labels, -scores)
    assert auc + flipped == 1.0 or abs(auc + flipped - 1.0) < 1e-9


@settings(deadline=None, max_examples=30)
@given(
    hnp.arrays(np.int64, st.integers(4, 80), elements=st.integers(0, 4)),
)
def test_mutual_information_symmetry_property(labels):
    rng = np.random.default_rng(0)
    other = rng.integers(0, 3, size=labels.shape[0])
    forward = mutual_information(labels, other)
    backward = mutual_information(other, labels)
    assert abs(forward - backward) < 1e-9
    assert forward >= 0.0


@settings(deadline=None, max_examples=20)
@given(st.integers(10, 60), st.integers(2, 5), st.floats(0.0, 1.0),
       st.integers(0, 2**31 - 1))
def test_graph_degree_sum_property(num_nodes, attachment, triangle_prob, seed):
    """Handshake lemma: degree sum equals twice the edge count."""
    from repro.graph.generators import powerlaw_cluster_graph

    if num_nodes <= attachment:
        return
    graph = powerlaw_cluster_graph(num_nodes, attachment, triangle_prob, rng=seed)
    assert graph.degrees.sum() == 2 * graph.num_edges
    assert graph.degrees.min() >= 1
