"""Known privacy defects, pinned as strict-xfail canaries.

Each test states a guarantee a released model must meet.  A case that fails
on the current code carries ``pytest.mark.xfail(strict=True, reason=...)``
naming the ROADMAP item that fixes it: it reports "xfailed" while the defect
is there and turns into a failure once a fix makes it pass, so the fixing
change must take the marker off together with the fix.  Unmarked cases hold
today and must keep holding.
"""

import pytest

from repro import golden
from repro.api.registry import make_model

DP_MODELS = ("advsgm", "dpsgm", "dpasgm", "dpggan", "dpgvae", "gap", "dpar")
EPSILONS = (0.5, 1.0, 6.0)

#: Every DP-SGD-style trainer polls the budget before a step, then applies
#: and charges the step that crosses the target, and releases it.  Measured
#: on the golden graph at seed 1234, registry defaults, dim 16 (ε 0.5 / 1 /
#: 6): advsgm, dpsgm and dpasgm report 1.098 / 1.098 / 6.031; dpggan and
#: dpgvae 0.584 / 1.120 / 6.007.  GAP and DPAR calibrate their noise for a
#: fixed number of releases up front and stay within the target.
OVERSHOOT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the step that crosses the target is applied, "
    "charged and released, so the reported epsilon overshoots it",
)


@pytest.fixture(scope="module")
def graph():
    return golden.golden_graph()


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize(
    "model",
    [
        pytest.param(name, marks=() if name in ("gap", "dpar") else OVERSHOOT)
        for name in DP_MODELS
    ],
)
def test_spent_within_target(graph, model, epsilon):
    fitted = make_model(
        model, epsilon=epsilon, graph=graph, rng=golden.GOLDEN_SEED, embedding_dim=16
    ).fit()
    spent = fitted.privacy_spent()
    assert spent.delta == fitted.config.delta
    assert spent.epsilon <= epsilon, f"{model}: spent {spent.epsilon:.6f} > target {epsilon}"
