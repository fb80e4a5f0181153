"""Shared pytest fixtures: small deterministic graphs and configurations.

Also provides a dependency-free ``@pytest.mark.timeout(seconds)`` guard
(SIGALRM-based, POSIX main thread only): tests that drive the walk process
pool must *fail fast* on a deadlock instead of hanging the whole suite or a
CI job.  On platforms without ``SIGALRM`` the
marker is a no-op.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.core.config import AdvSGMConfig
from repro.graph.generators import labelled_powerlaw_community_graph, powerlaw_cluster_graph
from repro.graph.graph import Graph


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test with TimeoutError if it runs longer "
        "(SIGALRM-based; no-op off POSIX or outside the main thread)",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Item):
    marker = item.get_closest_marker("timeout")
    usable = (
        marker is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        return (yield)
    seconds = int(marker.args[0])

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded its {seconds}s timeout "
            "(deadlocked pool or leaked worker?)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def small_graph() -> Graph:
    """A small unlabelled clustered power-law graph (120 nodes)."""
    return powerlaw_cluster_graph(120, attachment=4, triangle_prob=0.4, rng=7, name="small")


@pytest.fixture(scope="session")
def labelled_graph() -> Graph:
    """A labelled community graph (150 nodes, 4 communities)."""
    return labelled_powerlaw_community_graph(
        150, num_communities=4, attachment=4, intra_prob=0.85, rng=11, name="labelled"
    )


@pytest.fixture()
def triangle_graph() -> Graph:
    """A 4-node graph with a triangle plus a pendant edge."""
    return Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], name="triangle")


@pytest.fixture()
def tiny_config() -> AdvSGMConfig:
    """An AdvSGM configuration small enough for per-test training."""
    return AdvSGMConfig(
        embedding_dim=16,
        num_negatives=3,
        batch_size=8,
        num_epochs=2,
        discriminator_steps=3,
        generator_steps=2,
        epsilon=6.0,
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """Seeded generator for per-test randomness."""
    return np.random.default_rng(1234)
