"""Benchmark fixtures.

Every benchmark regenerates one table or figure of the paper using
``ExperimentSettings.quick()`` (reduced graph scale and epoch counts so the
whole suite finishes in minutes).  Set ``REPRO_BENCH_PRESET=full`` to run the
paper-scale schedule, or ``=smoke`` for a fast plumbing check.

Each benchmark prints the regenerated rows/series so the output can be
compared side-by-side with the paper (README, "Paper figures/tables → code").
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import ExperimentSettings


def _settings_from_env() -> ExperimentSettings:
    preset = os.environ.get("REPRO_BENCH_PRESET", "quick").lower()
    if preset == "full":
        return ExperimentSettings.full()
    if preset == "smoke":
        return ExperimentSettings.smoke()
    return ExperimentSettings.quick()


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Experiment settings shared by all benchmarks."""
    return _settings_from_env()


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments are full training sweeps, so repeating them for
    statistical timing would multiply the runtime without adding information.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
