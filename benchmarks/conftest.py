"""Shared fixture for the figure-regeneration benchmarks.

Each benchmark runs one experiment (via ``benchmark.pedantic`` so the
whole suite works under ``pytest --benchmark-only``), prints the
result's tables (``repro.experiments.report``, the same formatter the
CLI uses), and asserts the *shape* documented in
DESIGN.md/EXPERIMENTS.md.
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark fixture.

    Experiments are multi-second simulations; timing them once is
    enough and keeps the suite fast.
    """

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
