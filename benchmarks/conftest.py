"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper.  The
fixtures below are session-scoped so the (comparatively expensive) dynamic and
static analyses run once and are shared by every uServer / diff benchmark.

Scale: workload sizes and budgets are scaled down so the whole harness runs in
minutes on a laptop.
"""

from __future__ import annotations

import pytest

from repro.experiments import diff_exp, userver_exp
from repro.replay.budget import ReplayBudget


@pytest.fixture(scope="session")
def userver_setup():
    """uServer pipeline plus LC and HC analyses (Table 2, Figure 4, Tables 3-8)."""

    return userver_exp.UServerSetup.create()


@pytest.fixture(scope="session")
def userver_replay_budget():
    return ReplayBudget(max_runs=600, max_seconds=25)


@pytest.fixture(scope="session")
def diff_setup():
    """Diff pipeline plus its (low-coverage) analysis."""

    return diff_exp.make_setup()


@pytest.fixture(scope="session")
def diff_replay_budget():
    return ReplayBudget(max_runs=700, max_seconds=25)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""

    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
