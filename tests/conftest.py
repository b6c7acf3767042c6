"""Shared fixtures and the acceptance summary lines.

Acceptance tests are named ``test_criterion_NN_*``. A terminal-summary hook
collects their outcomes and prints one PASS/FAIL line per criterion at the end
of the session, counting expected failures (strict xfail) as passing.
"""

import re
import time
from collections import defaultdict

import pytest
from hypothesis import settings

from offloadsim.controller import EC_FIRST, VCC_FIRST
from offloadsim.engine import REPLICATION_SEEDS, RunConfig, run

_CRITERION = re.compile(r"test_criterion_(\d+)")

# ``pytest --hypothesis-profile=deep`` runs the property tests that take their
# counts from ``examples`` with 1,000 examples each, still derandomized.
settings.register_profile("deep", max_examples=1000, derandomize=True, deadline=None)


def examples(tier1: int) -> int:
    """A property test's example count: ``tier1`` unless the deep profile is loaded."""
    return settings().max_examples if settings.get_current_profile_name() == "deep" else tier1


def lossless(channel):
    """A ``ChannelConfig`` with every radio loss probability zeroed, its latencies unchanged."""
    radio = (name for name in channel._fields if name not in channel.KINDS)
    return channel._replace(**{name: getattr(channel, name)._replace(p_base=0.0, k_speed=0.0) for name in radio})


def listed(registry) -> dict[int, float]:
    """A registry's present entries, vehicle id -> last beacon time."""
    return {vid: last for vid, last in enumerate(registry.entries) if last is not None}


# criterion number -> list of (outcome, was_xfail) for its test functions
_outcomes = defaultdict(list)


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    if report.when != "call" and not (report.when == "setup" and report.outcome == "failed"):
        return
    _outcomes[int(m.group(1))].append((report.outcome, hasattr(report, "wasxfail")))


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary")
    for n in sorted(_outcomes):
        results = _outcomes[n]
        failed = any(outcome == "failed" for outcome, _ in results)
        expected_failures = sum(1 for outcome, wasxfail in results if wasxfail)
        line = f"[criterion {n:2d}] {'FAIL' if failed else 'PASS'}"
        if expected_failures and not failed:
            line += f" ({expected_failures} expected failure, marked xfail)"
        terminalreporter.write_line(line)


class DefaultRuns:
    """The 18 reference runs (both strategies, nine seeds) and their wall time."""

    def __init__(self):
        t0 = time.perf_counter()
        self.records = {
            (strategy, seed): run(RunConfig(strategy=strategy, seed=seed))
            for strategy in (EC_FIRST, VCC_FIRST)
            for seed in REPLICATION_SEEDS
        }
        self.elapsed = time.perf_counter() - t0

    def by_strategy(self, strategy):
        return [self.records[(strategy, seed)] for seed in REPLICATION_SEEDS]


@pytest.fixture(scope="session")
def default_runs():
    return DefaultRuns()
