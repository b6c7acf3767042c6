"""Registry expiry and the VCCFirst dispatch policy."""

import random

import pytest

from conftest import listed
from offloadsim.controller import EC_FIRST, Registry, STRATEGIES, VCC_FIRST
from offloadsim.engine import RunConfig, run


def test_strategy_names():
    assert STRATEGIES == (EC_FIRST, VCC_FIRST)


def test_registry_validation():
    # Registry trusts its timeout; RunConfig checks it when built
    with pytest.raises(ValueError, match="registry_timeout must be positive, got 0.0"):
        run(RunConfig(strategy=VCC_FIRST, registry_timeout=0.0))


def test_beacon_refresh_and_strict_expiry():
    reg = Registry(timeout=0.5, n_vehicles=4)
    reg.on_beacon(3, 1.0)
    # at exactly timeout age the entry survives; any older and it goes
    reg.expire_stale(1.5)
    assert 3 in listed(reg)
    reg.expire_stale(1.5 + 1e-9)
    assert 3 not in listed(reg)
    reg.on_beacon(3, 2.0)
    reg.on_beacon(3, 2.4)  # refresh pushes the deadline out
    reg.expire_stale(2.8)
    assert listed(reg) == {3: 2.4}


def test_select_vccfirst_falls_back_to_cloud_when_empty():
    assert Registry(timeout=0.5, n_vehicles=0).pick(random.Random(0), now=1.0) is None


def test_select_vccfirst_expires_then_picks_and_removes():
    reg = Registry(timeout=0.5, n_vehicles=3)
    reg.on_beacon(1, 0.0)   # stale by now = 1.0
    reg.on_beacon(2, 0.9)
    assert reg.pick(random.Random(0), now=1.0) == 2
    # the stale entry was dropped and the chosen one removed
    assert listed(reg) == {}
    # the vehicle reappears only after a fresh beacon
    assert reg.pick(random.Random(0), now=1.0) is None
    reg.on_beacon(2, 1.1)
    assert reg.pick(random.Random(0), now=1.2) == 2


def test_select_vccfirst_is_uniform_over_candidates():
    """1e5 selections over 10 fresh vehicles land within 0.5% of 10% each."""
    rng = random.Random(31337)
    counts = {vid: 0 for vid in range(10)}
    reg = Registry(timeout=0.5, n_vehicles=10)
    n = 100_000
    for _ in range(n):
        for vid in counts:
            reg.on_beacon(vid, 0.0)
        counts[reg.pick(rng, now=0.0)] += 1
    for vid, c in counts.items():
        assert c / n == pytest.approx(0.1, abs=0.005), vid
