"""Link latency, processor sharing, and per-leg loss behaviour."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from offloadsim import engine
from offloadsim.channel import (
    CHANNEL_ERROR,
    NO_SHARING,
    PROCESSOR_SHARING,
    ChannelConfig,
    Link,
    LinkClass,
    LinkParams,
    OUT_OF_COVERAGE,
    RADIO_LINKS,
    WIRED_LINKS,
    lena_calibrated,
)


class _NoDraw:
    """RNG stand-in that fails the test if anything samples it."""

    def random(self):
        raise AssertionError("this leg must not consume an RNG draw")


class _Counting(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_link_partition():
    assert RADIO_LINKS | WIRED_LINKS == frozenset(LinkClass)
    assert not RADIO_LINKS & WIRED_LINKS
    assert LinkClass.PUE_UP in RADIO_LINKS
    assert LinkClass.INTERNET_DOWN in WIRED_LINKS


def test_calibrated_preset_values():
    cfg = lena_calibrated()
    assert cfg.links[LinkClass.PUE_UP].base_latency == 0.0027
    assert cfg.links[LinkClass.VUE_DOWN].base_latency == 0.0057
    assert cfg.links[LinkClass.CN_UP].base_latency == 0.002
    assert cfg.links[LinkClass.CN_DOWN].base_latency == 0.002
    assert cfg.links[LinkClass.INTERNET_UP].base_latency == 0.035
    assert cfg.links[LinkClass.INTERNET_DOWN].base_latency == 0.035
    # the wired cloud round trip: 2 ms core + 35 ms Internet each way
    wired = (LinkClass.CN_UP, LinkClass.INTERNET_UP, LinkClass.INTERNET_DOWN, LinkClass.CN_DOWN)
    assert sum(cfg.links[link].base_latency for link in wired) == pytest.approx(0.074, rel=1e-12)
    for link in RADIO_LINKS:
        assert cfg.links[link].rate == 100e6
        assert cfg.links[link].p_base == 1e-3
        assert cfg.links[link].k_speed == 5e-4
    for link in WIRED_LINKS:
        assert cfg.links[link].rate is None
        assert cfg.links[link].p_base == 0.0


def test_transfer_time_radio():
    links = lena_calibrated().links
    # 4000 bytes over 100 Mb/s: 0.32 ms of serialization on top of the floor
    assert Link(links[LinkClass.PUE_UP], 4000.0).transfer_time(1) == 0.0027 + 32000.0 / 100e6
    assert Link(links[LinkClass.VUE_UP], 4000.0).transfer_time(1) == 0.0057 + 32000.0 / 100e6
    # two concurrent transfers halve the rate
    assert Link(links[LinkClass.PUE_UP], 4000.0).transfer_time(2) == 0.0027 + 32000.0 / 50e6
    assert Link(links[LinkClass.PUE_UP], 0.0).transfer_time(1) == 0.0027


def test_transfer_time_wired_ignores_size_and_concurrency():
    links = lena_calibrated().links
    for size in (0.0, 4000.0, 1e9):
        for concurrent in (1, 7, 1000):
            assert Link(links[LinkClass.CN_UP], size).transfer_time(concurrent) == 0.002
            assert Link(links[LinkClass.INTERNET_DOWN], size).transfer_time(concurrent) == 0.035


def test_a_share_that_underflows_to_zero_takes_forever():
    # 5e-324 is the least positive float: halved, it rounds to 0
    params = LinkParams(0.0057, rate=5e-324)
    assert Link(params, 4000.0).transfer_time(1) == math.inf  # 32,000 bits over it overflow
    assert Link(params, 4000.0).transfer_time(2) == math.inf
    assert Link(params, 0.0).transfer_time(2) == 0.0057  # nothing to send


def test_transfer_time_no_sharing_mode():
    params = LinkParams(0.001, rate=1e6, sharing="none")
    assert Link(params, 1000.0).transfer_time(5) == 0.001 + 8000.0 / 1e6


def test_wired_legs_never_lose_and_never_draw(monkeypatch):
    """Only a ``Link`` loses or draws, and a run builds one for each radio
    link class and none for a wired one, whose leg is its base latency."""
    cfg = lena_calibrated()
    resolved = []

    class Recording(Link):
        def __init__(self, params, *args):
            resolved.extend(link for link in LinkClass if cfg.links[link] is params)
            super().__init__(params, *args)

    monkeypatch.setattr(engine, "Link", Recording)
    engine.run(engine.RunConfig(strategy="VCCFirst", duration=0.1, channel=cfg))
    assert len(resolved) == len(RADIO_LINKS) and set(resolved) == RADIO_LINKS


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(-0.1)
    with pytest.raises(ValueError):
        LinkParams(0.1, rate=0.0)
    with pytest.raises(ValueError):
        LinkParams(0.1, p_base=1.5)
    with pytest.raises(ValueError):
        LinkParams(0.1, k_speed=-1e-3)
    with pytest.raises(ValueError):
        LinkParams(0.1, sharing="round_robin")
    for field in ("base_latency", "rate", "p_base", "k_speed"):
        with pytest.raises(ValueError, match=f"{field} must be finite, got nan"):
            LinkParams(**{"base_latency": 0.1, field: math.nan})


def test_channel_config_requires_all_links_and_lossless_wired():
    links = dict(lena_calibrated().links)
    del links[LinkClass.CN_UP]
    with pytest.raises(ValueError, match="cn_up"):
        ChannelConfig(links)
    links = dict(lena_calibrated().links)
    links[LinkClass.INTERNET_UP] = LinkParams(0.035, p_base=0.1)
    with pytest.raises(ValueError, match="lossless"):
        ChannelConfig(links)


def test_lossless_copy():
    cfg = lena_calibrated().lossless()
    for link in LinkClass:
        assert cfg.links[link].p_base == 0.0
        assert cfg.links[link].k_speed == 0.0
    # latency model untouched
    assert cfg.links[LinkClass.VUE_UP].base_latency == 0.0057
    assert cfg.links[LinkClass.VUE_UP].rate == 100e6


def test_loss_probability_linear_in_speed_and_clamped():
    links = lena_calibrated().links
    assert Link(links[LinkClass.PUE_UP], speed=0.0).p_loss == 1e-3
    v = 100.0 / 3.6
    assert Link(links[LinkClass.VUE_UP], speed=v).p_loss == pytest.approx(1e-3 + 5e-4 * v, rel=1e-15)
    assert Link(links[LinkClass.VUE_UP], speed=1e9).p_loss == 1.0
    assert Link(links[LinkClass.CN_UP], speed=1e9).p_loss == 0.0


def test_out_of_coverage_loses_without_drawing():
    leg = Link(lena_calibrated().links[LinkClass.VUE_DOWN], 4000.0, 3.0)
    assert leg.lost(_NoDraw(), False) == OUT_OF_COVERAGE
    assert leg.send(_NoDraw(), 0.0, covered=False) is None


def test_covered_radio_leg_draws_exactly_once():
    rng = _Counting(7)
    Link(lena_calibrated().links[LinkClass.PUE_UP], 4000.0).send(rng, 0.0)
    assert rng.draws == 1


def test_certain_loss_and_certain_delivery():
    cfg = lena_calibrated()
    rng = random.Random(0)
    assert Link(cfg.links[LinkClass.VUE_UP], 4000.0, 1e9).lost(rng, True) == CHANNEL_ERROR
    lossless = Link(cfg.lossless().links[LinkClass.VUE_UP], 4000.0)
    assert lossless.send(rng, 0.0) == 0.0057 + 32000.0 / 100e6


def test_loss_frequency_matches_probability():
    """Empirical loss rate over 1e5 legs at 100 km/h sits on the model line."""
    leg = Link(lena_calibrated().links[LinkClass.VUE_UP], 4000.0, 100.0 / 3.6)
    rng = random.Random(2024)
    n = 100_000
    lost = sum(1 for _ in range(n) if leg.lost(rng, True))
    assert lost / n == pytest.approx(leg.p_loss, abs=2e-3)


@settings(max_examples=examples(400), deadline=None, derandomize=True)
@given(
    params=st.builds(
        LinkParams,
        base_latency=st.floats(0.0, 0.1),
        rate=st.none() | st.floats(1e3, 1e9),
        p_base=st.floats(0.0, 1.0),
        k_speed=st.floats(0.0, 1e-2),
        sharing=st.sampled_from((PROCESSOR_SHARING, NO_SHARING)),
    ),
    size=st.floats(0.0, 1e7),
    speed=st.floats(0.0, 300.0),
    src=st.booleans(),
    dst=st.booleans(),
    busy=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
def test_link_send_matches_the_closed_form(params, size, speed, src, dst, busy, seed):
    """``Link.send`` against the model written out: the base latency plus the
    bits over the rate, split among the transfers on the air under processor
    sharing; a loss probability linear in speed and clamped at 1, drawn once
    and only when both endpoints are covered; airtime taken even when lost.

    The same link then carries more legs: busy + 2 at once, so the number on
    the air rises, then each when the second earliest still on the air ends, so
    it falls and the link reads levels it has met before."""
    t = 2.0
    on_air = [t + 0.5 + i for i in range(busy)]
    leg = Link(params, size, speed)
    leg.ends = [t - 0.1, t] + on_air  # sorted, so a heap; both first ones have ended
    rng, ref = random.Random(seed), random.Random(seed)

    def check_send(at: float) -> None:
        on_air[:] = [end for end in on_air if end > at]
        latency = leg.send(rng, at, src and dst)
        if params.rate is None:
            airtime = params.base_latency
        else:
            sharers = len(on_air) + 1 if params.sharing == PROCESSOR_SHARING else 1
            airtime = params.base_latency + size * 8.0 / (params.rate / sharers)
        on_air.append(at + airtime)
        delivered = src and dst and not ref.random() < min(1.0, params.p_base + params.k_speed * speed)
        assert rng.getstate() == ref.getstate()
        assert latency == (airtime if delivered else None)
        assert sorted(leg.ends) == sorted(on_air)

    for _ in range(busy + 3):
        check_send(t)
    later = sorted(end for end in on_air if end > t)
    while len(later) >= 2:
        t = later[1]
        check_send(t)
        later = sorted(end for end in on_air if end > t)
