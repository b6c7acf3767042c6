"""Link latency, processor sharing, and per-leg loss behaviour."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim.channel import (
    CHANNEL_ERROR,
    NO_SHARING,
    PROCESSOR_SHARING,
    ChannelConfig,
    Delivered,
    Link,
    LinkClass,
    LinkParams,
    Lost,
    OUT_OF_COVERAGE,
    RADIO_LINKS,
    WIRED_LINKS,
    leg_outcome,
    lena_calibrated,
    loss_probability,
    transfer_time,
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
    assert cfg.links[LinkClass.INTERNET_UP].base_latency == 0.035
    for link in RADIO_LINKS:
        assert cfg.links[link].rate == 100e6
        assert cfg.links[link].p_base == 1e-3
        assert cfg.links[link].k_speed == 5e-4
    for link in WIRED_LINKS:
        assert cfg.links[link].rate is None
        assert cfg.links[link].p_base == 0.0


def test_transfer_time_radio():
    cfg = lena_calibrated()
    # 4000 bytes over 100 Mb/s: 0.32 ms of serialization on top of the floor
    assert transfer_time(4000.0, LinkClass.PUE_UP, 1, cfg) == 0.0027 + 32000.0 / 100e6
    assert transfer_time(4000.0, LinkClass.VUE_UP, 1, cfg) == 0.0057 + 32000.0 / 100e6
    # two concurrent transfers halve the rate
    assert transfer_time(4000.0, LinkClass.PUE_UP, 2, cfg) == 0.0027 + 32000.0 / 50e6
    assert transfer_time(0.0, LinkClass.PUE_UP, 1, cfg) == 0.0027


def test_transfer_time_wired_ignores_size_and_concurrency():
    cfg = lena_calibrated()
    for size in (0.0, 4000.0, 1e9):
        for concurrent in (1, 7, 1000):
            assert transfer_time(size, LinkClass.CN_UP, concurrent, cfg) == 0.002
            assert transfer_time(size, LinkClass.INTERNET_DOWN, concurrent, cfg) == 0.035


def test_transfer_time_no_sharing_mode():
    cfg = lena_calibrated()
    params = LinkParams(0.001, rate=1e6, sharing="none")
    cfg.links[LinkClass.PUE_UP] = params
    assert transfer_time(1000.0, LinkClass.PUE_UP, 5, cfg) == 0.001 + 8000.0 / 1e6


def test_transfer_time_validation():
    cfg = lena_calibrated()
    with pytest.raises(ValueError):
        transfer_time(-1.0, LinkClass.PUE_UP, 1, cfg)
    with pytest.raises(ValueError):
        transfer_time(1.0, LinkClass.PUE_UP, 0, cfg)


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
    cfg = lena_calibrated()
    assert loss_probability(cfg, LinkClass.PUE_UP, 0.0) == 1e-3
    v = 100.0 / 3.6
    assert loss_probability(cfg, LinkClass.VUE_UP, v) == pytest.approx(
        1e-3 + 5e-4 * v, rel=1e-15
    )
    assert loss_probability(cfg, LinkClass.VUE_UP, 1e9) == 1.0
    assert loss_probability(cfg, LinkClass.CN_UP, 1e9) == 0.0


def test_wired_legs_never_lose_and_never_draw():
    cfg = lena_calibrated()
    out = leg_outcome(_NoDraw(), LinkClass.CN_UP, 4000.0, 0.0, True, True, cfg)
    assert out == Delivered(0.002)
    # coverage flags are irrelevant off the radio
    out = leg_outcome(_NoDraw(), LinkClass.INTERNET_UP, 4000.0, 50.0, False, False, cfg)
    assert out == Delivered(0.035)


def test_out_of_coverage_loses_without_drawing():
    cfg = lena_calibrated()
    for src, dst in ((False, True), (True, False), (False, False)):
        out = leg_outcome(_NoDraw(), LinkClass.VUE_DOWN, 4000.0, 3.0, src, dst, cfg)
        assert out == Lost(OUT_OF_COVERAGE)


def test_covered_radio_leg_draws_exactly_once():
    cfg = lena_calibrated()
    rng = _Counting(7)
    out = leg_outcome(rng, LinkClass.PUE_UP, 4000.0, 0.0, True, True, cfg)
    assert rng.draws == 1
    assert isinstance(out, (Delivered, Lost))


def test_certain_loss_and_certain_delivery():
    cfg = lena_calibrated()
    rng = random.Random(0)
    out = leg_outcome(rng, LinkClass.VUE_UP, 4000.0, 1e9, True, True, cfg)
    assert out == Lost(CHANNEL_ERROR)
    out = leg_outcome(rng, LinkClass.VUE_UP, 4000.0, 0.0, True, True, cfg.lossless())
    assert out == Delivered(transfer_time(4000.0, LinkClass.VUE_UP, 1, cfg))


def test_loss_frequency_matches_probability():
    """Empirical loss rate over 1e5 legs at 100 km/h sits on the model line."""
    cfg = lena_calibrated()
    speed = 100.0 / 3.6
    p = loss_probability(cfg, LinkClass.VUE_UP, speed)
    rng = random.Random(2024)
    n = 100_000
    lost = sum(
        1
        for _ in range(n)
        if isinstance(
            leg_outcome(rng, LinkClass.VUE_UP, 4000.0, speed, True, True, cfg), Lost
        )
    )
    assert lost / n == pytest.approx(p, abs=2e-3)


_RADIO = sorted(RADIO_LINKS, key=lambda link: link.value)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    link=st.sampled_from(_RADIO),
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
def test_link_send_matches_the_public_leg_functions(link, params, size, speed, src, dst, busy, seed):
    """The engine's per-run Link gives what leg_outcome and transfer_time give:
    the same delivered-or-lost result, latency, airtime and RNG state."""
    cfg = ChannelConfig({**lena_calibrated().links, link: params})
    t = 2.0
    on_air = [t + 0.5 + i for i in range(busy)]
    fast = Link(cfg.links[link], size, speed)
    fast.ends = [t - 0.1, t] + on_air  # sorted, so a heap; both first ones have ended
    rng_fast, rng_ref = random.Random(seed), random.Random(seed)

    latency = fast.send(rng_fast, t, src and dst)
    ref = leg_outcome(rng_ref, link, size, speed, src, dst, cfg, busy + 1)
    airtime = transfer_time(size, link, busy + 1, cfg)

    assert rng_fast.getstate() == rng_ref.getstate()
    if isinstance(ref, Delivered):
        assert latency == ref.latency == airtime
    else:
        assert latency is None
    assert sorted(fast.ends) == sorted(on_air + [t + airtime])
