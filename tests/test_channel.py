"""Link latency, processor sharing, and per-leg loss behaviour."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, lossless
from offloadsim import engine
from offloadsim.channel import (
    NO_SHARING,
    PROCESSOR_SHARING,
    ChannelConfig,
    Link,
    LinkParams,
    lena_calibrated,
)

RADIO = ("pue_up", "pue_down", "vue_up", "vue_down")
WIRED = ("cn_up", "cn_down", "internet_up", "internet_down")


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
    """Eight link classes: four radio ones with link parameters, four wired
    ones that are a bounded latency each."""
    assert ChannelConfig._fields == RADIO + WIRED
    assert tuple(ChannelConfig.KINDS) == WIRED
    cfg = lena_calibrated()
    assert all(isinstance(getattr(cfg, link), LinkParams) for link in RADIO)
    assert all(isinstance(getattr(cfg, link), float) for link in WIRED)


def test_calibrated_preset_values():
    cfg = lena_calibrated()
    assert cfg.pue_up.base_latency == cfg.pue_down.base_latency == 0.0027
    assert cfg.vue_up.base_latency == cfg.vue_down.base_latency == 0.0057
    assert cfg.cn_up == cfg.cn_down == 0.002
    assert cfg.internet_up == cfg.internet_down == 0.035
    # the wired cloud round trip: 2 ms core + 35 ms Internet each way
    assert cfg.cn_up + cfg.internet_up + cfg.internet_down + cfg.cn_down == pytest.approx(0.074, rel=1e-12)
    for link in RADIO:
        assert getattr(cfg, link).rate == 100e6
        assert getattr(cfg, link).p_base == 1e-3
    # only a vehicle leg's loss grows with speed: a run builds pedestrian legs at speed 0
    assert cfg.pue_up.k_speed == cfg.pue_down.k_speed == 0.0
    assert cfg.vue_up.k_speed == cfg.vue_down.k_speed == 5e-4


def test_transfer_time_radio():
    cfg = lena_calibrated()
    # 4000 bytes over 100 Mb/s: 0.32 ms of serialization on top of the floor
    assert Link(cfg.pue_up, 4000.0).transfer_time(1) == 0.0027 + 32000.0 / 100e6
    assert Link(cfg.vue_up, 4000.0).transfer_time(1) == 0.0057 + 32000.0 / 100e6
    # two concurrent transfers halve the rate
    assert Link(cfg.pue_up, 4000.0).transfer_time(2) == 0.0027 + 32000.0 / 50e6
    assert Link(cfg.pue_up, 0.0).transfer_time(1) == 0.0027


def test_transfer_time_wired_ignores_size_and_concurrency():
    """Every cloud task of a run takes each wired leg's latency, whatever its
    payload and however many tasks cross at once."""
    instant_radio = LinkParams(0.0)
    channel = lena_calibrated()._replace(pue_up=instant_radio, pue_down=instant_radio)
    for size in (0.0, 4000.0, 1e9):
        cfg = engine.RunConfig(
            strategy="ECFirst", n_users=30, duration=1.0, edge_max_queue=0, channel=channel,
            task_size_bytes=size, result_size_bytes=size,
        )
        cloud = [r for r in engine.run(cfg) if r.destination == "CLOUD"]
        assert len(cloud) == 150
        legs = {(r.t_up_cn, r.t_up_internet, r.t_down_internet, r.t_down_cn) for r in cloud}
        assert legs == {(0.002, 0.035, 0.035, 0.002)}


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
    link class and none for a wired one, whose leg is its latency."""
    cfg = lena_calibrated()._replace(pue_down=LinkParams(0.0027, 100e6, p_base=1e-3))  # no two alike
    resolved = []

    class Recording(Link):
        def __init__(self, params, *args):
            resolved.append(params)
            super().__init__(params, *args)

    monkeypatch.setattr(engine, "Link", Recording)
    engine.run(engine.RunConfig(strategy="VCCFirst", duration=0.1, channel=cfg))
    assert sorted(map(id, resolved)) == sorted(id(getattr(cfg, link)) for link in RADIO)


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
    """Every link class is a required field, and a wired one is a bounded
    latency: it has no loss, rate or sharing to set."""
    links = lena_calibrated()._asdict()
    del links["cn_up"]
    with pytest.raises(TypeError, match="cn_up"):
        ChannelConfig(**links)
    for bad in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="^internet_up must be"):
            lena_calibrated()._replace(internet_up=bad)


def test_lossless_copy():
    cfg = lossless(lena_calibrated())
    for link in RADIO:
        assert getattr(cfg, link).p_base == 0.0
        assert getattr(cfg, link).k_speed == 0.0
    # latency model untouched
    assert cfg.vue_up.base_latency == 0.0057
    assert cfg.vue_up.rate == 100e6
    assert cfg.cn_up == 0.002 and cfg.internet_down == 0.035


def test_loss_probability_linear_in_speed_and_clamped():
    cfg = lena_calibrated()
    assert Link(cfg.pue_up, speed=0.0).p_loss == 1e-3
    v = 100.0 / 3.6
    assert Link(cfg.vue_up, speed=v).p_loss == pytest.approx(1e-3 + 5e-4 * v, rel=1e-15)
    assert Link(cfg.vue_up, speed=1e9).p_loss == 1.0


def test_out_of_coverage_loses_without_drawing():
    leg = Link(lena_calibrated().vue_down, 4000.0, 3.0)
    assert leg.send(_NoDraw(), 0.0, covered=False) is None
    assert leg.ends == [leg.transfer_time(1)]  # the lost leg took its airtime


def test_covered_radio_leg_draws_exactly_once():
    rng = _Counting(7)
    Link(lena_calibrated().pue_up, 4000.0).send(rng, 0.0)
    assert rng.draws == 1


def test_certain_loss_and_certain_delivery():
    cfg = lena_calibrated()
    rng = random.Random(0)
    assert Link(cfg.vue_up, 4000.0, 1e9).send(rng, 0.0) is None
    assert Link(lossless(cfg).vue_up, 4000.0).send(rng, 0.0) == 0.0057 + 32000.0 / 100e6


def test_loss_frequency_matches_probability():
    """Empirical loss rate over 1e5 legs at 100 km/h, 1 s apart so that no two
    share the air, sits on the model line."""
    leg = Link(lena_calibrated().vue_up, 4000.0, 100.0 / 3.6)
    rng = random.Random(2024)
    n = 100_000
    lost = sum(leg.send(rng, float(i)) is None for i in range(n))
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
