"""Config file parsing, presets, overrides, and exact serialization."""

import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offloadsim import config
from offloadsim.channel import LinkClass, lena_calibrated
from offloadsim.config import (
    ConfigError,
    SweepSpec,
    apply_axis,
    bonus_in_ec_requests,
    default_config_text,
    parse_config,
    parse_cost_params,
    parse_run_config,
    parse_seed_list,
    parse_sweep_spec,
    serialize_cost_params,
    serialize_run_config,
)
from offloadsim.costmodel import CostParams
from offloadsim.engine import KMH, REPLICATION_SEEDS, RunConfig, run, summarize


def test_minimal_run_config_uses_defaults():
    cfg = parse_run_config("strategy = ECFirst\n")
    assert cfg == RunConfig(strategy="ECFirst")


def test_run_config_requires_strategy():
    with pytest.raises(ConfigError, match="strategy"):
        parse_run_config("users = 8\n")


def test_comments_and_blank_lines_are_ignored():
    text = """
    # a comment line
    strategy = VCCFirst   # trailing comment
    users = 4

    duration = 10
    """
    cfg = parse_run_config(text)
    assert cfg.strategy == "VCCFirst"
    assert cfg.n_users == 4
    assert cfg.duration == 10.0


def test_unknown_key_names_the_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'usrs'"):
        parse_run_config("strategy = ECFirst\nusrs = 8\n")


def test_duplicate_key_names_both_lines():
    text = "strategy = ECFirst\nusers = 8\nusers = 9\n"
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'users' \(first set on line 2\)"):
        parse_run_config(text)


def test_malformed_line_is_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_run_config("strategy ECFirst\n")


def test_fraction_values():
    cfg = parse_run_config("strategy = ECFirst\ntask.workload_mi = 1000/2\n")
    assert cfg.workload_mi == 500.0
    with pytest.raises(ConfigError, match="line 2"):
        parse_run_config("strategy = ECFirst\ntask.workload_mi = 1/0\n")


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "infinity", "1e309", "1/0.0e0", "1e308/1e-308"])
def test_non_finite_numbers_name_the_line(raw):
    with pytest.raises(ConfigError, match="line 2"):
        parse_run_config(f"strategy = ECFirst\nduration = {raw}\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_sweep_spec(f"strategy = VCCFirst\nsweep.values = 1, {raw}\nsweep.axis = speed\n")


@pytest.mark.parametrize("line", ["users = 1000000000", "request_rate = 1e6\nduration = 1e6"])
def test_oversized_arrival_counts_are_rejected_at_parse_time(line):
    with pytest.raises(ConfigError, match="arrivals"):
        parse_run_config(f"strategy = ECFirst\n{line}\n")


def test_oversized_sweep_points_name_the_values_line():
    with pytest.raises(ConfigError, match="line 3: sweep.values 1000000000.0: .*arrivals"):
        parse_sweep_spec("strategy = ECFirst\nsweep.axis = users\nsweep.values = 1, 1e9\n")


def test_oversized_fleets_are_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="line 2: vehicles.count must not exceed 1000000"):
        parse_run_config("strategy = ECFirst\nvehicles.count = 1000000000\n")
    assert parse_run_config("strategy = ECFirst\nvehicles.count = 1000000\n").n_vehicles == 10**6
    with pytest.raises(ConfigError, match="line 3: sweep.values 1000001.0: vehicle count"):
        parse_sweep_spec("strategy = VCCFirst\nsweep.axis = vehicles\nsweep.values = 40, 1000001\n")


def test_beacon_periods_too_short_for_the_horizon_are_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="beacons"):
        parse_run_config("strategy = VCCFirst\ncontroller.beacon_period = 1e-300\n")


def test_unbounded_still_spells_infinity():
    cfg = parse_run_config("strategy = ECFirst\nscenario.coverage_radius = unbounded\n")
    assert math.isinf(cfg.geometry.coverage_radius)
    with pytest.raises(ConfigError, match="line 2"):
        parse_run_config("strategy = ECFirst\nscenario.coverage_radius = inf\n")


def test_speed_keys_are_exclusive():
    cfg = parse_run_config("strategy = ECFirst\nvehicles.speed_kmh = 36\n")
    assert cfg.vehicle_speed == pytest.approx(10.0, rel=1e-15)
    cfg = parse_run_config("strategy = ECFirst\nvehicles.speed_mps = 10\n")
    assert cfg.vehicle_speed == 10.0
    with pytest.raises(ConfigError, match="not both"):
        parse_run_config(
            "strategy = ECFirst\nvehicles.speed_kmh = 36\nvehicles.speed_mps = 10\n"
        )


def test_scenario_preset_and_overrides():
    cfg = parse_run_config("strategy = ECFirst\nscenario.preset = partial_coverage\n")
    assert cfg.geometry.loop_length_x == 1200.0
    assert cfg.geometry.coverage_radius == 450.0
    cfg = parse_run_config(
        "strategy = ECFirst\n"
        "scenario.preset = partial_coverage\n"
        "scenario.coverage_radius = 200\n"
    )
    assert cfg.geometry.coverage_radius == 200.0
    cfg = parse_run_config(
        "strategy = ECFirst\nscenario.coverage_radius = unbounded\n"
    )
    assert math.isinf(cfg.geometry.coverage_radius)


def test_channel_overrides():
    cfg = parse_run_config(
        "strategy = ECFirst\n"
        "channel.pue_up.base_latency = 0.004\n"
        "channel.pue_up.rate = 50e6\n"
        "channel.vue_up.p_base = 0.01\n"
        "channel.cn_up.rate = unbounded\n"
    )
    assert cfg.channel.links[LinkClass.PUE_UP].base_latency == 0.004
    assert cfg.channel.links[LinkClass.PUE_UP].rate == 50e6
    assert cfg.channel.links[LinkClass.VUE_UP].p_base == 0.01
    assert cfg.channel.links[LinkClass.CN_UP].rate is None
    # untouched links keep the preset
    assert cfg.channel.links[LinkClass.PUE_DOWN] == lena_calibrated().links[LinkClass.PUE_DOWN]


def test_wired_loss_override_is_rejected():
    with pytest.raises(ConfigError, match="lossless"):
        parse_run_config("strategy = ECFirst\nchannel.cn_up.p_base = 0.1\n")


def test_sweep_spec_parses_axis_values_and_replications():
    spec = parse_sweep_spec(
        "strategy = VCCFirst\n"
        "sweep.axis = vehicles\n"
        "sweep.values = 1, 2, 4, 10\n"
        "sweep.replications = 3\n"
    )
    assert isinstance(spec, SweepSpec)
    assert spec.axis == "vehicles"
    assert spec.values == (1.0, 2.0, 4.0, 10.0)
    assert spec.seeds == REPLICATION_SEEDS[:3]
    assert spec.base_run.strategy == "VCCFirst"
    assert spec.base_cost is None


def test_sweep_spec_defaults_to_all_replication_seeds():
    spec = parse_sweep_spec(
        "strategy = VCCFirst\nsweep.axis = speed\nsweep.values = 13.1, 50, 100\n"
    )
    assert spec.seeds == REPLICATION_SEEDS


def test_sweep_capacity_fractions():
    spec = parse_sweep_spec(
        "strategy = VCCFirst\n"
        "sweep.axis = vehicle_capacity_fraction\n"
        "sweep.values = 1/128, 1/2, 1, 3\n"
    )
    assert spec.values == (1.0 / 128.0, 0.5, 1.0, 3.0)


def test_sweep_validation():
    with pytest.raises(ConfigError, match="sweep.axis"):
        parse_sweep_spec("strategy = ECFirst\nsweep.values = 1\n")
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_sweep_spec("strategy = ECFirst\nsweep.axis = users\n")
    with pytest.raises(ConfigError, match="integers"):
        parse_sweep_spec("strategy = ECFirst\nsweep.axis = users\nsweep.values = 1.5\n")
    with pytest.raises(ConfigError, match="seed-list"):
        parse_sweep_spec(
            "strategy = ECFirst\nsweep.axis = users\nsweep.values = 1\n"
            "sweep.replications = 10\n"
        )


def test_sweep_keys_rejected_outside_sweeps():
    with pytest.raises(ConfigError, match="sweep subcommand"):
        parse_run_config("strategy = ECFirst\nsweep.axis = users\n")
    with pytest.raises(ConfigError, match="sweep subcommand"):
        parse_cost_params("cost.beta = 0\nsweep.values = 1\n")


def test_beta_sweep_builds_cost_parameters():
    spec = parse_sweep_spec(
        "sweep.axis = beta\nsweep.values = 0, 1e-6\ncost.users = 50\n"
    )
    assert spec.base_run is None
    assert spec.base_cost.users == 50.0


def test_cost_params_parsing():
    p = parse_cost_params(
        "cost.c_ec_cpu = 800\ncost.beta = 1e-6\ncost.c_vcc_req = auto\n"
    )
    assert p == CostParams(c_ec_cpu=800.0, beta=1e-6)
    p = parse_cost_params("cost.c_vcc_req = 3e-5\n")
    assert p.c_vcc_req == 3e-5


def test_bonus_placement_flag():
    assert bonus_in_ec_requests("cost.beta = 0\n") is True
    assert bonus_in_ec_requests("cost.bonus_in_ec_requests = false\n") is False


def test_parse_config_dispatches_on_content():
    assert isinstance(parse_config("strategy = ECFirst\n"), RunConfig)
    assert isinstance(parse_config("cost.beta = 0\n"), CostParams)
    spec = parse_config("strategy = ECFirst\nsweep.axis = users\nsweep.values = 1\n")
    assert isinstance(spec, SweepSpec)
    with pytest.raises(ConfigError, match="cannot tell"):
        parse_config("# only comments\n")


def test_apply_axis_each_knob():
    base = RunConfig(strategy="VCCFirst")
    assert apply_axis(base, "users", 16, 3).n_users == 16
    assert apply_axis(base, "workload", 250.0, 3).workload_mi == 250.0
    assert apply_axis(base, "vehicles", 10, 3).n_vehicles == 10
    assert apply_axis(base, "vehicle_capacity_fraction", 0.5, 3).vehicle_capacity == 35560.0
    assert apply_axis(base, "speed", 50.0, 3).vehicle_speed == pytest.approx(50.0 * KMH)
    assert apply_axis(base, "users", 16, 3).seed == 3
    with pytest.raises(ValueError):
        apply_axis(base, "beta", 0.0, 3)


def test_run_config_round_trips_through_text():
    cfg = parse_run_config(
        "strategy = VCCFirst\n"
        "users = 5\n"
        "seed = 11\n"
        "scenario.preset = partial_coverage\n"
        "vehicles.speed_kmh = 50\n"
        "channel.vue_up.p_base = 0.002\n"
    )
    text = serialize_run_config(cfg)
    again = parse_run_config(text)
    assert again == cfg
    assert serialize_run_config(again) == text


def test_cost_params_round_trip_through_text():
    p = CostParams(c_ec_cpu=812.5, years=3.0, beta=1.5e-6)
    text = serialize_cost_params(p)
    assert parse_cost_params(text) == p
    auto = serialize_cost_params(CostParams())
    assert "c_vcc_req = auto" in auto
    assert parse_cost_params(auto) == CostParams()


def test_default_config_text_parses_as_run_and_cost():
    text = default_config_text()
    cfg = parse_run_config(text)
    assert cfg.strategy == "ECFirst"
    assert cfg == RunConfig(strategy="ECFirst")
    p = parse_cost_params(text)
    assert p == CostParams()


def test_parse_seed_list():
    assert parse_seed_list("0, 1, 2") == (0, 1, 2)
    assert parse_seed_list("7") == (7,)
    with pytest.raises(ConfigError):
        parse_seed_list("")
    with pytest.raises(ConfigError):
        parse_seed_list("1, x")


_KEYS = (
    config._RUN_KEYS
    + tuple(f"channel.{link}.{name}" for link in config._LINKS for name in config._LINK_FIELDS)
    + config._SWEEP_KEYS[:1]
    + config._COST_KEYS[:2]
)
_SMALL = st.sampled_from(("0", "1", "2", "3", "0.5", "1/4", "7", "40", "1e-3", "90", "-1"))
# Small numbers three times over, so that most values are ones their key accepts.
_VALUES = st.one_of(
    _SMALL,
    _SMALL,
    _SMALL,
    st.sampled_from(
        ("ECFirst", "VCCFirst", "partial_coverage", "total_coverage", "lena_calibrated", "unbounded", "none", "true")
    ),
    st.integers(-(2**40), 2**40).map(str),
    st.floats().map(repr),
    st.tuples(st.integers(-9, 9), st.integers(-2, 9)).map("{0[0]}/{0[1]}".format),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8),
)
_JUNK = st.one_of(st.sampled_from(("", "# note", "  = 1", "users")), st.text(max_size=12))
# A strategy and a short horizon up front, so that many texts parse and run.
_TEXTS = st.tuples(
    st.sampled_from(("strategy = VCCFirst", "strategy = ECFirst") * 3 + ("",)),
    st.sampled_from(("duration = 1", "duration = 1/8", "duration = 2") * 2 + ("",)),
    st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=5),
    st.one_of(st.just(()), st.just(()), st.lists(_JUNK, min_size=1, max_size=2)),
).map(lambda t: "\n".join((t[0], t[1], *(f"{k} = {v}" for k, v in t[2].items()), *t[3])))


def test_config_text_either_fails_to_parse_or_runs_to_the_end():
    """Arbitrary text from known keys, arbitrary values and junk lines: parsing
    raises ConfigError or gives a config whose run finishes. Runs are kept
    small (at most 2,000 arrivals, 200 vehicles and 10^5 beacons)."""
    outcomes = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=_TEXTS)
    def check(text):
        try:
            cfg = parse_run_config(text)
        except ConfigError:
            outcomes["rejected"] += 1
            return
        arrivals = cfg.n_users * math.ceil(cfg.duration * cfg.request_rate)
        beacons = cfg.n_vehicles * cfg.duration / cfg.beacon_period if cfg.strategy == "VCCFirst" else 0
        assume(arrivals <= 2000 and cfg.n_vehicles <= 200 and beacons <= 1e5)
        records = run(cfg)
        assert len(records) <= arrivals
        summarize(records)
        outcomes["ran"] += 1

    check()
    assert outcomes["ran"] >= 50 and outcomes["rejected"] >= 50, outcomes
