"""Config file parsing, presets, overrides, and the shipped defaults file."""

import contextlib
import csv
import io
import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import examples
from offloadsim import config
from offloadsim.cli import main
from offloadsim.channel import ChannelConfig, LinkParams, lena_calibrated
from offloadsim.config import (
    ConfigError,
    SweepSpec,
    apply_axis,
    parse_cost_params,
    parse_run_config,
    parse_seed_list,
    parse_sweep_spec,
)
from offloadsim.controller import VCC_FIRST
from offloadsim.costmodel import CostParams
from offloadsim.engine import KMH, REPLICATION_SEEDS, RunConfig, run, summarize
from offloadsim.scenario import ScenarioGeometry, partial_coverage, total_coverage

DEFAULTS = Path(config.__file__).with_name("data") / "defaults.cfg"  # the shipped, commented defaults file


def test_minimal_run_config_uses_defaults():
    cfg = parse_run_config("strategy = ECFirst\n")
    assert cfg == RunConfig(strategy="ECFirst")


@pytest.mark.parametrize(
    "valid, field, bad",
    [
        (LinkParams(0.002), "base_latency", -1.0),
        (total_coverage(), "coverage_radius", 0.0),
        (CostParams(), "years", math.nan),
        (LinkParams(0.002), "base_latency", math.nan),
        (total_coverage(), "loop_length_x", math.nan),
        (RunConfig(), "n_users", -1),
        (RunConfig(), "strategy", "Nearest"),
        (RunConfig(strategy=VCC_FIRST, n_vehicles=1, duration=1.0), "beacon_period", 1e-10),
        (RunConfig(strategy=VCC_FIRST, geometry=partial_coverage(), duration=3.0), "vehicle_speed", 1e308),
    ],
)
def test_checked_parameters_reject_a_bad_value_built_or_replaced(valid, field, bad):
    with pytest.raises(ValueError):
        type(valid)(**{**valid._asdict(), field: bad})
    with pytest.raises(ValueError):
        valid._replace(**{field: bad})


def _bs_position(i, value):
    return total_coverage()._replace(bs_position=tuple(value if j == i else x for j, x in enumerate((0.0, 0.0, 30.0))))


# config target -> (the value type that owns its fields, a construction with one field set to a value)
_OWNERS = {
    "run": (RunConfig, lambda field, value: RunConfig(**{field: value})),
    "km/h": (RunConfig, lambda field, value: RunConfig(**{field: value})),
    "geometry": (ScenarioGeometry, lambda field, value: total_coverage()._replace(**{field: value})),
    "cost": (CostParams, lambda field, value: CostParams(**{field: value})),
    "channel": (ChannelConfig, lambda field, value: lena_calibrated()._replace(**{field: value})),
    **{link: (LinkParams, lambda field, value: LinkParams(0.0)._replace(**{field: value})) for link in config._RADIO},
}


def _just_outside(kind, extra) -> list:
    if kind == "word":
        return ["bogus"]
    if kind == "int":
        return [-1, extra[0] + 1] if extra else [-1]
    tiny = -5e-324  # the negative number nearest zero
    outside = {"positive": [0.0, tiny], "nonnegative": [tiny], "probability": [tiny, math.nextafter(1.0, 2.0)]}
    return outside.get(kind, [])


_OWNED_KEYS = [key for key, (target, _) in config._KEYS.items() if target not in ("preset", "sweep")]


@pytest.mark.parametrize("key", _OWNED_KEYS)
def test_every_numeric_key_has_the_bound_of_its_field(key):
    """Each key of a value type's field, a number or a word, is bound by its
    owner's kind: a value just outside it (a word not in a word kind), or nan,
    fails in a config naming the line and key, and in the owner naming the field."""
    target, field = config._KEYS[key]
    if target == "bs":
        kind, name, build = ScenarioGeometry.KINDS["bs_position"][field], rf"bs_position\[{field}\]", _bs_position
    else:
        owner, build = _OWNERS[target]
        kind, name = owner.KINDS[field], field
    kind, *extra = (kind,) if isinstance(kind, str) else kind
    must = "must be one of" if kind == "word" else "must be"
    for value in _just_outside(kind, extra) + [math.nan]:
        said = "expects an integer" if kind == "int" and math.isnan(value) else must
        with pytest.raises(ConfigError, match=rf"^line 1: {re.escape(key)} {said}"):
            parse_run_config(f"{key} = {value}\nstrategy = ECFirst\n")
        with pytest.raises(ValueError, match=rf"^{name} {must}"):
            build(field, value)


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
    in_range = r"must be an integer in \[0, 1000000\]"
    with pytest.raises(ConfigError, match=rf"line 2: vehicles.count {in_range}, got '1000000000'"):
        parse_run_config("strategy = ECFirst\nvehicles.count = 1000000000\n")
    assert parse_run_config("strategy = ECFirst\nvehicles.count = 1000000\n").n_vehicles == 10**6
    with pytest.raises(ConfigError, match=rf"line 3: sweep.values 1000001.0: n_vehicles {in_range}"):
        parse_sweep_spec("strategy = VCCFirst\nsweep.axis = vehicles\nsweep.values = 40, 1000001\n")


def test_beacon_periods_too_short_for_the_horizon_are_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="beacons"):
        parse_run_config("strategy = VCCFirst\ncontroller.beacon_period = 1e-300\n")


# key whose kind accepts one more value -> (that value, where a run config holds it)
_UNBOUNDED = {
    "scenario.coverage_radius": (math.inf, lambda cfg: cfg.geometry.coverage_radius),
    **{f"channel.{link}.rate": (None, lambda cfg, link=link: getattr(cfg.channel, link).rate)
       for link in ("pue_up", "pue_down", "vue_up", "vue_down")},
}


def test_unbounded_still_spells_infinity():
    """Only the word ``unbounded`` spells the one more value: ``inf`` and
    numbers that overflow to it fail, naming the line."""
    for key, (value, held) in _UNBOUNDED.items():
        assert held(parse_run_config(f"strategy = ECFirst\n{key} = unbounded\n")) == value, key
        for raw in ("inf", "-inf", "1e309"):
            with pytest.raises(ConfigError, match=rf"^line 2: {re.escape(key)} must be finite, got '{raw}'$"):
                parse_run_config(f"strategy = ECFirst\n{key} = {raw}\n")


def test_a_run_config_is_checked_on_its_final_geometry():
    # the preset's bounded cell would overflow the fleet's positions; the unbounded cell set over it reads none
    text = "strategy = VCCFirst\nscenario.preset = partial_coverage\nvehicles.speed_kmh = 1e308\nduration = 7\n"
    with pytest.raises(ConfigError, match="^line 4: vehicle positions overflow"):
        parse_run_config(text)
    assert math.isinf(parse_run_config(text + "scenario.coverage_radius = unbounded\n").geometry.coverage_radius)


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
        "channel.vue_down.rate = unbounded\n"
        "channel.cn_up.base_latency = 0.01\n"
    )
    assert cfg.channel.pue_up.base_latency == 0.004
    assert cfg.channel.pue_up.rate == 50e6
    assert cfg.channel.vue_up.p_base == 0.01
    assert cfg.channel.vue_down.rate is None
    assert cfg.channel.cn_up == 0.01
    # untouched links keep the preset
    for link in ("pue_down", "cn_down", "internet_up", "internet_down"):
        assert getattr(cfg.channel, link) == getattr(lena_calibrated(), link)


def test_wired_loss_override_is_rejected():
    # a wired leg is one latency: it has no loss key
    with pytest.raises(ConfigError, match="^line 2: unknown key 'channel.cn_up.p_base'$"):
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
    with pytest.raises(ConfigError, match="line 4: .*seed-list"):
        parse_sweep_spec(
            "strategy = ECFirst\nsweep.axis = users\nsweep.values = 1\n"
            "sweep.replications = 10\n"
        )
    with pytest.raises(ConfigError, match="line 4: sweep.replications must be at least 1"):
        parse_sweep_spec(
            "strategy = ECFirst\nsweep.axis = users\nsweep.values = 1\n"
            "sweep.replications = 0\n"
        )
    # a point outside its field's kind fails that field's check, naming the values line
    for axis, value, field in [
        ("users", "-1", "n_users"),
        ("workload", "-1", "workload_mi"),
        ("vehicle_capacity_fraction", "0", "vehicle_capacity"),
        ("speed", "-1", "vehicle_speed"),
    ]:
        with pytest.raises(ConfigError, match=f"line 3: sweep.values {float(value)!r}: {field} must be"):
            parse_sweep_spec(f"strategy = ECFirst\nsweep.axis = {axis}\nsweep.values = 1, {value}\n")


def test_duplicate_sweep_values_are_rejected_naming_the_line():
    with pytest.raises(ConfigError, match="line 3: sweep.values lists 10.0 more than once"):
        parse_sweep_spec("strategy = VCCFirst\nsweep.axis = speed\nsweep.values = 10, 10\n")
    with pytest.raises(ConfigError, match="line 2: sweep.values lists 0.5 more than once"):
        parse_sweep_spec("sweep.axis = workload\nsweep.values = 1/2, 1, 0.5\n")


def test_sweep_keys_rejected_outside_sweeps():
    with pytest.raises(ConfigError, match="sweep subcommand"):
        parse_run_config("strategy = ECFirst\nsweep.axis = users\n")
    with pytest.raises(ConfigError, match="sweep subcommand"):
        parse_cost_params("cost.users = 50\nsweep.values = 1\n")


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_run_config, "strategy = ECFirst\ncost.users = banana\n", "line 2: cost.users"),
        (parse_cost_params, "cost.users = 50\nusers = banana\n", "line 2: users"),
        (parse_cost_params, "scenario.bs_z = 0\n", "line 1: scenario.bs_z must be positive"),
        (
            parse_sweep_spec,
            "sweep.axis = speed\nsweep.values = 50\nstrategy = ECFirst\ncost.users = banana\n",
            "line 4: cost.users",
        ),
    ],
)
def test_every_value_is_checked_whatever_the_subcommand(parse, text, where):
    with pytest.raises(ConfigError, match=where):
        parse(text)


def test_cost_params_parsing():
    p = parse_cost_params("cost.c_ec_cpu = 800\ncost.users = 50\n")
    assert p == CostParams(c_ec_cpu=800.0, users=50.0)


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


def test_default_config_text_parses_as_run_and_cost():
    text = DEFAULTS.read_text(encoding="utf-8")
    cfg = parse_run_config(text)
    assert cfg.strategy == "ECFirst"
    assert cfg == RunConfig(strategy="ECFirst")
    p = parse_cost_params(text)
    assert p == CostParams()


def test_the_defaults_file_sets_or_shows_every_key():
    text = DEFAULTS.read_text(encoding="utf-8")
    for key in config._KEYS:
        if not key.startswith("channel."):  # the channel keys are listed by link kind
            assert re.search(rf"^#? *{re.escape(key)} *=", text, re.M), key


def test_parse_seed_list():
    assert parse_seed_list("0, 1, 2") == (0, 1, 2)
    assert parse_seed_list("7") == (7,)
    with pytest.raises(ConfigError):
        parse_seed_list("")
    with pytest.raises(ConfigError):
        parse_seed_list("1, x")


def test_minus_zero_values_read_as_zero(tmp_path):
    """"-0" parses as 0.0, so no leg of a run holds -0.0 and no CSV cell reads "-0.0"."""
    text = "strategy = ECFirst\nduration = 1\nchannel.cn_up.base_latency = -0\ntask.workload_mi = -0\n"
    cfg = parse_run_config(text)
    assert math.copysign(1.0, cfg.channel.cn_up) == 1.0
    assert math.copysign(1.0, cfg.workload_mi) == 1.0
    path, agg, rec = tmp_path / "zero.cfg", tmp_path / "agg.csv", tmp_path / "rec.csv"
    path.write_text(text)
    assert main(["run", str(path), "-o", str(agg), "--records", str(rec)]) == 0
    rows = list(csv.DictReader(rec.open()))
    assert rows and {row["t_up_cn"] for row in rows} == {row["t_elab"] for row in rows} == {"0.0"}


def test_negative_seeds_are_rejected():
    # random.Random(-5) seeds the same stream as random.Random(5)
    with pytest.raises(ConfigError, match="line 2: seed must be a nonnegative integer, got '-5'"):
        parse_run_config("strategy = ECFirst\nseed = -5\n")
    assert parse_run_config("strategy = ECFirst\nseed = 0\n").seed == 0
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_seed_list("1,-5")


_KEYS = tuple(config._KEYS)
_SMALL = ("0", "1", "2", "3", "0.5", "1/4", "7", "40", "1e-3", "90", "-1")
# Small numbers three times over, so that most values are ones their key accepts
# (three strategies: ``one_of`` draws a strategy it is given more than once as one).
_VALUES = st.one_of(
    *(st.sampled_from(_SMALL) for _ in range(3)),
    st.sampled_from(
        ("ECFirst", "VCCFirst", "partial_coverage", "total_coverage", "lena_calibrated", "unbounded", "none",
         "processor_sharing", "true")
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

    @settings(max_examples=examples(400), deadline=None, derandomize=True)
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


# Keys that no output read, or that set a value a flag or another key sets,
# each with a value it once accepted.
_DELETED = {
    **{
        f"channel.{link}.{field}": value
        for link in ("cn_up", "cn_down", "internet_up", "internet_down")
        for field, value in (("rate", "unbounded"), ("p_base", "0"), ("k_speed", "0"), ("sharing", "none"))
    },
    "channel.pue_up.k_speed": "5e-4",
    "channel.pue_down.k_speed": "5e-4",
    "cost.c_vcc_req": "auto",
    "cost.beta": "1e-6",
    "channel.preset": "lena_calibrated",
    "vehicles.speed_mps": "3.638888888888889",
    "cost.years": "1.0",
    "cost.bonus_in_ec_requests": "true",
}


@pytest.mark.parametrize("key", _DELETED)
def test_a_deleted_key_exits_1_naming_its_line(tmp_path, capsys, key):
    command = "cost" if key.startswith("cost.") else "run"
    cfg = tmp_path / "input.cfg"
    cfg.write_text(f"strategy = ECFirst\nduration = 1\n{key} = {_DELETED[key]}\n")
    assert main([command, str(cfg), "-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"offloadsim: line 3: unknown key {key!r}\n"
    assert not (tmp_path / "out.csv").exists()


def test_the_beta_axis_exits_1_naming_its_line(tmp_path, capsys):
    # a table over the bonus is `offloadsim cost CONFIG --betas V1,V2 --scales 1`
    cfg, out = tmp_path / "input.cfg", tmp_path / "out.csv"
    cfg.write_text("strategy = ECFirst\nsweep.axis = beta\nsweep.values = 0, 1e-6\n")
    assert main(["sweep", str(cfg), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"offloadsim: line 2: sweep.axis must be one of {', '.join(sorted(config.SWEEP_AXES))}, got 'beta'\n"
    )
    assert not out.exists()


# Small calls that together reach the cloud, the edge and vehicles: a run of
# each strategy on a partially covered loop, with payloads large enough that
# transfers share every radio link, the cost table and a sweep.
_RUN = {"users": "6", "duration": "2", "vehicles.count": "12", "scenario.preset": "partial_coverage",
        "task.size_bytes": "400000", "task.result_bytes": "400000", "compute.edge_max_queue": "3",
        "compute.edge_mips": "5000"}
_PROBES = {
    "ECFirst": ("run", {"strategy": "ECFirst", **_RUN}),
    "VCCFirst": ("run", {"strategy": "VCCFirst", **_RUN}),
    "cost": ("cost", {}),
    "speed sweep": ("sweep", {"strategy": "VCCFirst", **_RUN, "duration": "1", "sweep.axis": "speed",
                              "sweep.values": "13.1, 50", "sweep.replications": "1"}),
}
# key -> a value other than its default (or, with no default, than its probe's)
_CHANGED = {
    "strategy": "VCCFirst", "users": "5", "request_rate": "4", "duration": "1.5", "seed": "1",
    "task.workload_mi": "900", "task.size_bytes": "1000", "task.result_bytes": "1000",
    "scenario.preset": "total_coverage", "scenario.length_x": "700", "scenario.width_y": "300",
    "scenario.bs_x": "100", "scenario.bs_y": "200", "scenario.bs_z": "300", "scenario.coverage_radius": "200",
    "scenario.ue_height": "300", "vehicles.count": "3", "vehicles.speed_kmh": "90",
    "vehicles.capacity_mips": "5000", "compute.cloud_mips": "1000", "compute.edge_mips": "20000",
    "compute.edge_max_queue": "0", "controller.beacon_period": "0.3", "controller.timeout": "0.05",
    **{f"channel.{link}.{field}": value
       for link in ("pue_up", "pue_down", "vue_up", "vue_down")
       for field, value in (("base_latency", "0.02"), ("rate", "unbounded"), ("p_base", "0.3"),
                            ("k_speed", "0.05"), ("sharing", "none"))},
    **{f"channel.{link}.base_latency": "0.1" for link in ("cn_up", "cn_down", "internet_up", "internet_down")},
    "sweep.axis": "workload", "sweep.values": "13.1, 90", "sweep.replications": "2",
    "cost.c_ec_cpu": "900", "cost.cpu_lifetime_years": "0.5", "cost.c_ec_main": "1000",
    "cost.c_ec_req": "3e-5", "cost.requests_per_user": "2", "cost.users": "50", "cost.alpha_seconds": "1e7",
    "cost.capex_overhead": "2",
}
_OUTPUTS: dict = {}


def _output(probe: str, lines: dict, tmp: Path) -> bytes:
    """The bytes one probe's call writes for the config ``lines``."""
    command, _ = _PROBES[probe]
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    if (probe, text) not in _OUTPUTS:
        (tmp / "input.cfg").write_text(text)
        out, records = tmp / "out.csv", tmp / "records.csv"
        argv = [command, str(tmp / "input.cfg"), "-o", str(out)] + (["--records", str(records)] * (command == "run"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, text
        _OUTPUTS[probe, text] = out.read_bytes() + (records.read_bytes() if command == "run" else b"")
    return _OUTPUTS[probe, text]


@pytest.mark.parametrize("key", config._KEYS)
def test_every_key_changes_an_output(tmp_path, key):
    """Each key, set to a value other than its default, changes the bytes of
    some call that reads it."""
    target = config._KEYS[key][0]
    readers = {"cost": ("cost",), "sweep": ("speed sweep",)}.get(
        target, ("ECFirst", "VCCFirst")
    )
    base = {probe: _PROBES[probe][1] for probe in readers}
    assert any(
        _output(probe, {**lines, key: _CHANGED[key]}, tmp_path) != _output(probe, lines, tmp_path)
        for probe, lines in base.items()
    ), f"{key} = {_CHANGED[key]} changes no output"
