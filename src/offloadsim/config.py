"""Line-oriented configuration files: ``key = value`` with ``#`` comments.

Keys are dotted into sections (``scenario.length_x``). Every key any
subcommand understands validates anywhere, unknown keys are errors naming the
line, and each builder consumes its own subset: run configs need ``strategy``,
sweep specs additionally need ``sweep.axis`` and ``sweep.values``, cost
parameters live under ``cost.``. Numeric values accept fractions like
``1/128``. Presets fill a block of defaults and explicit keys override them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

from .channel import ChannelConfig, LinkClass, LinkParams, NO_SHARING, PROCESSOR_SHARING
from .channel import lena_calibrated
from .controller import STRATEGIES
from .costmodel import CostParams
from .engine import KMH, MAX_VEHICLES, REPLICATION_SEEDS, RunConfig
from .scenario import ScenarioGeometry, partial_coverage, total_coverage

SWEEP_AXES = (
    "users",
    "workload",
    "vehicles",
    "vehicle_capacity_fraction",
    "speed",
    "beta",
)

SCENARIO_PRESETS = {
    "total_coverage": total_coverage,
    "partial_coverage": partial_coverage,
}

CHANNEL_PRESETS = {
    "lena_calibrated": lena_calibrated,
}


class ConfigError(ValueError):
    """Invalid configuration text; the message names the key and line."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which knob to turn, its values, and the replication seeds."""

    axis: str
    values: tuple[float, ...]
    seeds: tuple[int, ...]
    base_run: RunConfig | None = None
    base_cost: CostParams | None = None


_LINKS = {lc.value: lc for lc in LinkClass}
_LINK_FIELDS = ("base_latency", "rate", "p_base", "k_speed", "sharing")

_RUN_KEYS = (
    "strategy",
    "users",
    "request_rate",
    "duration",
    "seed",
    "task.workload_mi",
    "task.size_bytes",
    "task.result_bytes",
    "scenario.preset",
    "scenario.length_x",
    "scenario.width_y",
    "scenario.bs_x",
    "scenario.bs_y",
    "scenario.bs_z",
    "scenario.coverage_radius",
    "scenario.ue_height",
    "vehicles.count",
    "vehicles.speed_kmh",
    "vehicles.speed_mps",
    "vehicles.capacity_mips",
    "compute.cloud_mips",
    "compute.edge_mips",
    "compute.edge_max_queue",
    "controller.beacon_period",
    "controller.timeout",
    "channel.preset",
)

_SWEEP_KEYS = ("sweep.axis", "sweep.values", "sweep.replications")

_COST_KEYS = (
    "cost.c_ec_cpu",
    "cost.cpu_lifetime_years",
    "cost.years",
    "cost.c_ec_main",
    "cost.c_ec_req",
    "cost.c_vcc_req",
    "cost.beta",
    "cost.requests_per_user",
    "cost.users",
    "cost.alpha_seconds",
    "cost.capex_overhead",
    "cost.bonus_in_ec_requests",
)


def _known(key: str) -> bool:
    if key in _RUN_KEYS or key in _SWEEP_KEYS or key in _COST_KEYS:
        return True
    parts = key.split(".")
    return (
        len(parts) == 3
        and parts[0] == "channel"
        and parts[1] in _LINKS
        and parts[2] in _LINK_FIELDS
    )


def _scan(text: str) -> dict[str, tuple[str, int]]:
    """Key -> (raw value, line number); duplicates and unknown keys are errors."""
    entries: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if not _known(key):
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in entries:
            first = entries[key][1]
            raise ConfigError(f"line {line_no}: duplicate key {key!r} (first set on line {first})")
        entries[key] = (raw, line_no)
    return entries


def _float(key: str, raw: str, line: int | None = None) -> float:
    """A finite number or fraction ``a/b``; ``line`` is omitted for flags."""
    where = f"line {line}: " if line is not None else ""
    try:
        num, _, den = raw.partition("/")
        value = float(num) / float(den) if den else float(raw)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{where}{key} expects a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}{key} must be finite, got {raw!r}")
    return value


def _int(key: str, raw: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line}: {key} expects an integer, got {raw!r}") from None


def _bool(key: str, raw: str, line: int) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    raise ConfigError(f"line {line}: {key} expects true or false, got {raw!r}")


def _positive(key: str, value: float, line: int) -> float:
    if value <= 0.0:
        raise ConfigError(f"line {line}: {key} must be positive, got {value!r}")
    return value


def _nonnegative(key: str, value: float, line: int) -> float:
    if value < 0.0:
        raise ConfigError(f"line {line}: {key} must be nonnegative, got {value!r}")
    return value


class _Reader:
    """Typed access to scanned entries, tracking which keys were consumed."""

    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries
        self.used: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str) -> tuple[str, int]:
        self.used.add(key)
        return self.entries[key]

    def str_choice(self, key: str, choices, default: str | None) -> str | None:
        if key not in self.entries:
            return default
        raw, line = self.raw(key)
        if raw not in choices:
            allowed = ", ".join(sorted(choices))
            raise ConfigError(f"line {line}: {key} must be one of {allowed}, got {raw!r}")
        return raw

    def float_pos(self, key: str, default: float) -> float:
        if key not in self.entries:
            return default
        raw, line = self.raw(key)
        return _positive(key, _float(key, raw, line), line)

    def float_nonneg(self, key: str, default: float) -> float:
        if key not in self.entries:
            return default
        raw, line = self.raw(key)
        return _nonnegative(key, _float(key, raw, line), line)

    def float_any(self, key: str, default: float) -> float:
        if key not in self.entries:
            return default
        raw, line = self.raw(key)
        return _float(key, raw, line)

    def int_nonneg(self, key: str, default: int, maximum: int | None = None) -> int:
        if key not in self.entries:
            return default
        raw, line = self.raw(key)
        value = _int(key, raw, line)
        if value < 0:
            raise ConfigError(f"line {line}: {key} must be nonnegative, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"line {line}: {key} must not exceed {maximum}, got {value}")
        return value

    def boolean(self, key: str, default: bool) -> bool:
        if key not in self.entries:
            return default
        raw, line = self.raw(key)
        return _bool(key, raw, line)


def _build_geometry(r: _Reader) -> ScenarioGeometry:
    preset = r.str_choice("scenario.preset", SCENARIO_PRESETS, "total_coverage")
    base = SCENARIO_PRESETS[preset]()
    length = r.float_pos("scenario.length_x", base.loop_length_x)
    width = r.float_pos("scenario.width_y", base.loop_width_y)
    bs = (
        r.float_any("scenario.bs_x", base.bs_position[0]),
        r.float_any("scenario.bs_y", base.bs_position[1]),
        r.float_any("scenario.bs_z", base.bs_position[2]),
    )
    radius = base.coverage_radius
    if r.has("scenario.coverage_radius"):
        raw, line = r.raw("scenario.coverage_radius")
        if raw == "unbounded":
            radius = math.inf
        else:
            radius = _positive("scenario.coverage_radius", _float("scenario.coverage_radius", raw, line), line)
    height = r.float_nonneg("scenario.ue_height", base.ue_height)
    try:
        return ScenarioGeometry(length, width, bs, radius, height)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def _build_channel(r: _Reader) -> ChannelConfig:
    preset = r.str_choice("channel.preset", CHANNEL_PRESETS, "lena_calibrated")
    cfg = CHANNEL_PRESETS[preset]()
    links = dict(cfg.links)
    for name, link in _LINKS.items():
        params = links[link]
        kwargs = {}
        key = f"channel.{name}.base_latency"
        if r.has(key):
            raw, line = r.raw(key)
            kwargs["base_latency"] = _nonnegative(key, _float(key, raw, line), line)
        key = f"channel.{name}.rate"
        if r.has(key):
            raw, line = r.raw(key)
            kwargs["rate"] = None if raw == "unbounded" else _positive(key, _float(key, raw, line), line)
        key = f"channel.{name}.p_base"
        if r.has(key):
            raw, line = r.raw(key)
            value = _float(key, raw, line)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"line {line}: {key} must lie in [0, 1], got {value!r}")
            kwargs["p_base"] = value
        key = f"channel.{name}.k_speed"
        if r.has(key):
            raw, line = r.raw(key)
            kwargs["k_speed"] = _nonnegative(key, _float(key, raw, line), line)
        key = f"channel.{name}.sharing"
        if r.has(key):
            kwargs["sharing"] = r.str_choice(key, (PROCESSOR_SHARING, NO_SHARING), None)
        if kwargs:
            links[link] = replace(params, **kwargs)
    try:
        return ChannelConfig(links)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from None


def _build_run(r: _Reader, require_strategy: bool = True) -> RunConfig:
    strategy = r.str_choice("strategy", STRATEGIES, None)
    if strategy is None:
        if require_strategy:
            raise ConfigError("missing mandatory key 'strategy'")
        strategy = RunConfig.strategy  # class default

    if r.has("vehicles.speed_kmh") and r.has("vehicles.speed_mps"):
        _, line = r.raw("vehicles.speed_mps")
        raise ConfigError(f"line {line}: set vehicles.speed_kmh or vehicles.speed_mps, not both")
    if r.has("vehicles.speed_mps"):
        speed = r.float_nonneg("vehicles.speed_mps", 0.0)
    else:
        speed = r.float_nonneg("vehicles.speed_kmh", 13.1) * KMH

    cfg = RunConfig(
        strategy=strategy,
        n_users=r.int_nonneg("users", 8),
        request_rate=r.float_pos("request_rate", 5.0),
        duration=r.float_pos("duration", 120.0),
        seed=r.int_nonneg("seed", 0),
        workload_mi=r.float_nonneg("task.workload_mi", 500.0),
        task_size_bytes=r.float_nonneg("task.size_bytes", 4000.0),
        result_size_bytes=r.float_nonneg("task.result_bytes", 4000.0),
        geometry=_build_geometry(r),
        n_vehicles=r.int_nonneg("vehicles.count", 40, MAX_VEHICLES),
        vehicle_speed=speed,
        vehicle_capacity=r.float_pos("vehicles.capacity_mips", 71120.0),
        channel=_build_channel(r),
        cloud_mips=r.float_pos("compute.cloud_mips", 2356230.0),
        edge_mips=r.float_pos("compute.edge_mips", 749070.0),
        edge_max_queue=r.int_nonneg("compute.edge_max_queue", 100),
        beacon_period=r.float_pos("controller.beacon_period", 0.1),
        registry_timeout=r.float_pos("controller.timeout", 0.5),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _build_cost(r: _Reader) -> CostParams:
    c_vcc_req = None
    if r.has("cost.c_vcc_req"):
        raw, line = r.raw("cost.c_vcc_req")
        if raw != "auto":
            c_vcc_req = _nonnegative("cost.c_vcc_req", _float("cost.c_vcc_req", raw, line), line)
    try:
        return CostParams(
            c_ec_cpu=r.float_nonneg("cost.c_ec_cpu", 700.0),
            l_ec_cpu=r.float_pos("cost.cpu_lifetime_years", 3.0),
            years=r.float_pos("cost.years", 1.0),
            c_ec_main=r.float_nonneg("cost.c_ec_main", 1368.46),
            c_ec_req=r.float_nonneg("cost.c_ec_req", 2e-5),
            c_vcc_req=c_vcc_req,
            request_rate=r.float_pos("cost.requests_per_user", 5.0),
            users=r.float_pos("cost.users", 100.0),
            alpha=r.float_pos("cost.alpha_seconds", 19_710_000.0),
            beta=r.float_nonneg("cost.beta", 0.0),
            capex_overhead=r.float_pos("cost.capex_overhead", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"cost: {exc}") from None


def bonus_in_ec_requests(text: str) -> bool:
    """The breakdown-table flag, readable from any config file (default on)."""
    return _Reader(_scan(text)).boolean("cost.bonus_in_ec_requests", True)


def _reject_sweep_keys(entries: dict[str, tuple[str, int]], context: str) -> None:
    for key in _SWEEP_KEYS:
        if key in entries:
            line = entries[key][1]
            raise ConfigError(f"line {line}: {key} only applies to the sweep subcommand, not {context}")


def parse_run_config(text: str) -> RunConfig:
    entries = _scan(text)
    _reject_sweep_keys(entries, "run")
    return _build_run(_Reader(entries))


def parse_cost_params(text: str) -> CostParams:
    entries = _scan(text)
    _reject_sweep_keys(entries, "cost")
    return _build_cost(_Reader(entries))


def parse_sweep_spec(text: str) -> SweepSpec:
    entries = _scan(text)
    r = _Reader(entries)
    axis = r.str_choice("sweep.axis", SWEEP_AXES, None)
    if axis is None:
        raise ConfigError("missing mandatory key 'sweep.axis'")
    if "sweep.values" not in entries:
        raise ConfigError("missing mandatory key 'sweep.values'")
    raw, line = r.raw("sweep.values")
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"line {line}: sweep.values must list at least one value")
    values = tuple(_float("sweep.values", p, line) for p in parts)
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"line {line}: sweep.values lists {v!r} more than once")
        if v < 0.0:
            raise ConfigError(f"line {line}: sweep.values must be nonnegative, got {v!r}")
        if axis in ("users", "vehicles") and v != int(v):
            raise ConfigError(f"line {line}: sweep.values for {axis} must be integers, got {v!r}")
        if axis == "vehicle_capacity_fraction" and v <= 0.0:
            raise ConfigError(f"line {line}: capacity fractions must be positive, got {v!r}")

    replications = r.int_nonneg("sweep.replications", len(REPLICATION_SEEDS))
    if replications < 1:
        raise ConfigError("sweep.replications must be at least 1")
    if replications > len(REPLICATION_SEEDS):
        raise ConfigError(
            f"sweep.replications beyond {len(REPLICATION_SEEDS)} needs an explicit --seed-list"
        )
    seeds = tuple(REPLICATION_SEEDS[:replications])

    if axis == "beta":
        return SweepSpec(axis, values, seeds, base_run=None, base_cost=_build_cost(r))
    base = _build_run(r)
    for v in values:  # every point must be a valid run before any is simulated
        try:
            apply_axis(base, axis, v, seeds[0]).validate()
        except ValueError as exc:
            raise ConfigError(f"line {line}: sweep.values {v!r}: {exc}") from None
    return SweepSpec(axis, values, seeds, base_run=base, base_cost=None)


def parse_config(text: str):
    """Dispatch on content: sweep spec, run config, or cost parameters."""
    entries = _scan(text)
    if any(key in entries for key in _SWEEP_KEYS):
        return parse_sweep_spec(text)
    if "strategy" in entries:
        return parse_run_config(text)
    if any(key in entries for key in _COST_KEYS):
        return parse_cost_params(text)
    raise ConfigError(
        "cannot tell what this file configures: set strategy, sweep.axis, or cost.* keys"
    )


def apply_axis(base: RunConfig, axis: str, value: float, seed: int) -> RunConfig:
    """One sweep point: the base run with one knob turned and the seed set."""
    if axis == "users":
        return replace(base, n_users=int(value), seed=seed)
    if axis == "workload":
        return replace(base, workload_mi=value, seed=seed)
    if axis == "vehicles":
        return replace(base, n_vehicles=int(value), seed=seed)
    if axis == "vehicle_capacity_fraction":
        return replace(base, vehicle_capacity=base.vehicle_capacity * value, seed=seed)
    if axis == "speed":
        return replace(base, vehicle_speed=value * KMH, seed=seed)
    raise ValueError(f"axis {axis!r} does not drive simulation runs")


def _fmt(value: float) -> str:
    return repr(float(value))


def serialize_run_config(cfg: RunConfig) -> str:
    """Full explicit text form; parsing it back yields an equal RunConfig."""
    geom = cfg.geometry
    radius = "unbounded" if math.isinf(geom.coverage_radius) else _fmt(geom.coverage_radius)
    lines = [
        f"strategy = {cfg.strategy}",
        f"users = {cfg.n_users}",
        f"request_rate = {_fmt(cfg.request_rate)}",
        f"duration = {_fmt(cfg.duration)}",
        f"seed = {cfg.seed}",
        f"task.workload_mi = {_fmt(cfg.workload_mi)}",
        f"task.size_bytes = {_fmt(cfg.task_size_bytes)}",
        f"task.result_bytes = {_fmt(cfg.result_size_bytes)}",
        f"scenario.length_x = {_fmt(geom.loop_length_x)}",
        f"scenario.width_y = {_fmt(geom.loop_width_y)}",
        f"scenario.bs_x = {_fmt(geom.bs_position[0])}",
        f"scenario.bs_y = {_fmt(geom.bs_position[1])}",
        f"scenario.bs_z = {_fmt(geom.bs_position[2])}",
        f"scenario.coverage_radius = {radius}",
        f"scenario.ue_height = {_fmt(geom.ue_height)}",
        f"vehicles.count = {cfg.n_vehicles}",
        f"vehicles.speed_mps = {_fmt(cfg.vehicle_speed)}",
        f"vehicles.capacity_mips = {_fmt(cfg.vehicle_capacity)}",
        f"compute.cloud_mips = {_fmt(cfg.cloud_mips)}",
        f"compute.edge_mips = {_fmt(cfg.edge_mips)}",
        f"compute.edge_max_queue = {cfg.edge_max_queue}",
        f"controller.beacon_period = {_fmt(cfg.beacon_period)}",
        f"controller.timeout = {_fmt(cfg.registry_timeout)}",
    ]
    for name, link in _LINKS.items():
        p = cfg.channel.links[link]
        rate = "unbounded" if p.rate is None else _fmt(p.rate)
        lines.append(f"channel.{name}.base_latency = {_fmt(p.base_latency)}")
        lines.append(f"channel.{name}.rate = {rate}")
        lines.append(f"channel.{name}.p_base = {_fmt(p.p_base)}")
        lines.append(f"channel.{name}.k_speed = {_fmt(p.k_speed)}")
        lines.append(f"channel.{name}.sharing = {p.sharing}")
    return "\n".join(lines) + "\n"


def serialize_cost_params(p: CostParams) -> str:
    """Full explicit text form; parsing it back yields equal CostParams."""
    vcc = "auto" if p.c_vcc_req is None else _fmt(p.c_vcc_req)
    lines = [
        f"cost.c_ec_cpu = {_fmt(p.c_ec_cpu)}",
        f"cost.cpu_lifetime_years = {_fmt(p.l_ec_cpu)}",
        f"cost.years = {_fmt(p.years)}",
        f"cost.c_ec_main = {_fmt(p.c_ec_main)}",
        f"cost.c_ec_req = {_fmt(p.c_ec_req)}",
        f"cost.c_vcc_req = {vcc}",
        f"cost.beta = {_fmt(p.beta)}",
        f"cost.requests_per_user = {_fmt(p.request_rate)}",
        f"cost.users = {_fmt(p.users)}",
        f"cost.alpha_seconds = {_fmt(p.alpha)}",
        f"cost.capex_overhead = {_fmt(p.capex_overhead)}",
    ]
    return "\n".join(lines) + "\n"


def default_config_text() -> str:
    """The shipped, commented defaults file."""
    return resources.files("offloadsim").joinpath("data/defaults.cfg").read_text()


def parse_seed_list(raw: str) -> tuple[int, ...]:
    """Parse a comma-separated seed list, e.g. from --seed-list."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("seed list must contain at least one integer")
    try:
        seeds = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"seed list must be comma-separated integers, got {raw!r}") from None
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {raw!r}")
    return seeds
