"""Line-oriented configuration files: ``key = value`` with ``#`` comments.

Keys are dotted into sections (``scenario.length_x``). The table ``_KEYS``
gives each key its field and value kind, so every value is parsed and
bound-checked as its line is read, whatever subcommand reads the file; unknown
keys, duplicates and bad values are errors naming the line. Each builder takes
its own subset: run configs need ``strategy``, sweep specs also ``sweep.axis``
and ``sweep.values``, cost parameters live under ``cost.``, and a ``beta``
sweep reads ``cost.bonus_in_ec_requests`` as ``offloadsim cost`` does. Numbers
accept fractions like ``1/128``. Defaults are the dataclass fields; presets
fill a block of them and explicit keys override them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

from .channel import ChannelConfig, LinkClass, NO_SHARING, PROCESSOR_SHARING, lena_calibrated
from .controller import STRATEGIES
from .costmodel import BONUS_IN_EC_REQUESTS, CostParams
from .engine import KMH, MAX_VEHICLES, REPLICATION_SEEDS, RunConfig
from .scenario import partial_coverage, total_coverage

SWEEP_AXES = ("users", "workload", "vehicles", "vehicle_capacity_fraction", "speed", "beta")
SCENARIO_PRESETS = {"total_coverage": total_coverage, "partial_coverage": partial_coverage}
CHANNEL_PRESETS = {"lena_calibrated": lena_calibrated}


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
_BOOLS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}

# key -> (target, field, kind, extra). Targets: "run" (RunConfig), "geometry"
# (ScenarioGeometry), "bs" (an index into its bs_position), a link name (its
# LinkParams), "cost" (CostParams), "sweep", "preset" (a RunConfig field a
# preset factory fills), "km/h" (a RunConfig speed in km/h) and "flag". Kinds:
# "int" is a nonnegative integer, ``extra`` its maximum or None; "positive",
# "nonnegative", "any" and "probability" are finite floats, ``extra`` a (word,
# value) sentinel or None; "word" is a word in ``extra``, mapped if a dict;
# "bool" is true or false; "list" holds comma-separated finite floats. The
# serialisers write keys in this order.
_KEYS = {
    "strategy": ("run", "strategy", "word", STRATEGIES),
    "users": ("run", "n_users", "int", None),
    "request_rate": ("run", "request_rate", "positive", None),
    "duration": ("run", "duration", "positive", None),
    "seed": ("run", "seed", "int", None),
    "task.workload_mi": ("run", "workload_mi", "nonnegative", None),
    "task.size_bytes": ("run", "task_size_bytes", "nonnegative", None),
    "task.result_bytes": ("run", "result_size_bytes", "nonnegative", None),
    "scenario.preset": ("preset", "geometry", "word", SCENARIO_PRESETS),
    "scenario.length_x": ("geometry", "loop_length_x", "positive", None),
    "scenario.width_y": ("geometry", "loop_width_y", "positive", None),
    "scenario.bs_x": ("bs", 0, "any", None),
    "scenario.bs_y": ("bs", 1, "any", None),
    "scenario.bs_z": ("bs", 2, "positive", None),
    "scenario.coverage_radius": ("geometry", "coverage_radius", "positive", ("unbounded", math.inf)),
    "scenario.ue_height": ("geometry", "ue_height", "nonnegative", None),
    "vehicles.count": ("run", "n_vehicles", "int", MAX_VEHICLES),
    "vehicles.speed_kmh": ("km/h", "vehicle_speed", "nonnegative", None),
    "vehicles.speed_mps": ("run", "vehicle_speed", "nonnegative", None),
    "vehicles.capacity_mips": ("run", "vehicle_capacity", "positive", None),
    "compute.cloud_mips": ("run", "cloud_mips", "positive", None),
    "compute.edge_mips": ("run", "edge_mips", "positive", None),
    "compute.edge_max_queue": ("run", "edge_max_queue", "int", None),
    "controller.beacon_period": ("run", "beacon_period", "positive", None),
    "controller.timeout": ("run", "registry_timeout", "positive", None),
    "channel.preset": ("preset", "channel", "word", CHANNEL_PRESETS),
    **{
        f"channel.{name}.{field}": (name, field, kind, extra)
        for name in _LINKS
        for field, kind, extra in (
            ("base_latency", "nonnegative", None), ("rate", "positive", ("unbounded", None)),
            ("p_base", "probability", None), ("k_speed", "nonnegative", None),
            ("sharing", "word", (PROCESSOR_SHARING, NO_SHARING)),
        )
    },
    "sweep.axis": ("sweep", "axis", "word", SWEEP_AXES),
    "sweep.values": ("sweep", "values", "list", None),
    "sweep.replications": ("sweep", "replications", "int", None),
    "cost.c_ec_cpu": ("cost", "c_ec_cpu", "nonnegative", None),
    "cost.cpu_lifetime_years": ("cost", "l_ec_cpu", "positive", None),
    "cost.years": ("cost", "years", "positive", None),
    "cost.c_ec_main": ("cost", "c_ec_main", "nonnegative", None),
    "cost.c_ec_req": ("cost", "c_ec_req", "nonnegative", None),
    "cost.c_vcc_req": ("cost", "c_vcc_req", "nonnegative", ("auto", None)),
    "cost.beta": ("cost", "beta", "nonnegative", None),
    "cost.requests_per_user": ("cost", "request_rate", "positive", None),
    "cost.users": ("cost", "users", "positive", None),
    "cost.alpha_seconds": ("cost", "alpha", "positive", None),
    "cost.capex_overhead": ("cost", "capex_overhead", "positive", None),
    "cost.bonus_in_ec_requests": ("flag", "bonus_in_ec_requests", "bool", None),
}


def _where(line: int | None) -> str:
    return f"line {line}: " if line is not None else ""


def _float(key: str, raw: str, line: int | None = None) -> float:
    """A finite number or fraction ``a/b``; ``line`` is omitted for flags."""
    try:
        num, _, den = raw.partition("/")
        value = float(num) / float(den) if den else float(raw)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{_where(line)}{key} expects a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{_where(line)}{key} must be finite, got {raw!r}")
    return value


def _int(key: str, raw: str, line: int | None = None) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{_where(line)}{key} expects an integer, got {raw!r}") from None


def parse_list(raw: str, what: str, read=_float, line: int | None = None) -> tuple:
    """A comma-separated list of at least one value, each parsed by ``read``."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{_where(line)}{what} must list at least one value")
    return tuple(read(what, p, line) for p in parts)


def _read(key: str, raw: str, line: int):
    """One line's value, parsed and bound-checked by its key's kind."""
    _, _, kind, extra = _KEYS[key]
    if kind == "word":
        if raw not in extra:
            raise ConfigError(f"line {line}: {key} must be one of {', '.join(sorted(extra))}, got {raw!r}")
        return extra[raw] if isinstance(extra, dict) else raw
    if kind == "bool":
        if raw.lower() in _BOOLS:
            return _BOOLS[raw.lower()]
        raise ConfigError(f"line {line}: {key} expects true or false, got {raw!r}")
    if kind == "list":
        return parse_list(raw, key, line=line)
    if kind == "int":
        value = _int(key, raw, line)
        if value < 0:
            raise ConfigError(f"line {line}: {key} must be nonnegative, got {value}")
        if extra is not None and value > extra:
            raise ConfigError(f"line {line}: {key} must not exceed {extra}, got {value}")
        return value
    if extra is not None and raw == extra[0]:
        return extra[1]
    value = _float(key, raw, line)
    if (kind == "positive" and value <= 0.0) or (kind == "nonnegative" and value < 0.0):
        raise ConfigError(f"line {line}: {key} must be {kind}, got {value!r}")
    if kind == "probability" and not 0.0 <= value <= 1.0:
        raise ConfigError(f"line {line}: {key} must lie in [0, 1], got {value!r}")
    return value


def _scan(text: str) -> dict[str, tuple[object, int]]:
    """Key -> (checked value, line number); unknown keys, duplicates and bad values are errors."""
    entries: dict[str, tuple[object, int]] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = (part.strip() for part in stripped.partition("="))
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} (first set on line {entries[key][1]})")
        entries[key] = (_read(key, raw, line_no), line_no)
    return entries


def _group(entries: dict[str, tuple[object, int]]) -> dict[str, dict]:
    """Target -> {field: value} over the scanned entries."""
    groups: dict[str, dict] = {}
    for key, (value, _) in entries.items():
        target, field = _KEYS[key][:2]
        groups.setdefault(target, {})[field] = value
    return groups


def _build_run(entries: dict[str, tuple[object, int]]) -> RunConfig:
    if "strategy" not in entries:
        raise ConfigError("missing mandatory key 'strategy'")
    if "vehicles.speed_kmh" in entries and "vehicles.speed_mps" in entries:
        line = entries["vehicles.speed_mps"][1]
        raise ConfigError(f"line {line}: set vehicles.speed_kmh or vehicles.speed_mps, not both")
    groups = _group(entries)
    kw = groups.get("run", {})
    kw.update((field, value * KMH) for field, value in groups.get("km/h", {}).items())
    kw.update((field, preset()) for field, preset in groups.get("preset", {}).items())
    cfg = RunConfig(**kw)
    geometry = groups.get("geometry", {})
    if "bs" in groups:
        geometry["bs_position"] = tuple(groups["bs"].get(i, v) for i, v in enumerate(cfg.geometry.bs_position))
    cfg.geometry = replace(cfg.geometry, **geometry)  # the table bounds every field
    try:
        cfg.channel = ChannelConfig(
            {link: replace(params, **groups.get(link.value, {})) for link, params in cfg.channel.links.items()}
        )
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from None
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _build_cost(entries: dict[str, tuple[object, int]]) -> CostParams:
    try:
        return CostParams(**_group(entries).get("cost", {}))
    except ValueError as exc:
        raise ConfigError(f"cost: {exc}") from None


def bonus_in_ec_requests(text: str) -> bool:
    """The breakdown-table flag, readable from any config file (default on)."""
    return _scan(text).get("cost.bonus_in_ec_requests", (BONUS_IN_EC_REQUESTS,))[0]


def _scan_outside_sweeps(text: str, context: str) -> dict[str, tuple[object, int]]:
    entries = _scan(text)
    for key, (_, line) in entries.items():
        if _KEYS[key][0] == "sweep":
            raise ConfigError(f"line {line}: {key} only applies to the sweep subcommand, not {context}")
    return entries


def parse_run_config(text: str) -> RunConfig:
    return _build_run(_scan_outside_sweeps(text, "run"))


def parse_cost_params(text: str) -> CostParams:
    return _build_cost(_scan_outside_sweeps(text, "cost"))


def parse_sweep_spec(text: str) -> SweepSpec:
    entries = _scan(text)
    for key in ("sweep.axis", "sweep.values"):
        if key not in entries:
            raise ConfigError(f"missing mandatory key {key!r}")
    axis = entries["sweep.axis"][0]
    values, line = entries["sweep.values"]
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"line {line}: sweep.values lists {v!r} more than once")
        if v < 0.0:
            raise ConfigError(f"line {line}: sweep.values must be nonnegative, got {v!r}")
        if axis in ("users", "vehicles") and v != int(v):
            raise ConfigError(f"line {line}: sweep.values for {axis} must be integers, got {v!r}")
        if axis == "vehicle_capacity_fraction" and v <= 0.0:
            raise ConfigError(f"line {line}: capacity fractions must be positive, got {v!r}")

    replications, where = entries.get("sweep.replications", (len(REPLICATION_SEEDS), None))
    if axis == "beta" and where is not None:
        raise ConfigError(f"line {where}: sweep.replications does not apply to a beta sweep, which runs nothing")
    if replications < 1:
        raise ConfigError(f"line {where}: sweep.replications must be at least 1")
    if replications > len(REPLICATION_SEEDS):
        raise ConfigError(
            f"line {where}: sweep.replications beyond {len(REPLICATION_SEEDS)} needs an explicit --seed-list"
        )
    seeds = tuple(REPLICATION_SEEDS[:replications])

    if axis == "beta":
        return SweepSpec(axis, values, seeds, base_run=None, base_cost=_build_cost(entries))
    base = _build_run(entries)
    for v in values:  # every point must be a valid run before any is simulated
        try:
            apply_axis(base, axis, v, seeds[0]).validate()
        except ValueError as exc:
            raise ConfigError(f"line {line}: sweep.values {v!r}: {exc}") from None
    return SweepSpec(axis, values, seeds, base_run=base, base_cost=None)


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


def _serialize(owners: dict[str, object]) -> str:
    """One ``key = value`` line per table key whose target is in ``owners``."""
    lines = []
    for key, (target, field, kind, extra) in _KEYS.items():
        if target not in owners:
            continue
        owner = owners[target]
        value = owner[field] if target == "bs" else getattr(owner, field)
        if kind in ("int", "word"):
            text = str(value)
        elif extra is not None and value == extra[1]:
            text = extra[0]
        else:
            text = repr(float(value))
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def serialize_run_config(cfg: RunConfig) -> str:
    """Full explicit text form; parsing it back yields an equal RunConfig."""
    owners = {"run": cfg, "geometry": cfg.geometry, "bs": cfg.geometry.bs_position}
    owners.update((link.value, params) for link, params in cfg.channel.links.items())
    return _serialize(owners)


def serialize_cost_params(p: CostParams) -> str:
    """Full explicit text form; parsing it back yields equal CostParams."""
    return _serialize({"cost": p})


def default_config_text() -> str:
    """The shipped, commented defaults file."""
    return resources.files("offloadsim").joinpath("data/defaults.cfg").read_text()


def parse_seed_list(raw: str) -> tuple[int, ...]:
    """Parse a comma-separated seed list, e.g. from --seed-list."""
    seeds = parse_list(raw, "seed list", _int)
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {raw!r}")
    return seeds
