"""Line-oriented configuration files: ``key = value`` with ``#`` comments.

Keys are dotted into sections (``scenario.length_x``). The table ``_KEYS``
gives each key its field, whose owner's ``KINDS`` bounds it, so every value is
parsed and bound-checked as its line is read, whatever subcommand reads the
file; unknown keys, duplicates and bad values are errors naming the line. Each
builder takes its own subset: run configs need ``strategy``, sweep specs also
``sweep.axis`` and ``sweep.values``, cost parameters live under ``cost.``, and
a ``beta`` sweep reads ``cost.bonus_in_ec_requests`` as ``offloadsim cost``
does. Numbers accept fractions like ``1/128``. Defaults are those of
``RunConfig`` (its channel is ``lena_calibrated()``), ``ScenarioGeometry`` and
``CostParams``; a scenario preset fills the geometry and explicit keys
override it. Every key changes some output: a field that no output reads,
such as a pedestrian leg's ``k_speed`` or the bonus ``beta`` that each cost row
sets, has no key.
"""

from __future__ import annotations

from collections import namedtuple

from .bounds import check
from .channel import SHARING_MODES, ChannelConfig, LinkParams
from .controller import STRATEGIES
from .costmodel import BONUS_IN_EC_REQUESTS, CostParams
from .engine import KMH, REPLICATION_SEEDS, PositionOverflow, RunConfig
from .scenario import ScenarioGeometry, partial_coverage, total_coverage

SWEEP_AXES = ("users", "workload", "vehicles", "vehicle_capacity_fraction", "speed", "beta")
SCENARIO_PRESETS = {"total_coverage": total_coverage, "partial_coverage": partial_coverage}


class ConfigError(ValueError):
    """Invalid configuration text; the message names the key and line."""


SweepSpec = namedtuple("SweepSpec", "axis values seeds base_run base_cost", defaults=(None, None))
SweepSpec.__doc__ = "One sweep: the knob to turn, its values, the replication seeds, and the base run or cost."


# The radio link classes, each a LinkParams; pedestrian legs run at speed 0, so their k_speed has no key.
_RADIO = [name for name in ChannelConfig._fields if name not in ChannelConfig.KINDS]
_BOOLS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}

# key -> (target, field, spelling). Targets: "run" (RunConfig), "geometry"
# (ScenarioGeometry), "bs" (an index into its bs_position), "channel" (a wired
# leg's latency in ChannelConfig), a radio link name (its LinkParams), "cost"
# (CostParams), "sweep", "preset" (the geometry a preset factory fills),
# "km/h" (a RunConfig speed in km/h) and "flag". A
# spelling of None is a number of its field's kind (``_KINDS``), and a word
# spells the one more value that kind accepts; else it is the words allowed
# (mapped if a dict), bool, int (an integer its builder bounds) or list (of
# finite numbers). The serialisers write keys in this order.
_KEYS = {
    "strategy": ("run", "strategy", STRATEGIES),
    "users": ("run", "n_users", None),
    "request_rate": ("run", "request_rate", None),
    "duration": ("run", "duration", None),
    "seed": ("run", "seed", None),
    "task.workload_mi": ("run", "workload_mi", None),
    "task.size_bytes": ("run", "task_size_bytes", None),
    "task.result_bytes": ("run", "result_size_bytes", None),
    "scenario.preset": ("preset", "geometry", SCENARIO_PRESETS),
    "scenario.length_x": ("geometry", "loop_length_x", None),
    "scenario.width_y": ("geometry", "loop_width_y", None),
    "scenario.bs_x": ("bs", 0, None),
    "scenario.bs_y": ("bs", 1, None),
    "scenario.bs_z": ("bs", 2, None),
    "scenario.coverage_radius": ("geometry", "coverage_radius", "unbounded"),
    "scenario.ue_height": ("geometry", "ue_height", None),
    "vehicles.count": ("run", "n_vehicles", None),
    "vehicles.speed_kmh": ("km/h", "vehicle_speed", None),
    "vehicles.speed_mps": ("run", "vehicle_speed", None),
    "vehicles.capacity_mips": ("run", "vehicle_capacity", None),
    "compute.cloud_mips": ("run", "cloud_mips", None),
    "compute.edge_mips": ("run", "edge_mips", None),
    "compute.edge_max_queue": ("run", "edge_max_queue", None),
    "controller.beacon_period": ("run", "beacon_period", None),
    "controller.timeout": ("run", "registry_timeout", None),
    **{
        f"channel.{name}.{field}": (name, field, {"rate": "unbounded", "sharing": SHARING_MODES}.get(field))
        for name in _RADIO
        for field in LinkParams._fields
        if field != "k_speed" or name.startswith("vue")
    },
    **{f"channel.{name}.base_latency": ("channel", name, None) for name in ChannelConfig.KINDS},
    "sweep.axis": ("sweep", "axis", SWEEP_AXES),
    "sweep.values": ("sweep", "values", list),
    "sweep.replications": ("sweep", "replications", int),
    "cost.c_ec_cpu": ("cost", "c_ec_cpu", None),
    "cost.cpu_lifetime_years": ("cost", "l_ec_cpu", None),
    "cost.years": ("cost", "years", None),
    "cost.c_ec_main": ("cost", "c_ec_main", None),
    "cost.c_ec_req": ("cost", "c_ec_req", None),
    "cost.requests_per_user": ("cost", "request_rate", None),
    "cost.users": ("cost", "users", None),
    "cost.alpha_seconds": ("cost", "alpha", None),
    "cost.capex_overhead": ("cost", "capex_overhead", None),
    "cost.bonus_in_ec_requests": ("flag", "bonus_in_ec_requests", bool),
}
_POSITION_KEYS = ("duration", "scenario.preset", "scenario.length_x", "scenario.width_y", "vehicles.speed_kmh",
                  "vehicles.speed_mps")  # what a fleet's loop positions read
_KINDS = {"run": RunConfig.KINDS, "km/h": RunConfig.KINDS, "geometry": ScenarioGeometry.KINDS, "cost": CostParams.KINDS,
          "bs": ScenarioGeometry.KINDS["bs_position"], "channel": ChannelConfig.KINDS,
          **dict.fromkeys(_RADIO, LinkParams.KINDS)}  # target -> its table


def _where(line: int | None) -> str:
    return f"line {line}: " if line is not None else ""


def _float(key: str, raw: str, line: int | None = None) -> float:
    """A number or fraction ``a/b``; ``line`` is omitted for flags."""
    try:
        num, _, den = raw.partition("/")
        value = float(num) / float(den) if den else float(raw)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{_where(line)}{key} expects a number, got {raw!r}") from None
    return value + 0.0  # "-0" reads as 0.0, not -0.0


def _int(key: str, raw: str, line: int | None = None) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{_where(line)}{key} expects an integer, got {raw!r}") from None


def _integral(kind) -> bool:
    return (kind if isinstance(kind, str) else kind[0]) == "int"


def _number(what: str, raw: str, kind, line: int | None = None):
    """``raw`` read as an integer or a number, as ``kind`` asks, and checked against it."""
    value = (_int if _integral(kind) else _float)(what, raw, line)
    try:
        return check(what, value, kind, raw)
    except ValueError as exc:
        raise ConfigError(f"{_where(line)}{exc}") from None


def parse_list(raw: str, what: str, kind, line: int | None = None) -> tuple:
    """A comma-separated list of at least one value, each of ``kind`` (see ``bounds``)."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{_where(line)}{what} must list at least one value")
    return tuple(_number(what, p, kind, line) for p in parts)


def _read(key: str, raw: str, line: int):
    """One line's value, parsed and bound-checked as its key's spelling and kind say."""
    target, field, spelling = _KEYS[key]
    if spelling is bool:
        if raw.lower() in _BOOLS:
            return _BOOLS[raw.lower()]
        raise ConfigError(f"line {line}: {key} expects true or false, got {raw!r}")
    if spelling is list:
        return parse_list(raw, key, "any", line)
    if spelling is int:
        return _int(key, raw, line)
    if spelling is None:
        return _number(key, raw, _KINDS[target][field], line)
    if isinstance(spelling, str):  # the word for the one more value the kind accepts
        kind, value = _KINDS[target][field]
        return value if raw == spelling else _number(key, raw, kind, line)
    if raw not in spelling:
        raise ConfigError(f"line {line}: {key} must be one of {', '.join(sorted(spelling))}, got {raw!r}")
    return spelling[raw] if isinstance(spelling, dict) else raw


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
    base = RunConfig(**kw)
    geometry = groups.get("geometry", {})
    if "bs" in groups:
        geometry["bs_position"] = tuple(groups["bs"].get(i, v) for i, v in enumerate(base.geometry.bs_position))
    radio = {name: getattr(base.channel, name)._replace(**groups[name]) for name in _RADIO if name in groups}
    channel = base.channel._replace(**groups.get("channel", {}), **radio)
    cfg = base._replace(geometry=base.geometry._replace(**geometry), channel=channel)  # the table bounds both
    try:
        cfg.validate()
    except ValueError as exc:  # a PositionOverflow names the last line of a key the positions read
        lines = [entries[k][1] for k in _POSITION_KEYS if k in entries and isinstance(exc, PositionOverflow)]
        raise ConfigError(f"{_where(max(lines, default=None))}{exc}") from None
    return cfg


def _build_cost(entries: dict[str, tuple[object, int]]) -> CostParams:
    return CostParams(**_group(entries).get("cost", {}))  # the table bounds every field, and no rule spans them


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
        if axis in ("users", "vehicles") and v != int(v):
            raise ConfigError(f"line {line}: sweep.values for {axis} must be integers, got {v!r}")

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

    base_cost = _build_cost(entries) if axis == "beta" else None
    base_run = _build_run(entries) if axis != "beta" else None
    for v in values:  # every point must be valid before any is computed
        try:
            base_cost._replace(beta=v) if base_cost else apply_axis(base_run, axis, v, seeds[0]).validate()
        except ValueError as exc:
            raise ConfigError(f"line {line}: sweep.values {v!r}: {exc}") from None
    return SweepSpec(axis, values, seeds, base_run=base_run, base_cost=base_cost)


def apply_axis(base: RunConfig, axis: str, value: float, seed: int) -> RunConfig:
    """One sweep point: the base run with one knob turned and the seed set."""
    if axis == "users":
        return base._replace(n_users=int(value), seed=seed)
    if axis == "workload":
        return base._replace(workload_mi=value, seed=seed)
    if axis == "vehicles":
        return base._replace(n_vehicles=int(value), seed=seed)
    if axis == "vehicle_capacity_fraction":
        return base._replace(vehicle_capacity=base.vehicle_capacity * value, seed=seed)
    if axis == "speed":
        return base._replace(vehicle_speed=value * KMH, seed=seed)
    raise ValueError(f"axis {axis!r} does not drive simulation runs")


def _serialize(owners: dict[str, object]) -> str:
    """One ``key = value`` line per table key whose target is in ``owners``."""
    lines = []
    for key, (target, field, spelling) in _KEYS.items():
        if target not in owners:
            continue
        owner = owners[target]
        value = owner[field] if target == "bs" else getattr(owner, field)
        kind = _KINDS[target].get(field)  # None for a word
        if isinstance(spelling, str) and value == kind[1]:
            text = spelling
        elif kind is None or _integral(kind):
            text = str(value)
        else:
            text = repr(float(value))
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def serialize_run_config(cfg: RunConfig) -> str:
    """Full explicit text form; parsing it back yields an equal RunConfig,
    but for the pedestrian legs' ``k_speed``, which has no key."""
    owners = {"run": cfg, "geometry": cfg.geometry, "bs": cfg.geometry.bs_position, "channel": cfg.channel}
    owners.update((name, getattr(cfg.channel, name)) for name in _RADIO)
    return _serialize(owners)


def serialize_cost_params(p: CostParams) -> str:
    """Full explicit text form; parsing it back yields equal CostParams, but
    for ``beta``, which each cost row sets."""
    return _serialize({"cost": p})


def default_config_text() -> str:
    """The shipped, commented defaults file."""
    from importlib import resources  # on Python 3.12+ it imports inspect and typing

    return resources.files("offloadsim").joinpath("data/defaults.cfg").read_text()


def parse_seed_list(raw: str) -> tuple[int, ...]:
    """The comma-separated seeds of --seed-list, each of the kind of ``RunConfig.seed``."""
    return parse_list(raw, "--seed-list", RunConfig.KINDS["seed"])
