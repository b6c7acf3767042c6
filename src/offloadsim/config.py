"""Line-oriented configuration files: ``key = value`` with ``#`` comments.

Keys are dotted into sections (``scenario.length_x``). The table ``_KEYS``
gives each key its field, and each value is read as that field's kind (a word,
an integer, a number or a list, see ``bounds``), so every value is parsed and
bound-checked as its line is read, whatever subcommand reads the file; unknown
keys, duplicates and bad values are errors naming the line. Each builder takes
its own subset: run configs need ``strategy``, sweep specs also ``sweep.axis``
and ``sweep.values``, and cost parameters live under ``cost.``.
A run config is built once, on its final geometry and channel, and
checks itself as every value type does (``bounds.checked``); so does each
sweep point before any runs. Numbers accept fractions like ``1/128``. Defaults
are those of ``RunConfig`` (its channel is ``lena_calibrated()``),
``ScenarioGeometry`` and ``CostParams``; a scenario preset fills the geometry
and explicit keys override it. Every key changes some output: a field that no
output reads, such as a pedestrian leg's ``k_speed``, has no key, and nor
have the bonus beta and the horizon years that each cost row sets.
"""

from __future__ import annotations

from collections import namedtuple

from .bounds import check
from .channel import ChannelConfig, LinkParams
from .costmodel import CostParams
from .engine import KMH, REPLICATION_SEEDS, PositionOverflow, RunConfig
from .scenario import ScenarioGeometry, partial_coverage, total_coverage

# sweep axis -> the fields of the base run that one value sets
_AXES = {
    "users": lambda base, v: {"n_users": int(v)},
    "workload": lambda base, v: {"workload_mi": v},
    "vehicles": lambda base, v: {"n_vehicles": int(v)},
    "vehicle_capacity_fraction": lambda base, v: {"vehicle_capacity": base.vehicle_capacity * v},
    "speed": lambda base, v: {"vehicle_speed": v * KMH},
}
SWEEP_AXES = tuple(_AXES)
SCENARIO_PRESETS = {"total_coverage": total_coverage, "partial_coverage": partial_coverage}


class ConfigError(ValueError):
    """Invalid configuration text; the message names the key and line."""


SweepSpec = namedtuple("SweepSpec", "axis values seeds base_run")
SweepSpec.__doc__ = "One sweep: the knob to turn, its values, the replication seeds, and the base run."


# The radio link classes, each a LinkParams; pedestrian legs run at speed 0, so their k_speed has no key.
_RADIO = [name for name in ChannelConfig._fields if name not in ChannelConfig.KINDS]

# key -> (target, field), read as the field's kind in the target's table in
# ``_KINDS``. Targets: "run" (RunConfig), "geometry" (ScenarioGeometry), "bs"
# (an index into its bs_position), "channel" (a wired leg's latency in
# ChannelConfig), a radio link name (its LinkParams), "cost" (CostParams),
# "sweep", "preset" (the name of the preset factory that fills the geometry)
# and "km/h" (a RunConfig speed in km/h).
_KEYS = {
    "strategy": ("run", "strategy"),
    "users": ("run", "n_users"),
    "request_rate": ("run", "request_rate"),
    "duration": ("run", "duration"),
    "seed": ("run", "seed"),
    "task.workload_mi": ("run", "workload_mi"),
    "task.size_bytes": ("run", "task_size_bytes"),
    "task.result_bytes": ("run", "result_size_bytes"),
    "scenario.preset": ("preset", "geometry"),
    "scenario.length_x": ("geometry", "loop_length_x"),
    "scenario.width_y": ("geometry", "loop_width_y"),
    "scenario.bs_x": ("bs", 0),
    "scenario.bs_y": ("bs", 1),
    "scenario.bs_z": ("bs", 2),
    "scenario.coverage_radius": ("geometry", "coverage_radius"),
    "scenario.ue_height": ("geometry", "ue_height"),
    "vehicles.count": ("run", "n_vehicles"),
    "vehicles.speed_kmh": ("km/h", "vehicle_speed"),
    "vehicles.capacity_mips": ("run", "vehicle_capacity"),
    "compute.cloud_mips": ("run", "cloud_mips"),
    "compute.edge_mips": ("run", "edge_mips"),
    "compute.edge_max_queue": ("run", "edge_max_queue"),
    "controller.beacon_period": ("run", "beacon_period"),
    "controller.timeout": ("run", "registry_timeout"),
    **{
        f"channel.{name}.{field}": (name, field)
        for name in _RADIO
        for field in LinkParams._fields
        if field != "k_speed" or name.startswith("vue")
    },
    **{f"channel.{name}.base_latency": ("channel", name) for name in ChannelConfig.KINDS},
    "sweep.axis": ("sweep", "axis"),
    "sweep.values": ("sweep", "values"),
    "sweep.replications": ("sweep", "replications"),
    "cost.c_ec_cpu": ("cost", "c_ec_cpu"),
    "cost.cpu_lifetime_years": ("cost", "l_ec_cpu"),
    "cost.c_ec_main": ("cost", "c_ec_main"),
    "cost.c_ec_req": ("cost", "c_ec_req"),
    "cost.requests_per_user": ("cost", "request_rate"),
    "cost.users": ("cost", "users"),
    "cost.alpha_seconds": ("cost", "alpha"),
    "cost.capex_overhead": ("cost", "capex_overhead"),
}
_POSITION_KEYS = ("duration", "scenario.preset", "scenario.length_x", "scenario.width_y",
                  "vehicles.speed_kmh")  # what a fleet's loop positions read
_KINDS = {"run": RunConfig.KINDS, "km/h": RunConfig.KINDS, "geometry": ScenarioGeometry.KINDS, "cost": CostParams.KINDS,
          "bs": ScenarioGeometry.KINDS["bs_position"], "channel": ChannelConfig.KINDS,
          **dict.fromkeys(_RADIO, LinkParams.KINDS), "preset": {"geometry": ("word", tuple(SCENARIO_PRESETS))},
          "sweep": {"axis": ("word", SWEEP_AXES), "values": "list", "replications": "int"}}  # target -> its table


def _where(line: int | None) -> str:
    return f"line {line}: " if line is not None else ""


def _number(what: str, raw: str, kind, line: int | None = None):
    """``raw`` read as ``kind`` asks and checked against it: a word as it is, an
    integer, or a number or fraction ``a/b``, where only the word ``unbounded``
    spells the one more value a float kind accepts; ``line`` is omitted for flags."""
    bare = kind if isinstance(kind, str) else kind[0]
    if bare == "int":
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{_where(line)}{what} expects an integer, got {raw!r}") from None
    elif bare == "word":
        value = raw
    elif isinstance(kind, tuple) and raw == "unbounded":  # a float kind with one more value
        return kind[1]
    else:
        try:
            num, _, den = raw.partition("/")
            value = (float(num) / float(den) if den else float(raw)) + 0.0  # "-0" reads as 0.0, not -0.0
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError(f"{_where(line)}{what} expects a number, got {raw!r}") from None
        kind = bare  # only the word spells the one more value, so inf fails
    try:
        return check(what, value, kind, raw)
    except ValueError as exc:
        raise ConfigError(f"{_where(line)}{exc}") from None


def parse_list(raw: str, what: str, kind, line: int | None = None) -> tuple:
    """A comma-separated list of at least one value, each of ``kind`` (see ``bounds``), none twice."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{_where(line)}{what} must list at least one value")
    values = tuple(_number(what, p, kind, line) for p in parts)
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{_where(line)}{what} lists {v!r} more than once")
    return values


def _read(key: str, raw: str, line: int):
    """One line's value, parsed and bound-checked as its field's kind says."""
    target, field = _KEYS[key]
    kind = _KINDS[target][field]
    return parse_list(raw, key, "any", line) if kind == "list" else _number(key, raw, kind, line)


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
        target, field = _KEYS[key]
        groups.setdefault(target, {})[field] = value
    return groups


def _build_run(entries: dict[str, tuple[object, int]]) -> RunConfig:
    if "strategy" not in entries:
        raise ConfigError("missing mandatory key 'strategy'")
    groups = _group(entries)
    kw = groups.get("run", {})
    kw.update((field, value * KMH) for field, value in groups.get("km/h", {}).items())
    preset = groups.get("preset", {}).get("geometry")
    geometry = SCENARIO_PRESETS[preset]() if preset else RunConfig._field_defaults["geometry"]
    fields = groups.get("geometry", {})
    if "bs" in groups:
        fields["bs_position"] = tuple(groups["bs"].get(i, v) for i, v in enumerate(geometry.bs_position))
    channel = RunConfig._field_defaults["channel"]
    radio = {name: getattr(channel, name)._replace(**groups[name]) for name in _RADIO if name in groups}
    try:  # one RunConfig, on the final geometry: one on the preset's could fail a check the final one passes
        return RunConfig(**kw, geometry=geometry._replace(**fields),
                         channel=channel._replace(**groups.get("channel", {}), **radio))
    except ValueError as exc:  # a PositionOverflow names the last line of a key the positions read
        lines = [entries[k][1] for k in _POSITION_KEYS if k in entries and isinstance(exc, PositionOverflow)]
        raise ConfigError(f"{_where(max(lines, default=None))}{exc}") from None


def _scan_outside_sweeps(text: str, context: str) -> dict[str, tuple[object, int]]:
    entries = _scan(text)
    for key, (_, line) in entries.items():
        if _KEYS[key][0] == "sweep":
            raise ConfigError(f"line {line}: {key} only applies to the sweep subcommand, not {context}")
    return entries


def parse_run_config(text: str) -> RunConfig:
    return _build_run(_scan_outside_sweeps(text, "run"))


def parse_cost_params(text: str) -> CostParams:
    groups = _group(_scan_outside_sweeps(text, "cost"))
    return CostParams(**groups.get("cost", {}))  # the table bounds every field, and no rule spans them


def parse_sweep_spec(text: str) -> SweepSpec:
    entries = _scan(text)
    for key in ("sweep.axis", "sweep.values"):
        if key not in entries:
            raise ConfigError(f"missing mandatory key {key!r}")
    axis = entries["sweep.axis"][0]
    values, line = entries["sweep.values"]
    for v in values:
        if axis in ("users", "vehicles") and v != int(v):
            raise ConfigError(f"line {line}: sweep.values for {axis} must be integers, got {v!r}")

    replications, where = entries.get("sweep.replications", (len(REPLICATION_SEEDS), None))
    if replications < 1:
        raise ConfigError(f"line {where}: sweep.replications must be at least 1")
    if replications > len(REPLICATION_SEEDS):
        raise ConfigError(
            f"line {where}: sweep.replications beyond {len(REPLICATION_SEEDS)} needs an explicit --seed-list"
        )
    seeds = tuple(REPLICATION_SEEDS[:replications])

    base_run = _build_run(entries)
    for v in values:  # every point must be valid before any is computed
        try:
            apply_axis(base_run, axis, v, seeds[0])
        except ValueError as exc:
            raise ConfigError(f"line {line}: sweep.values {v!r}: {exc}") from None
    return SweepSpec(axis, values, seeds, base_run)


def apply_axis(base: RunConfig, axis: str, value: float, seed: int) -> RunConfig:
    """One sweep point: the base run with one knob turned and the seed set."""
    if axis not in _AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return base._replace(**_AXES[axis](base, value), seed=seed)


def parse_seed_list(raw: str) -> tuple[int, ...]:
    """The comma-separated seeds of --seed-list, each of the kind of ``RunConfig.seed``."""
    return parse_list(raw, "--seed-list", RunConfig.KINDS["seed"])
