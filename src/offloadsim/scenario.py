"""Vehicle kinematics on a rectangular road loop and base-station coverage.

Vehicles drive at constant speed along the boundary of a rectangle, each in one
of the two possible directions. Positions are closed-form in time, so
trajectories are exact, periodic and free of integration drift. Coverage is a
3D distance test against a single base station; pedestrian and vehicle antennas
sit at a fixed height above the ground plane.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .bounds import check_fields

CLOCKWISE = 1
COUNTERCLOCKWISE = -1


class ScenarioGeometry(namedtuple("ScenarioGeometry", "loop_length_x loop_width_y bs_position coverage_radius"
                                  " ue_height", defaults=(math.inf, 1.5))):
    """Rectangular loop with one base station at a fixed 3D position. Every
    construction is checked, ``_replace`` included."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make
    KINDS = {
        "loop_length_x": "positive",
        "loop_width_y": "positive",
        "bs_position": {0: "any", 1: "any", 2: "positive"},  # x, y and height
        "coverage_radius": ("positive", math.inf),  # inf: the cell covers everything
        "ue_height": "nonnegative",
    }

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_fields(self)
        return self

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.loop_length_x + self.loop_width_y)


def total_coverage() -> ScenarioGeometry:
    """600 x 50 m loop, base station at the center, coverage everywhere."""
    return ScenarioGeometry(600.0, 50.0, (300.0, 25.0, 30.0), math.inf)


def partial_coverage(coverage_radius: float = 450.0) -> ScenarioGeometry:
    """1200 x 50 m loop whose far ends fall outside the cell radius."""
    return ScenarioGeometry(1200.0, 50.0, (600.0, 25.0, 30.0), coverage_radius)


class VehicleState:
    """One vehicle: where it starts on the loop, its direction (CLOCKWISE or
    COUNTERCLOCKWISE), speed (m/s) and capacity (MIPS), and the end of its
    current task's service, if any."""

    __slots__ = ("id", "loop_offset_at_t0", "direction", "speed", "capacity", "busy_until")

    def __init__(self, id: int, loop_offset_at_t0: float, direction: int, speed: float, capacity: float,
                 busy_until: float = 0.0) -> None:
        self.id, self.loop_offset_at_t0, self.direction = id, loop_offset_at_t0, direction
        self.speed, self.capacity, self.busy_until = speed, capacity, busy_until


def build_scenario(
    geometry: ScenarioGeometry,
    n_vehicles: int,
    speed: float,
    capacity: float,
    seed: int,
) -> list[VehicleState]:
    """Place ``n_vehicles`` uniformly on the loop, alternating directions per lane.

    Same inputs and seed give a bitwise-identical fleet; ``RunConfig.validate`` bounds the inputs.
    """
    rng = random.Random(seed)
    fleet, perimeter = [], geometry.perimeter
    for vid in range(n_vehicles):
        offset = rng.random() * perimeter
        direction = CLOCKWISE if vid % 2 == 0 else COUNTERCLOCKWISE
        fleet.append(VehicleState(vid, offset, direction, speed, capacity))
    return fleet


def point_on_loop(s: float, geometry: ScenarioGeometry) -> tuple[float, float]:
    """Map arc length ``s`` (measured clockwise from the (0, 0) corner) to (x, y)."""
    lx = geometry.loop_length_x
    wy = geometry.loop_width_y
    s = s % geometry.perimeter
    if s < lx:
        return (s, 0.0)
    s -= lx
    if s < wy:
        return (lx, s)
    s -= wy
    if s < lx:
        return (lx - s, wy)
    s -= lx
    return (0.0, wy - s)


def position_at(v: VehicleState, t: float, geometry: ScenarioGeometry) -> tuple[float, float]:
    """Vehicle position at time ``t``, exact in closed form."""
    s = v.loop_offset_at_t0 + v.direction * v.speed * t
    return point_on_loop(s, geometry)


def in_coverage(p: tuple[float, float], geometry: ScenarioGeometry) -> bool:
    """Whether a ground point is within the cell, antenna heights included."""
    if math.isinf(geometry.coverage_radius):
        return True
    bx, by, bz = geometry.bs_position
    dx = p[0] - bx
    dy = p[1] - by
    dz = geometry.ue_height - bz
    return dx * dx + dy * dy + dz * dz <= geometry.coverage_radius**2


def edge_distance(p: tuple[float, float], geometry: ScenarioGeometry) -> float:
    """How far from ``p`` coverage cannot change, less 1 um; inf if it never can."""
    bx, by, bz = geometry.bs_position
    reach2 = geometry.coverage_radius**2 - (geometry.ue_height - bz) ** 2
    return math.inf if reach2 < 0.0 else abs(math.hypot(p[0] - bx, p[1] - by) - math.sqrt(reach2)) - 1e-6
