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
from dataclasses import dataclass

CLOCKWISE = 1
COUNTERCLOCKWISE = -1


@dataclass(frozen=True)
class ScenarioGeometry:
    """Rectangular loop with one base station at a fixed 3D position."""

    loop_length_x: float
    loop_width_y: float
    bs_position: tuple[float, float, float]
    coverage_radius: float = math.inf
    ue_height: float = 1.5

    def __post_init__(self) -> None:
        if self.loop_length_x <= 0.0 or self.loop_width_y <= 0.0:
            raise ValueError("loop dimensions must be positive")
        if self.bs_position[2] <= 0.0:
            raise ValueError("base station height must be positive")
        if self.coverage_radius <= 0.0:
            raise ValueError("coverage radius must be positive or infinite")
        if self.ue_height < 0.0:
            raise ValueError("UE height must be nonnegative")

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.loop_length_x + self.loop_width_y)


def total_coverage() -> ScenarioGeometry:
    """600 x 50 m loop, base station at the center, coverage everywhere."""
    return ScenarioGeometry(600.0, 50.0, (300.0, 25.0, 30.0), math.inf)


def partial_coverage(coverage_radius: float = 450.0) -> ScenarioGeometry:
    """1200 x 50 m loop whose far ends fall outside the cell radius."""
    return ScenarioGeometry(1200.0, 50.0, (600.0, 25.0, 30.0), coverage_radius)


@dataclass
class VehicleState:
    """One vehicle: where it starts on the loop, how it moves, what it can compute."""

    id: int
    loop_offset_at_t0: float
    direction: int  # CLOCKWISE or COUNTERCLOCKWISE
    speed: float  # m/s
    capacity: float  # MIPS
    busy_until: float = 0.0  # end of the current task's service, if any


def build_scenario(
    geometry: ScenarioGeometry,
    n_vehicles: int,
    speed: float,
    capacity: float,
    seed: int,
) -> list[VehicleState]:
    """Place ``n_vehicles`` uniformly on the loop, alternating directions per lane.

    Same inputs and seed give a bitwise-identical fleet.
    """
    if n_vehicles < 0:
        raise ValueError("vehicle count must be nonnegative")
    if speed < 0.0:
        raise ValueError("speed must be nonnegative")
    if capacity <= 0.0:
        raise ValueError("capacity must be positive")
    rng = random.Random(seed)
    fleet = []
    for vid in range(n_vehicles):
        offset = rng.random() * geometry.perimeter
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
