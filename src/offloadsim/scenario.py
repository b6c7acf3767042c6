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
from array import array

from .bounds import checked

CLOCKWISE = 1
COUNTERCLOCKWISE = -1


class ScenarioGeometry(checked("ScenarioGeometry", {
    "loop_length_x": (..., "positive"),
    "loop_width_y": (..., "positive"),
    "bs_position": (..., {0: "any", 1: "any", 2: "positive"}),  # x, y and height
    "coverage_radius": (math.inf, ("positive", math.inf)),  # inf: the cell covers everything
    "ue_height": (1.5, "nonnegative"),
})):
    """Rectangular loop with one base station at a fixed 3D position."""

    __slots__ = ()

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.loop_length_x + self.loop_width_y)


def total_coverage() -> ScenarioGeometry:
    """600 x 50 m loop, base station at the center, coverage everywhere."""
    return ScenarioGeometry(600.0, 50.0, (300.0, 25.0, 30.0), math.inf)


def partial_coverage() -> ScenarioGeometry:
    """1200 x 50 m loop whose far ends fall outside the 450 m cell radius."""
    return ScenarioGeometry(1200.0, 50.0, (600.0, 25.0, 30.0), 450.0)


def start_offsets(geometry: ScenarioGeometry, n_vehicles: int, seed: int) -> array:
    """Each vehicle's start, as arc length clockwise from the (0, 0) corner:
    vehicle i's is the i-th draw of ``random.Random(seed)`` over the perimeter."""
    rng = random.Random(seed)
    perimeter = geometry.perimeter
    return array("d", [rng.random() * perimeter for _ in range(n_vehicles)])


def _square(x: float) -> float:
    """``x**2``, or inf where that overflows (past about 1.3e154), as ``x * x`` would give."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def coverage_function(geometry: ScenarioGeometry, offsets, speed: float):
    """The run's coverage test, ``coverage(vid, t) -> (covered, until)``, with
    the geometry read once. Vehicle ``vid`` starts at ``offsets[vid]`` and
    drives at ``speed`` (m/s), CLOCKWISE if its id is even, else
    COUNTERCLOCKWISE. ``covered``: it is within the cell at t, antenna heights
    included; ``until``: t plus the time to drive to the cell's edge, less 1 um,
    or inf if it stands still or the cell's edge is out of reach."""
    lx, wy, perimeter = geometry.loop_length_x, geometry.loop_width_y, geometry.perimeter
    bx, by, bz = geometry.bs_position
    dz = geometry.ue_height - bz
    dz2, r2 = dz * dz, _square(geometry.coverage_radius)
    reach2 = r2 - _square(dz)  # nan when both overflow, and then every point is covered
    reach = math.sqrt(reach2) if reach2 >= 0.0 else None
    still = reach is None or not speed
    ahead, back = CLOCKWISE * speed, COUNTERCLOCKWISE * speed

    def coverage(vid: int, t: float) -> tuple[bool, float]:
        s = (offsets[vid] + (back if vid & 1 else ahead) * t) % perimeter
        if s < lx:  # arc length s runs clockwise from the (0, 0) corner
            x, y = s, 0.0
        elif (s := s - lx) < wy:
            x, y = lx, s
        elif (s := s - wy) < lx:
            x, y = lx - s, wy
        else:
            x, y = 0.0, wy - (s - lx)
        dx, dy = x - bx, y - by
        covered = dx * dx + dy * dy + dz2 <= r2
        return covered, math.inf if still else t + (abs(math.hypot(dx, dy) - reach) - 1e-6) / speed

    return coverage
