"""Loop kinematics and coverage geometry."""

import math

import pytest

from offloadsim.engine import RunConfig, run
from offloadsim.scenario import (
    CLOCKWISE,
    COUNTERCLOCKWISE,
    ScenarioGeometry,
    VehicleState,
    build_scenario,
    in_coverage,
    partial_coverage,
    point_on_loop,
    position_at,
    total_coverage,
)


def test_perimeter_of_presets():
    assert total_coverage().perimeter == 1300.0
    assert partial_coverage().perimeter == 2500.0


def test_total_coverage_preset_values():
    g = total_coverage()
    assert (g.loop_length_x, g.loop_width_y) == (600.0, 50.0)
    assert g.bs_position == (300.0, 25.0, 30.0)
    assert math.isinf(g.coverage_radius)
    assert g.ue_height == 1.5


def test_partial_coverage_preset_values():
    g = partial_coverage()
    assert (g.loop_length_x, g.loop_width_y) == (1200.0, 50.0)
    assert g.bs_position == (600.0, 25.0, 30.0)
    assert g.coverage_radius == 450.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        ScenarioGeometry(0.0, 50.0, (0.0, 0.0, 30.0))
    with pytest.raises(ValueError):
        ScenarioGeometry(600.0, -1.0, (0.0, 0.0, 30.0))
    with pytest.raises(ValueError):
        ScenarioGeometry(600.0, 50.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ScenarioGeometry(600.0, 50.0, (0.0, 0.0, 30.0), coverage_radius=0.0)
    with pytest.raises(ValueError):
        ScenarioGeometry(600.0, 50.0, (0.0, 0.0, 30.0), ue_height=-0.1)
    for args in [(math.nan, 50.0, (0.0, 0.0, 30.0)), (600.0, 50.0, (0.0, math.nan, 30.0))]:
        with pytest.raises(ValueError, match="must be finite, got nan"):
            ScenarioGeometry(*args)


def test_point_on_loop_corners_and_sides():
    g = total_coverage()
    assert point_on_loop(0.0, g) == (0.0, 0.0)
    assert point_on_loop(600.0, g) == (600.0, 0.0)
    assert point_on_loop(650.0, g) == (600.0, 50.0)
    assert point_on_loop(1250.0, g) == (0.0, 50.0)
    # midpoints of each side, clockwise from the origin
    assert point_on_loop(300.0, g) == (300.0, 0.0)
    assert point_on_loop(625.0, g) == (600.0, 25.0)
    assert point_on_loop(950.0, g) == (300.0, 50.0)
    assert point_on_loop(1275.0, g) == (0.0, 25.0)


def test_point_on_loop_wraps_both_directions():
    g = total_coverage()
    assert point_on_loop(1300.0, g) == point_on_loop(0.0, g)
    assert point_on_loop(1300.0 + 42.0, g) == point_on_loop(42.0, g)
    assert point_on_loop(-50.0, g) == point_on_loop(1250.0, g)


def test_position_advances_along_arc_length():
    g = total_coverage()
    v = VehicleState(0, 100.0, CLOCKWISE, speed=10.0, capacity=1.0)
    assert position_at(v, 0.0, g) == (100.0, 0.0)
    assert position_at(v, 20.0, g) == (300.0, 0.0)
    # a full perimeter later the vehicle is back where it started
    assert position_at(v, 130.0, g) == position_at(v, 0.0, g)


def test_counterclockwise_runs_the_loop_backwards():
    g = total_coverage()
    fwd = VehicleState(0, 100.0, CLOCKWISE, speed=5.0, capacity=1.0)
    bwd = VehicleState(1, 100.0, COUNTERCLOCKWISE, speed=5.0, capacity=1.0)
    assert position_at(bwd, 7.0, g) == point_on_loop(100.0 - 35.0, g)
    assert position_at(fwd, 7.0, g) == point_on_loop(100.0 + 35.0, g)


def test_build_scenario_is_deterministic_and_alternates_directions():
    g = total_coverage()
    a = build_scenario(g, 12, speed=3.6, capacity=71120.0, seed=42)
    b = build_scenario(g, 12, speed=3.6, capacity=71120.0, seed=42)
    assert [[getattr(v, name) for name in VehicleState.__slots__] for v in a] == [
        [getattr(v, name) for name in VehicleState.__slots__] for v in b
    ]
    assert [v.direction for v in a] == [CLOCKWISE, COUNTERCLOCKWISE] * 6
    assert all(0.0 <= v.loop_offset_at_t0 < g.perimeter for v in a)
    assert all(v.busy_until == 0.0 for v in a)
    c = build_scenario(g, 12, speed=3.6, capacity=71120.0, seed=43)
    assert [v.loop_offset_at_t0 for v in c] != [v.loop_offset_at_t0 for v in a]


def test_build_scenario_validation():
    # build_scenario trusts its count, speed and capacity; engine.run, its caller, validates them first
    for field, bad in [("n_vehicles", -1), ("vehicle_speed", -1.0), ("vehicle_capacity", 0.0)]:
        with pytest.raises(ValueError, match=f"{field} must be"):
            run(RunConfig(**{field: bad}))


def test_infinite_radius_covers_everything():
    g = total_coverage()
    for p in ((0.0, 0.0), (600.0, 50.0), (1e9, -1e9)):
        assert in_coverage(p, g)


def test_partial_coverage_excludes_far_corners():
    g = partial_coverage()
    # the far corner sits just over 600 m from the mast, outside the 450 m cell
    assert not in_coverage((0.0, 0.0), g)
    assert not in_coverage((1200.0, 50.0), g)
    # points under the mast and along the middle stretch are inside
    assert in_coverage((600.0, 0.0), g)
    assert in_coverage((600.0, 25.0), g)
    assert in_coverage((300.0, 25.0), g)


def test_coverage_uses_3d_distance_with_antenna_heights():
    # mast 30 m up, handset 1.5 m up: 28.5 m of the budget is vertical
    g = ScenarioGeometry(100.0, 10.0, (0.0, 0.0, 30.0), coverage_radius=40.0)
    horizontal = math.sqrt(40.0**2 - 28.5**2)
    assert in_coverage((horizontal, 0.0), g)
    assert not in_coverage((horizontal + 1e-6, 0.0), g)
