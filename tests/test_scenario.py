"""Loop kinematics and coverage geometry, all read through ``coverage_function``."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from offloadsim.engine import RunConfig, run
from offloadsim.scenario import (
    CLOCKWISE,
    COUNTERCLOCKWISE,
    ScenarioGeometry,
    coverage_function,
    partial_coverage,
    start_offsets,
    total_coverage,
)


def is_at(g, point, offset, t=0.0, speed=0.0, vid=0):
    """Whether vehicle ``vid`` of loop ``g``, starting at arc length ``offset``,
    is at ``point`` at t: a cell of radius 1 nm centred there, at handset
    height, covers it."""
    probe = g._replace(bs_position=(*point, g.ue_height), coverage_radius=1e-9)
    return coverage_function(probe, [offset] * (vid + 1), speed)(vid, t)[0]


def in_coverage(p, g):
    """Whether ground point ``p`` is within ``g``'s cell: a vehicle standing at
    the loop's (0, 0) corner, with the station moved by -p."""
    bx, by, bz = g.bs_position
    moved = g._replace(bs_position=(bx - p[0], by - p[1], bz))
    return coverage_function(moved, [0.0], 0.0)(0, 0.0)[0]


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
    for s, point in [
        (0.0, (0.0, 0.0)),
        (600.0, (600.0, 0.0)),
        (650.0, (600.0, 50.0)),
        (1250.0, (0.0, 50.0)),
        # midpoints of each side, clockwise from the origin
        (300.0, (300.0, 0.0)),
        (625.0, (600.0, 25.0)),
        (950.0, (300.0, 50.0)),
        (1275.0, (0.0, 25.0)),
    ]:
        assert is_at(g, point, s), (s, point)
        assert not is_at(g, (point[0] + 1e-6, point[1]), s)


def test_point_on_loop_wraps_both_directions():
    g = total_coverage()
    assert is_at(g, (0.0, 0.0), 1300.0)
    assert is_at(g, (42.0, 0.0), 1300.0 + 42.0)
    assert is_at(g, (0.0, 50.0), -50.0)  # arc length 1250


def test_position_advances_along_arc_length():
    g = total_coverage()
    assert is_at(g, (100.0, 0.0), 100.0, t=0.0, speed=10.0)
    assert is_at(g, (300.0, 0.0), 100.0, t=20.0, speed=10.0)
    # a full perimeter later the vehicle is back where it started
    assert is_at(g, (100.0, 0.0), 100.0, t=130.0, speed=10.0)


def test_counterclockwise_runs_the_loop_backwards():
    g = total_coverage()
    # even ids drive clockwise, odd ones counterclockwise
    assert is_at(g, (100.0 - 35.0, 0.0), 100.0, t=7.0, speed=5.0, vid=1)
    assert is_at(g, (100.0 + 35.0, 0.0), 100.0, t=7.0, speed=5.0, vid=0)
    assert is_at(g, (100.0 + 35.0, 0.0), 100.0, t=7.0, speed=5.0, vid=2)


def test_start_offsets_are_deterministic_and_directions_alternate():
    g = total_coverage()
    a = start_offsets(g, 12, seed=42)
    assert a == start_offsets(g, 12, seed=42)
    assert len(a) == 12 and all(0.0 <= s < g.perimeter for s in a)
    assert start_offsets(g, 12, seed=43) != a
    # the same start and speed, opposite directions by id parity
    for vid in range(12):
        arc = 100.0 + (35.0 if vid % 2 == 0 else -35.0)
        assert is_at(g, (arc, 0.0), 100.0, t=7.0, speed=5.0, vid=vid)


def test_fleet_inputs_are_validated_by_the_run():
    # the scenario trusts its count and speed, and the engine its capacity; RunConfig checks them when built
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


# The four-call chain that ``coverage_function`` replaced, kept as its reference.


def _point_on_loop(s, geometry):
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


def _position_at(v, t, geometry):
    s = v.loop_offset_at_t0 + v.direction * v.speed * t
    return _point_on_loop(s, geometry)


def _in_coverage(p, geometry):
    if math.isinf(geometry.coverage_radius):
        return True
    bx, by, bz = geometry.bs_position
    dx = p[0] - bx
    dy = p[1] - by
    dz = geometry.ue_height - bz
    return dx * dx + dy * dy + dz * dz <= geometry.coverage_radius**2


def _edge_distance(p, geometry):
    bx, by, bz = geometry.bs_position
    reach2 = geometry.coverage_radius**2 - (geometry.ue_height - bz) ** 2
    return math.inf if reach2 < 0.0 else abs(math.hypot(p[0] - bx, p[1] - by) - math.sqrt(reach2)) - 1e-6


def _chain(geometry, v, t):
    p = _position_at(v, t, geometry)
    return _in_coverage(p, geometry), (t + _edge_distance(p, geometry) / v.speed if v.speed else math.inf)


_LENGTH = st.floats(1.0, 2000.0)
_SPOT = st.floats(-1000.0, 3000.0)


@settings(max_examples=examples(400), deadline=None, derandomize=True)
@given(
    geometry=st.builds(
        ScenarioGeometry,
        _LENGTH,
        _LENGTH,
        st.tuples(_SPOT, _SPOT, st.floats(0.5, 100.0)),
        st.floats(1.0, 3000.0) | st.sampled_from((28.5, math.inf)),
        st.floats(0.0, 10.0) | st.just(1.5),
    ),
    offsets=st.lists(st.floats(0.0, 1e6) | st.floats(0.0, 3000.0), min_size=1, max_size=4),
    speed=st.just(0.0) | st.floats(0.0, 300.0) | st.floats(1e-3, 1.0),
    times=st.lists(st.floats(0.0, 1e4) | st.floats(0.0, 10.0), min_size=1, max_size=6),
)
def test_coverage_function_matches_the_four_call_chain(geometry, offsets, speed, times):
    """Bit for bit: the same covered flag and the same until float, for every
    vehicle (both directions) at every time."""
    coverage = coverage_function(geometry, offsets, speed)
    for vid, offset in enumerate(offsets):
        v = SimpleNamespace(loop_offset_at_t0=offset, speed=speed, direction=(CLOCKWISE, COUNTERCLOCKWISE)[vid % 2])
        for t in times:
            covered, until = coverage(vid, t)
            want_covered, want_until = _chain(geometry, v, t)
            assert covered is want_covered and until.hex() == want_until.hex(), (vid, t)


@pytest.mark.parametrize("radius, height", [(1e200, 30.0), (450.0, 1e200), (1e200, 1e200), (1.4e154, 30.0)])
def test_a_radius_or_mast_height_whose_square_overflows_gives_a_window(radius, height):
    """Squares past the float range read as inf, as ``x * x`` would give: a huge
    radius covers everything for good, a huge mast height nothing, and no
    window is nan."""
    g = partial_coverage()._replace(coverage_radius=radius, bs_position=(600.0, 25.0, height))
    coverage = coverage_function(g, start_offsets(g, 8, seed=0), 25.0)
    for vid in range(8):
        for t in (0.0, 1.0, 100.0):
            covered, until = coverage(vid, t)
            assert covered is (radius >= height) and until == math.inf
