"""Walk a small fleet around the road loop and watch cell coverage flip.

Vehicles drive the boundary of a rectangle at constant speed. On the larger
loop the cell radius does not reach the far ends, so a vehicle drops out of
coverage on every lap. Positions are closed form, so we can sample them at
any instant without stepping a simulation.
"""

from offloadsim.scenario import coverage_function, partial_coverage, start_offsets, total_coverage


def point_on_loop(s, g):
    """The (x, y) at arc length ``s``, measured clockwise from the (0, 0) corner."""
    lx, wy = g.loop_length_x, g.loop_width_y
    s %= g.perimeter
    if s < lx:
        return (s, 0.0)
    s -= lx
    if s < wy:
        return (lx, s)
    s -= wy
    return (lx - s, wy) if s < lx else (0.0, wy - (s - lx))


small = total_coverage()
large = partial_coverage()
print(f"small loop: {small.loop_length_x:.0f} x {small.loop_width_y:.0f} m, "
      f"perimeter {small.perimeter:.0f} m, coverage everywhere")
print(f"large loop: {large.loop_length_x:.0f} x {large.loop_width_y:.0f} m, "
      f"perimeter {large.perimeter:.0f} m, cell radius {large.coverage_radius:.0f} m")
print()

speed = 100.0 / 3.6
offsets = start_offsets(large, n_vehicles=4, seed=7)
coverage = coverage_function(large, offsets, speed)  # coverage(vehicle id, t) -> (covered, until)
for vid, offset in enumerate(offsets):
    direction = "clockwise" if vid % 2 == 0 else "counterclockwise"  # by id parity
    print(f"vehicle {vid}: starts at arc length {offset:7.1f} m, {direction}")
print()

# sample one lap of vehicle 0 and report every coverage transition
lap = large.perimeter / speed
print(f"vehicle 0 laps the loop in {lap:.0f} s at {speed * 3.6:.0f} km/h")
was_covered = None
t = 0.0
while t <= lap:
    covered = coverage(0, t)[0]
    if covered != was_covered:
        x, y = point_on_loop(offsets[0] + speed * t, large)
        state = "enters coverage" if covered else "leaves coverage"
        print(f"  t = {t:6.1f} s  position ({x:7.1f}, {y:4.1f})  {state}")
        was_covered = covered
    t += 0.5

share = sum(coverage(0, 0.1 * k)[0] for k in range(int(lap * 10))) / int(lap * 10)
print(f"\nfraction of the lap spent in coverage: {share:.1%}")
