"""Dispatching into a coverage hole: registry staleness made visible.

On the long loop the cell radius leaves both ends dark. A vehicle beacons
while covered, the registry holds that entry for up to half a second, and a
task dispatched in that window can chase a vehicle that has already crossed
into the dark stretch. The forward leg then fails, and the record says so.

The fleet geometry is reproducible from the seed, so we can rebuild every
vehicle's trajectory after the fact and audit each dispatch decision.
``scenario.coverage_function`` is the run's own coverage test.
"""

from collections import Counter

from offloadsim.engine import KMH, RunConfig, run, summarize
from offloadsim.scenario import coverage_function, partial_coverage, start_offsets


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


cfg = RunConfig(
    strategy="VCCFirst",
    geometry=partial_coverage(),
    vehicle_speed=100.0 * KMH,
    seed=0,
)
records = run(cfg)
agg = summarize(records)
print(f"partial coverage at {cfg.vehicle_speed / KMH:.0f} km/h, seed {cfg.seed}: "
      f"{agg.n_requests} requests, {agg.fail_total_pct:.2f}% failed")
print("failures by leg:",
      dict(sorted(Counter(r.failed_leg for r in records if r.failed_leg).items())))

# rebuild the fleet and audit every vehicle dispatch offline
offsets = start_offsets(cfg.geometry, cfg.n_vehicles, cfg.seed)
coverage = coverage_function(cfg.geometry, offsets, cfg.vehicle_speed)
stale = []
for r in records:
    if r.vehicle_id is None:
        continue
    decided_at = r.created_at + r.t_up_access
    if not coverage(r.vehicle_id, decided_at)[0]:
        direction = -1 if r.vehicle_id % 2 else 1  # odd ids drive counterclockwise
        arc = offsets[r.vehicle_id] + direction * cfg.vehicle_speed * decided_at
        stale.append((r, point_on_loop(arc, cfg.geometry)))

print(f"\ndispatches to vehicles already outside the cell: {len(stale)}")
for r, (x, y) in stale[:5]:
    print(f"  task {r.task_id}: vehicle {r.vehicle_id} at ({x:7.1f}, {y:4.1f}) "
          f"-> {r.failed_leg}")
every = all(r.failed_leg == "GNB_TO_VCC" for r, _ in stale)
print(f"all of them failed on the gNB-to-vehicle leg: {every}")
