"""Two more sweeps: onboard processor capacity and vehicle speed.

Scaling the per-vehicle processor down stretches the elaboration leg and the
time a task keeps its vehicle busy, so latency explodes at small fractions.
Scaling it up past the baseline barely helps: elaboration is only a quarter
of the end-to-end time, and the radio legs do not get any faster.

Speed feeds the loss model on the vehicle legs, so faster traffic fails more
tasks, though the rate stays in the low single digits.
"""

from offloadsim.engine import KMH, RunConfig, summarize_runs

SEEDS = (0, 1, 2)
FRACTIONS = (1 / 128, 1 / 32, 1 / 8, 1 / 2, 1, 2, 3)
SPEEDS_KMH = (13.1, 50.0, 100.0)


def seed_means(make_cfg, points, *fields):
    """Per point, the mean of each field over SEEDS; all runs share the CPUs."""
    aggs = iter(summarize_runs([make_cfg(point, seed) for point in points for seed in SEEDS]))
    means = []
    for _ in points:
        runs = [next(aggs) for _ in SEEDS]
        means.append([sum(getattr(agg, field) for agg in runs) / len(runs) for field in fields])
    return means


print("per-vehicle capacity sweep (fractions of the 71,120 MIPS baseline)")
print(f"{'fraction':>10} {'mean (ms)':>10}")
capacity_means = seed_means(
    lambda frac, seed: RunConfig(strategy="VCCFirst", vehicle_capacity=71120.0 * frac, seed=seed),
    FRACTIONS,
    "mean_total",
)
baseline = None
for frac, (mean,) in zip(FRACTIONS, capacity_means):
    mean *= 1e3
    if frac == 1:
        baseline = mean
    label = f"{frac:.5f}".rstrip("0").rstrip(".")
    print(f"{label:>10} {mean:10.3f}")
print(f"tripling capacity beyond the baseline only shaves "
      f"{baseline - mean:.2f} ms off {baseline:.2f} ms")

print("\nvehicle speed sweep (default full-coverage loop)")
print(f"{'speed':>12} {'failed %':>9} {'mean (ms)':>10}")
speed_means = seed_means(
    lambda kmh, seed: RunConfig(strategy="VCCFirst", vehicle_speed=kmh * KMH, seed=seed),
    SPEEDS_KMH,
    "fail_total_pct",
    "mean_total",
)
for kmh, (fail, mean) in zip(SPEEDS_KMH, speed_means):
    print(f"{kmh:9.1f} km/h {fail:9.3f} {mean * 1e3:10.3f}")
