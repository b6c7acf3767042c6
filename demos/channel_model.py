"""Transfer times and loss probabilities of the calibrated channel.

Radio legs pay a fixed one-way floor plus a serialization term that stretches
when transfers share the link (processor sharing). Loss grows linearly with
the mobile endpoint's speed. Wired legs are one constant latency and never lose.
"""

import random

from offloadsim.channel import Link, lena_calibrated

cfg = lena_calibrated()
size = 4000.0  # bytes, the default task payload

print("one-way leg time for a 4000 byte payload (ms)")
print(f"{'link':>14} {'alone':>8} {'2 shared':>9} {'8 shared':>9}")
for link in ("pue_up", "vue_up"):
    times = [Link(getattr(cfg, link), size).transfer_time(k) * 1e3 for k in (1, 2, 8)]
    print(f"{link:>14} {times[0]:8.3f} {times[1]:9.3f} {times[2]:9.3f}")
for link in ("cn_up", "internet_up"):  # a wired leg takes its latency whatever the load
    ms = getattr(cfg, link) * 1e3
    print(f"{link:>14} {ms:8.3f} {ms:9.3f} {ms:9.3f}")

print("\nper-leg loss probability by endpoint speed")
print(f"{'speed':>10} {'radio leg':>10}")
for kmh in (0.0, 13.1, 50.0, 100.0):
    p = Link(cfg.vue_up, speed=kmh / 3.6).p_loss
    print(f"{kmh:7.1f} km/h {p:10.5f}")

# empirical check: fire a hundred thousand legs at 100 km/h and count losses
rng = random.Random(11)
speed = 100.0 / 3.6
leg = Link(cfg.vue_up, size, speed)
n = 100_000
lost = sum(leg.send(rng, float(i)) is None for i in range(n))  # 1 s apart: no leg shares the air
print(f"\n{n} legs at 100 km/h: lost {lost} ({lost / n:.5f}; model says {leg.p_loss:.5f})")
