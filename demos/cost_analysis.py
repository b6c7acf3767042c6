"""Edge ownership versus paying vehicle owners per request.

The operator either buys and maintains an edge CPU (capital outlay on a
three-year replacement cycle, yearly maintenance, a per-request fee) or pays
vehicles the same per-request fee plus a bonus. The comparison reduces to one
number: the break-even bonus, the premium per request at which both options
cost the same.
"""

from offloadsim.costmodel import BONUS_IN_EC_REQUESTS, CostParams, cost_row, savings, vcc_bonus

p = CostParams()
volume = p.requests()
print(f"defaults: {p.users:.0f} users at {p.request_rate:.0f} req/s for "
      f"{p.alpha:.0f} active seconds a year -> {volume:.3e} requests/year")


def print_composition(request_scale):
    for beta in (0.0, 1e-6, 2e-6):
        row = cost_row(p._replace(beta=beta), request_scale, BONUS_IN_EC_REQUESTS)
        print(f"{beta:8.0e} {row.capex_ec_pct:7.2f} {row.ec_main_pct:7.2f} "
              f"{row.ec_req_pct:7.2f} | {row.vcc_req_pct:6.2f}")


print("\ncost composition at full request volume (percent of each side's total)")
print(f"{'beta':>8} {'capex':>7} {'maint':>7} {'req':>7} | {'vcc':>6}")
print_composition(1.0)

print("\nsame composition at 1% of the request volume")
print_composition(0.01)

print("\ntotals over multi-year horizons at zero bonus ($)")
print(f"{'years':>6} {'edge':>14} {'vehicular':>14} {'savings':>12}")
for years in (1.0, 3.0, 5.0):
    row = cost_row(p._replace(years=years), 1.0, BONUS_IN_EC_REQUESTS)
    print(f"{years:6.0f} {row.ec_total_usd:14,.2f} {row.vcc_total_usd:14,.2f} "
          f"{row.ec_total_usd - row.vcc_total_usd:12,.2f}")

b_star = vcc_bonus(p)
print(f"\nbreak-even bonus: {b_star:.4e} $ per request")
for beta in (0.0, b_star / 2, b_star, 2 * b_star):
    s = savings(CostParams(beta=beta))
    verdict = "vehicles cheaper" if s > 0 else ("tie" if abs(s) < 1e-6 else "edge cheaper")
    print(f"  beta {beta:.3e}: yearly savings {s:12,.2f} $  ({verdict})")
