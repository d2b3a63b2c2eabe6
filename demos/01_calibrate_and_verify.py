"""Calibrating the two-factor lattice and checking its moments.

The lattice approximates a pair of correlated diffusions over one time
step with four joint states.  This script calibrates the base market,
prints the resulting parameters, verifies the moment match against the
continuous-time targets, and shows where feasibility breaks down.
"""

from reopt import (
    CalibrationInfeasible,
    MarketParams,
    calibrate,
    capm_equilibrium_rate,
    verify_moments,
)

# Base market: traded asset with drift 11.5% and volatility 25%, project
# volatility 20%, riskless rate 4%.  The project drift comes from the
# equilibrium return minus a fixed 4% rate-of-return shortfall.
def base_market(rho, delta=0.04):
    rate = capm_equilibrium_rate(mu1=0.115, sigma1=0.25, sigma2=0.2, rho=rho, r=0.04)
    return MarketParams(mu1=0.115, sigma1=0.25, mu2=rate - delta, sigma2=0.2, rho=rho, r=0.04)


market = base_market(rho=0.5)

rate = capm_equilibrium_rate(market.mu1, market.sigma1, market.sigma2, market.rho, market.r)
print("equilibrium project return :", rate)
print("project drift (delta 0.04) :", market.mu2)
print()

cal = calibrate(market, dt=0.01)
print(f"multipliers  u = {cal.u:.6f}  d = {cal.d:.6f}  h = {cal.h:.6f}  l = {cal.l:.6f}")
print(f"risk-neutral up-weight q = {cal.q:.6f}")
print(f"joint probabilities      = ({cal.p1:.6f}, {cal.p2:.6f}, {cal.p3:.6f}, {cal.p4:.6f})")
print()

# The one-period means and the covariance are matched exactly, not just
# to leading order; verify_moments recomputes them by brute force over the
# four states.
for name, (got, want) in zip(("E[S1/S0]", "E[V1/V0]", "Cov"), verify_moments(cal, market)):
    print(f"{name:<10} = {got:.12f}   error = {got - want:+.2e}")
print()

# Feasibility: at high correlation the four probabilities can only stay
# inside (0, 1) if the step is fine enough.  With these drifts, rho = 0.99
# needs dt below roughly 1/317.
extreme = base_market(rho=0.99)
for dt in (0.01, 1.0 / 300.0, 1.0 / 400.0):
    try:
        calibrate(extreme, dt)
        print(f"rho = 0.99, dt = {dt:.5f}: feasible")
    except CalibrationInfeasible as exc:
        print(f"rho = 0.99, dt = {dt:.5f}: rejected ({exc})")
