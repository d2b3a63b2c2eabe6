"""How fast finite-horizon thresholds approach the perpetual benchmark.

Infinite-horizon formulas are convenient, but their thresholds can be a
poor guide for realistic maturities.  This script computes time-zero
thresholds for horizons from one to forty years in the vanishing-risk-
aversion limit and compares them with the perpetual value; convergence
is visibly slow, so stationary answers overstate the waiting region for
typical project lifetimes.
"""

from reopt import (
    MarketParams,
    OptionSpec,
    build_grid,
    capm_equilibrium_rate,
    perpetual_threshold,
    solve,
)

DT = 1.0 / 300.0

rate = capm_equilibrium_rate(mu1=0.115, sigma1=0.25, sigma2=0.2, rho=0.9, r=0.04)
market = MarketParams(mu1=0.115, sigma1=0.25, mu2=rate - 0.04, sigma2=0.2, rho=0.9, r=0.04)
perpetual = perpetual_threshold(sigma=0.2, r=0.04, delta=0.04, cost=1.0)


def limit_curve(maturity):
    """Thresholds at gamma 0, the lattice's vanishing-risk-aversion limit."""
    option = OptionSpec(cost=1.0, maturity=maturity, gamma=0.0)
    return solve(market, option, build_grid(market, option, DT)).curve


print(f"perpetual benchmark: {perpetual:.4f}")
print()
print("  T (years)   threshold   gap to perpetual")
for maturity in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
    thr = limit_curve(maturity).spot_t0
    print(f"  {maturity:8.0f}   {thr:9.4f}   {perpetual - thr:10.4f}")

print()
print("The same curve read along a single 40-year lattice, every 5 years:")
curve = limit_curve(40.0)
for years in range(0, 41, 5):
    n = int(years / curve.t[1]) if years else 0
    print(
        f"  t = {years:4.1f}  time to maturity {curve.time_to_maturity[n]:5.1f}"
        f"  spot threshold {curve.threshold_spot[n]:7.4f}"
    )
