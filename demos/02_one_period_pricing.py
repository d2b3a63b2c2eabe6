"""One-period indifference pricing from first principles.

An investor holding cash and a traded hedge asset is offered a claim on
the non-traded project.  The price that leaves expected exponential
utility unchanged has a closed form, the g-function.  This script prices
a simple claim both ways (closed form and direct utility maximization),
then walks through the properties that make g a sensible price.
"""

from reopt import (
    MarketParams,
    PayoffPair,
    UtilityParams,
    calibrate,
    capm_equilibrium_rate,
    g_value,
    linear_limit_values,
    numeric_indifference_price,
)

# Base market; the project drift is the equilibrium return less a 4% shortfall.
rate = capm_equilibrium_rate(mu1=0.115, sigma1=0.25, sigma2=0.2, rho=0.5, r=0.04)
market = MarketParams(mu1=0.115, sigma1=0.25, mu2=rate - 0.04, sigma2=0.2, rho=0.5, r=0.04)
cal = calibrate(market, dt=1.0)
util = UtilityParams(gamma=1.0)

# A claim paying 0.3 if the project rises, nothing if it falls.
pay = PayoffPair(x_h=0.3, x_l=0.0)
closed = g_value(pay, cal, util)
numeric = numeric_indifference_price(pay, cal, util, x0=0.0)
print(f"closed-form price       : {closed:.10f}")
print(f"direct-optimization path: {numeric:.10f}")
print(f"difference              : {abs(closed - numeric):.2e}")
print()

# The price does not depend on how rich the investor already is.
for wealth in (0.0, 2.0, 10.0):
    pi = numeric_indifference_price(pay, cal, util, x0=wealth)
    print(f"initial wealth {wealth:5.1f} -> price {pi:.10f}")
print()

# Risk aversion moves the price between two limits: the linear
# certainty equivalent (gamma -> 0) and the worst-case payoff
# (gamma -> infinity).
low, high = float(linear_limit_values(pay.x_h, pay.x_l, cal)), min(pay)
print(f"gamma -> 0 limit        : {low:.6f}")
print(f"gamma -> infinity limit : {high:.6f}")
for gamma in (0.01, 0.1, 1.0, 10.0, 100.0):
    value = g_value(pay, cal, UtilityParams(gamma))
    print(f"  gamma = {gamma:7.2f}  g = {value:.6f}")
print()

# Cash amounts pass through unchanged: adding c to both payoffs adds c
# to the price.
base = g_value(PayoffPair(0.4, -0.1), cal, util)
shifted = g_value(PayoffPair(0.4 + 0.25, -0.1 + 0.25), cal, util)
print(f"cash invariance check   : {shifted - base:.10f} (expected 0.25)")
