"""Closed-form benchmarks the lattice must approach in limits.

The yardsticks computed here are the perpetual complete-market
investment threshold beta/(beta - 1) * I, with beta the positive root of
(sigma^2/2) b (b - 1) + (r - delta) b - r = 0 (the textbook Dixit-Pindyck
threshold), and its incomplete-market counterpart under exponential
utility, :func:`henderson_threshold`.  The two risk-aversion limits need
no function of their own:

* the risk-neutral-toward-idiosyncratic-risk limit (McDonald-Siegel
  style) is the lattice itself, ``solve`` at ``OptionSpec(gamma=0)``,
  where the certainty equivalent is its analytically evaluated
  gamma -> 0 linear limit;
* the net-present-value threshold reached as risk aversion grows without
  bound is the cost I itself.
"""

from __future__ import annotations

import math

__all__ = [
    "henderson_threshold",
    "perpetual_beta",
    "perpetual_threshold",
]


def perpetual_beta(sigma: float, r: float, delta: float) -> float:
    """Positive root of (sigma^2/2) b(b-1) + (r - delta) b - r = 0, > 1
    (but it may round to 1).

    Needs sigma^2/2 > 0 (a positive sigma whose square underflows is
    rejected too), r >= 0, a positive finite delta (at a nonpositive
    shortfall rate the threshold diverges) and a sigma large enough that
    beta does not overflow; ValueError otherwise.
    Uses the cancellation-free form of the quadratic formula: when the
    linear coefficient is large and positive the textbook numerator
    -b + sqrt(D) loses precision, so that branch is rewritten as
    2r / (b + sqrt(D)).
    """
    half_var = 0.5 * sigma * sigma
    if not (math.isfinite(sigma) and sigma > 0.0 and half_var > 0.0):
        raise ValueError("sigma must be positive, with a variance that does not underflow")
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError("r must be nonnegative")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if delta <= 0.0:
        raise ValueError("perpetual threshold diverges for delta <= 0")
    lin = r - delta - half_var
    disc = lin * lin + 4.0 * half_var * r
    root = math.sqrt(disc)
    if lin > 0.0:
        beta = 2.0 * r / (lin + root)
    else:
        beta = (root - lin) / (2.0 * half_var)
    if not math.isfinite(beta):
        raise ValueError("beta overflows: sigma is too small for this r and delta")
    return beta


def perpetual_threshold(sigma: float, r: float, delta: float, cost: float = 1.0) -> float:
    """Perpetual investment threshold beta / (beta - 1) * cost, with beta
    from :func:`perpetual_beta`; ``cost`` must be positive.  A beta that
    rounds to 1 (r and delta tiny against sigma^2) raises ValueError: the
    threshold overflows."""
    if not (math.isfinite(cost) and cost > 0.0):
        raise ValueError("cost must be positive")
    beta = perpetual_beta(sigma, r, delta)
    if not beta > 1.0:
        raise ValueError("threshold overflows: beta rounds to 1 for this r and delta")
    return beta / (beta - 1.0) * cost


def henderson_threshold(
    sigma2: float, delta: float, gamma: float, rho: float, cost: float = 1.0
) -> float:
    """Perpetual investment threshold V* of an investor with exponential
    utility of risk aversion ``gamma`` who hedges with an asset of
    correlation ``rho`` to the project (Henderson, "Valuing the option to
    invest in an incomplete market", Math. Finan. Econ. 1, 2007).

    The setting: the cost grows at the riskless rate (cost_growth = r), so
    the discounted strike is the constant ``cost`` I and the problem is
    time-homogeneous, and the project's shortfall ``delta`` is held, so
    its drift under the minimal martingale measure is -delta.  Then V*
    solves (exp(c (V* - I)) - 1) / c = V* / beta, with beta = 1 +
    2 delta / sigma2^2 and c = gamma (1 - rho^2), and lies between I and
    its c -> 0 limit beta / (beta - 1) I, which is
    ``perpetual_threshold(sigma2, 0, delta, cost)`` and what c = 0 returns.
    The root is bisected to the last bit.  ``sigma2``, ``delta`` and
    ``cost`` are checked as :func:`perpetual_threshold` checks them; a
    negative or non-finite gamma, or a rho outside [-1, 1], raises
    ValueError.
    """
    upper = perpetual_threshold(sigma2, 0.0, delta, cost)
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError("gamma must be nonnegative and finite")
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    c = gamma * (1.0 - rho * rho)
    if c == 0.0:
        return upper
    beta = perpetual_beta(sigma2, 0.0, delta)

    def excess(v: float) -> float:
        # (exp(c (v - I)) - 1) / c - v / beta: negative at I, convex, and
        # at least (v - I) - v / beta, which is 0 at the upper bound
        try:
            return math.expm1(c * (v - cost)) / c - v / beta
        except OverflowError:
            return math.inf

    lo, hi = cost, upper
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
