"""Closed-form benchmarks the lattice must approach in limits.

Two yardsticks computed here:

* the perpetual complete-market investment threshold beta/(beta - 1) * I
  with beta the positive root of (sigma^2/2) b (b - 1) + (r - delta) b - r = 0
  (the textbook Dixit-Pindyck threshold),
* the risk-neutral-toward-idiosyncratic-risk limit (McDonald-Siegel
  style), obtained by running the lattice at gamma 0, where the certainty
  equivalent is its analytically evaluated gamma -> 0 linear limit.

The third, the net-present-value threshold reached as risk aversion grows
without bound, is the cost I itself and needs no function.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .calibration import MarketParams
from .lattice import OptionSpec, ThresholdCurve, build_grid, solve

__all__ = [
    "DivergentThreshold",
    "perpetual_beta",
    "perpetual_threshold",
    "risk_neutral_idiosyncratic_limit",
]


class DivergentThreshold(ValueError):
    """The perpetual threshold diverges (nonpositive shortfall rate)."""


def perpetual_beta(sigma: float, r: float, delta: float) -> float:
    """Positive root of (sigma^2/2) b(b-1) + (r - delta) b - r = 0, always > 1.

    Needs sigma > 0, r >= 0 and delta finite (ValueError otherwise); a
    nonpositive shortfall rate delta raises :class:`DivergentThreshold`.
    Uses the cancellation-free form of the quadratic formula: when the
    linear coefficient is large and positive the textbook numerator
    -b + sqrt(D) loses precision, so that branch is rewritten as
    2r / (b + sqrt(D)).
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError("sigma must be positive")
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError("r must be nonnegative")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if delta <= 0.0:
        raise DivergentThreshold("perpetual threshold diverges for delta <= 0")
    half_var = 0.5 * sigma * sigma
    lin = r - delta - half_var
    disc = lin * lin + 4.0 * half_var * r
    root = math.sqrt(disc)
    if lin > 0.0:
        beta = 2.0 * r / (lin + root)
    else:
        beta = (root - lin) / (2.0 * half_var)
    return beta


def perpetual_threshold(sigma: float, r: float, delta: float, cost: float = 1.0) -> float:
    """Perpetual investment threshold beta / (beta - 1) * cost, with beta
    from :func:`perpetual_beta`; ``cost`` must be positive."""
    if not (math.isfinite(cost) and cost > 0.0):
        raise ValueError("cost must be positive")
    beta = perpetual_beta(sigma, r, delta)
    return beta / (beta - 1.0) * cost


def risk_neutral_idiosyncratic_limit(
    market: MarketParams, option: OptionSpec, dt: float
) -> ThresholdCurve:
    """Exercise thresholds in the vanishing-risk-aversion limit.

    Runs the usual backward induction at ``gamma=0``, which takes the
    certainty equivalent's gamma -> 0 linear limit, so no small positive
    gamma has to be pushed through the exponential machinery;
    ``option.gamma`` is ignored.  Under the equilibrium-shortfall drift
    convention these thresholds approach the perpetual complete-market
    value at long maturity.
    """
    grid = build_grid(market, option, dt)
    return solve(market, replace(option, gamma=0.0), grid).curve
