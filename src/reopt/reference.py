"""Closed-form benchmarks the lattice must approach in limits.

Two yardsticks computed here:

* the perpetual complete-market investment threshold beta/(beta - 1) * I
  with beta the positive root of (sigma^2/2) b (b - 1) + (r - delta) b - r = 0
  (the textbook Dixit-Pindyck threshold),
* the risk-neutral-toward-idiosyncratic-risk limit (McDonald-Siegel
  style), obtained by running the lattice with the certainty equivalent
  replaced by its analytically evaluated gamma -> 0 linear limit.

The third, the net-present-value threshold reached as risk aversion grows
without bound, is the cost I itself and needs no function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import MarketParams
from .lattice import OptionSpec, ThresholdCurve, build_grid, solve

__all__ = [
    "DivergentThreshold",
    "PerpetualParams",
    "perpetual_beta",
    "perpetual_threshold",
    "risk_neutral_idiosyncratic_limit",
]


class DivergentThreshold(ValueError):
    """The perpetual threshold diverges (nonpositive shortfall rate)."""


@dataclass(frozen=True)
class PerpetualParams:
    """Inputs of the perpetual complete-market benchmark."""

    sigma: float
    r: float
    delta: float
    cost: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError("r must be nonnegative")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")
        if not (math.isfinite(self.cost) and self.cost > 0.0):
            raise ValueError("cost must be positive")


def perpetual_beta(sigma: float, r: float, delta: float) -> float:
    """Positive root of (sigma^2/2) b(b-1) + (r - delta) b - r = 0, always > 1.

    Uses the cancellation-free form of the quadratic formula: when the
    linear coefficient is large and positive the textbook numerator
    -b + sqrt(D) loses precision, so that branch is rewritten as
    2r / (b + sqrt(D)).
    """
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


def perpetual_threshold(p: PerpetualParams) -> float:
    """Perpetual investment threshold beta / (beta - 1) * cost."""
    beta = perpetual_beta(p.sigma, p.r, p.delta)
    return beta / (beta - 1.0) * p.cost


def risk_neutral_idiosyncratic_limit(
    market: MarketParams, option: OptionSpec, dt: float
) -> ThresholdCurve:
    """Exercise thresholds in the vanishing-risk-aversion limit.

    Runs the usual backward induction with the certainty equivalent
    replaced by its gamma -> 0 linear limit, so no small positive gamma
    has to be pushed through the exponential machinery.  Under the
    equilibrium-shortfall drift convention these thresholds approach the
    perpetual complete-market value at long maturity.
    """
    grid = build_grid(market, option, dt)
    return solve(market, option, grid, continuation="linear").curve
