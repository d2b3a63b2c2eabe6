"""Closed-form benchmarks the lattice must approach in limits.

The one yardstick computed here is the perpetual complete-market
investment threshold beta/(beta - 1) * I, with beta the positive root of
(sigma^2/2) b (b - 1) + (r - delta) b - r = 0 (the textbook Dixit-Pindyck
threshold).  The two risk-aversion limits need no function of their own:

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
    "DivergentThreshold",
    "perpetual_beta",
    "perpetual_threshold",
]


class DivergentThreshold(ValueError):
    """The perpetual threshold diverges (nonpositive shortfall rate)."""


def perpetual_beta(sigma: float, r: float, delta: float) -> float:
    """Positive root of (sigma^2/2) b(b-1) + (r - delta) b - r = 0, > 1
    (but it may round to 1).

    Needs sigma^2/2 > 0 (a positive sigma whose square underflows is
    rejected too), r >= 0 and delta finite, and a sigma large enough that
    beta does not overflow (ValueError otherwise); a nonpositive shortfall
    rate delta raises :class:`DivergentThreshold`.
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
        raise DivergentThreshold("perpetual threshold diverges for delta <= 0")
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

