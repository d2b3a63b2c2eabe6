"""Two-factor binomial lattice calibration.

Maps a pair of correlated geometric diffusions (a traded asset and a
non-traded project value, both expressed in units of the riskless cash
account) onto a one-period lattice with four joint states:

    (up, up)   with probability p1      traded up,   project up
    (up, dn)   with probability p2      traded up,   project down
    (dn, up)   with probability p3      traded down, project up
    (dn, dn)   with probability p4      traded down, project down

The multipliers are the usual exponential choices u = exp(sigma1*sqrt(dt)),
h = exp(sigma2*sqrt(dt)) with d = 1/u and l = 1/h.  The probabilities are
the unique solution of the moment conditions

    p1 + p2 = a := (exp((mu1 - r) dt) - d) / (u - d)
    p1 + p3 = b := (exp((mu2 - r) dt) - l) / (h - l)
    p1 + p2 + p3 + p4 = 1
    (u - d)(h - l)(p1 p4 - p2 p3) = rho sigma1 sigma2 dt

Because p1 p4 - p2 p3 = p1 - a b whenever the probabilities sum to one,
the system is linear and the solution is closed form.  The one-period
means of S1/S0 and V1/V0 and their covariance are then matched exactly;
the variances are matched to first order in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "CalibrationInfeasible",
    "MarketParams",
    "LatticeCalibration",
    "calibrate",
    "verify_moments",
    "capm_equilibrium_rate",
]

# Containers tolerate this much structural slack (floating point dust plus
# deliberately signed probability vectors produced by calibrate(p_tol=...)).
_CONTAINER_P_SLACK = 1e-3
_SUM_TOL = 1e-9


class CalibrationInfeasible(ValueError):
    """No admissible probability vector matches the requested moments."""


@dataclass(frozen=True)
class MarketParams:
    """Continuous-time market description.

    Drifts and the riskless rate are per year, volatilities per
    square-root year.  ``rho`` is the instantaneous correlation between
    the traded asset and the project value, and ``v0`` the project value
    at time 0.  The traded asset enters the valuation only through its
    returns, so it has no initial level here.
    """

    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    rho: float
    r: float
    v0: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise ValueError("sigma1 and sigma2 must be positive")
        if self.v0 <= 0.0:
            raise ValueError("v0 must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")


@dataclass(frozen=True)
class LatticeCalibration:
    """One-period lattice parameters.

    ``d = 1/u``, ``l = 1/h`` and ``q = (1 - d) / (u - d)``, the
    risk-neutral up-probability of the traded asset, are derived from the
    multipliers and stored once, at construction.  So are the constants
    the certainty equivalent g reads at every lattice column:
    ``log_up_mass = log(p1 + p2)``, ``log_down_mass = log(p3 + p4)``,
    ``q_down = 1 - q`` and ``positive_weights``, whether all four
    probabilities are strictly positive.  ``r`` is carried along
    so downstream consumers can convert between discounted and spot
    quantities without re-threading the market description.

    The container enforces structural invariants (multipliers above one,
    branch masses, probability sum) but deliberately
    admits probability entries on the boundary of [0, 1] and tiny signed
    excursions: degenerate complete-market lattices (p2 = p3 = 0) and
    marginally infeasible calibrations accepted via ``calibrate(p_tol=...)``
    are representable.  Strict open-interval feasibility is the job of
    :func:`calibrate`.
    """

    u: float
    h: float
    p1: float
    p2: float
    p3: float
    p4: float
    dt: float
    r: float
    d: float = field(init=False)
    l: float = field(init=False)
    q: float = field(init=False)
    log_up_mass: float = field(init=False)
    log_down_mass: float = field(init=False)
    q_down: float = field(init=False)
    positive_weights: bool = field(init=False)

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (1.0 < self.u < math.inf and 1.0 < self.h < math.inf):
            raise ValueError("u and h must be finite and greater than 1")
        ps = (self.p1, self.p2, self.p3, self.p4)
        if any(not math.isfinite(p) for p in ps):
            raise ValueError("probabilities must be finite")
        if any(p < -_CONTAINER_P_SLACK or p > 1.0 + _CONTAINER_P_SLACK for p in ps):
            raise ValueError("probabilities are outside the admissible range")
        if abs(sum(ps) - 1.0) > _SUM_TOL:
            raise ValueError("probabilities must sum to 1")
        if self.p1 + self.p2 <= 0.0 or self.p3 + self.p4 <= 0.0:
            raise ValueError("each traded-asset branch needs positive mass")
        if not math.isfinite(self.r):
            raise ValueError("r must be finite")
        d = 1.0 / self.u
        q = (1.0 - d) / (self.u - d)
        derive = object.__setattr__
        derive(self, "d", d)
        derive(self, "l", 1.0 / self.h)
        derive(self, "q", q)
        derive(self, "log_up_mass", math.log(self.p1 + self.p2))
        derive(self, "log_down_mass", math.log(self.p3 + self.p4))
        derive(self, "q_down", 1.0 - q)
        derive(self, "positive_weights", min(ps) > 0.0)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p4])


def calibrate(market: MarketParams, dt: float, p_tol: float = 0.0) -> LatticeCalibration:
    """Solve the one-period moment-matching equations for the given step.

    Parameters
    ----------
    market : MarketParams
        Continuous-time parameters to match.
    dt : float
        Time step in years, positive.
    p_tol : float, optional
        Feasibility slack.  With the default 0.0 every probability must
        lie strictly inside (0, 1) and boundary-touching solutions are
        rejected (never clamped, which would silently change the matched
        moments).  A small positive value admits the exact moment-matched
        solution even when one entry strays outside [0, 1] by less than
        ``min(p_tol, 1e-3)`` (the container's limit); the vector is then a
        signed measure and the moments remain exact.  Intended for
        configurations sitting just outside the feasibility boundary, e.g.
        |rho| near 1 with a time step slightly too coarse.

    Raises
    ------
    CalibrationInfeasible
        If a branch mass or a probability falls outside the admissible
        range, which signals that dt is too large or |rho| too extreme
        for the given drifts; or if dt is so small that u or h rounds
        to 1, leaving the lattice no step.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not p_tol >= 0.0:  # also NaN, which would fail every probability check
        raise ValueError("p_tol must be nonnegative")

    sq = math.sqrt(dt)
    u = math.exp(market.sigma1 * sq)
    d = 1.0 / u
    h = math.exp(market.sigma2 * sq)
    l = 1.0 / h
    if not (u > 1.0 and h > 1.0):  # u - d or h - l would be 0
        raise CalibrationInfeasible(
            f"dt={dt:.6g} too small: exp(sigma sqrt(dt)) rounds to 1, no step up or down"
        )

    a = (math.exp((market.mu1 - market.r) * dt) - d) / (u - d)
    b = (math.exp((market.mu2 - market.r) * dt) - l) / (h - l)
    if not (0.0 < a < 1.0):
        raise CalibrationInfeasible(
            f"traded-asset branch mass a={a:.6g} outside (0, 1); dt too large"
        )
    if not (0.0 < b < 1.0):
        raise CalibrationInfeasible(
            f"project branch mass b={b:.6g} outside (0, 1); dt too large"
        )

    p1 = a * b + market.rho * market.sigma1 * market.sigma2 * dt / ((u - d) * (h - l))
    p2 = a - p1
    p3 = b - p1
    p4 = 1.0 - a - b + p1

    slack = min(p_tol, _CONTAINER_P_SLACK)
    lo, hi = -slack, 1.0 + slack
    for name, p in (("p1", p1), ("p2", p2), ("p3", p3), ("p4", p4)):
        if not lo < p < hi:
            raise CalibrationInfeasible(
                f"{name}={p:.6g} outside (0, 1); dt too large or |rho| too "
                f"extreme for the given drifts"
            )

    return LatticeCalibration(u=u, h=h, p1=p1, p2=p2, p3=p3, p4=p4, dt=dt, r=market.r)


def verify_moments(
    cal: LatticeCalibration, market: MarketParams
) -> tuple[tuple[float, float], ...]:
    """Recompute E[S1/S0], E[V1/V0] and their covariance over the four states.

    Returns the three (lattice value, continuous target) pairs, in that
    order.  This is a direct expectation over the joint states, independent
    of the closed-form solution path, so it doubles as a self-check: the
    mean and covariance deviations are zero to machine precision by
    construction.
    """
    p = cal.probabilities
    x = np.array([cal.u, cal.u, cal.d, cal.d])
    y = np.array([cal.h, cal.l, cal.h, cal.l])
    mean_x = float(p @ x)
    mean_y = float(p @ y)
    cov = float(p @ (x * y)) - mean_x * mean_y
    return (
        (mean_x, math.exp((market.mu1 - market.r) * cal.dt)),
        (mean_y, math.exp((market.mu2 - market.r) * cal.dt)),
        (cov, market.rho * market.sigma1 * market.sigma2 * cal.dt),
    )


def capm_equilibrium_rate(mu1: float, sigma1: float, sigma2: float, rho: float, r: float) -> float:
    """Equilibrium expected return ``r + rho * (mu1 - r) / sigma1 * sigma2``
    of a project with volatility ``sigma2`` and correlation ``rho`` to a
    traded asset of drift ``mu1`` and volatility ``sigma1``.

    A project drift mu2 below this rate by a shortfall delta, the
    incomplete-market analogue of a dividend yield, is
    ``capm_equilibrium_rate(...) - delta``.
    """
    return r + rho * (mu1 - r) / sigma1 * sigma2
