"""One-period exponential-utility indifference pricing.

Core object is the certainty-equivalent operator g.  For a claim paying
``x_h`` in the project-up states and ``x_l`` in the project-down states
of the four-state lattice, an investor with utility U(x) = -exp(-gamma x)
who can trade the correlated asset values the claim at

    g(x_h, x_l) = (q / gamma)   * log[(p1 + p2) / (p1 e^{-gamma x_h} + p2 e^{-gamma x_l})]
                + ((1-q)/gamma) * log[(p3 + p4) / (p3 e^{-gamma x_h} + p4 e^{-gamma x_l})]

with q = (1 - d)/(u - d).  The module also provides an independent
numeric oracle that recovers the same price straight from the defining
utility-maximization problems, and g's gamma -> 0 limit, the linear
certainty equivalent :func:`linear_limit_values`.  The gamma -> infinity
limit is the subhedge value min(x_h, x_l) and needs no function.

All exponentials are shifted so that |gamma * payoff| of several hundred
causes no overflow; the naive form is never used here.  In general each
branch is a log-sum-exp anchored at its larger exponent.  Lattice columns
never decrease in V, so x_h >= x_l at every node; with positive weights
the anchor of both branches is then -gamma x_l, and each node needs the
one exponential exp(-gamma (x_h - x_l)) <= 1 and two logarithms.  Array
inputs take that path; a column with any node x_h < x_l, a zero or signed
weight, or scalar inputs take the general path.  Both paths perform the
same operations in the same order, except that the array path folds the
sign into gamma: it forms b = gamma x_dn and b - gamma x_up where the
general path forms a_dn = -gamma x_dn and a_up - a_dn, and adds b where
the general path subtracts a_dn.  Negation is exact in IEEE arithmetic,
signed zeros included, so the two paths agree bit for bit.

What is fixed per calibration is computed once, by the
:class:`LatticeCalibration` itself, not once per column: log(p1 + p2),
log(p3 + p4), 1 - q and whether all four weights are positive.  The array
path reads p1 .. p4, the two log masses, q and 1 - q from
``cal.g_operands``, as 0-d float64 arrays built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import LatticeCalibration

__all__ = [
    "BracketFailure",
    "UtilityParams",
    "PayoffPair",
    "g_value",
    "g_values",
    "linear_limit_values",
    "numeric_indifference_price",
]

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


class BracketFailure(RuntimeError):
    """The inner utility maximization could not bracket its optimum."""


@dataclass(frozen=True)
class UtilityParams:
    """Exponential-utility risk aversion, applied to discounted wealth.

    ``gamma`` must be strictly positive; the gamma -> 0 and
    gamma -> infinity limits of g are not admissible inputs but plain
    values: :func:`linear_limit_values` and ``min(x_h, x_l)``.
    """

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be positive and finite")


class PayoffPair(NamedTuple):
    """Discounted claim payoffs in the project-up and project-down states."""

    x_h: float
    x_l: float


def _branch_contribution(w_hi: float, w_lo: float, a_hi, a_lo):
    """log(w_hi + w_lo) - log(w_hi exp(a_hi) + w_lo exp(a_lo)), stably.

    Weights are scalars fixed by the calibration; exponents may be arrays.
    Zero weights cancel their log term exactly, so a degenerate branch
    returns -a outright; this keeps complete-market lattices free of
    gamma to relative rounding, not merely approximately.  A marginally
    negative weight from a relaxed calibration is anchored at the
    positive-weight exponent; if the mixture itself is not positive the
    value is undefined and rejected.
    """
    if w_lo == 0.0:
        return -a_hi
    if w_hi == 0.0:
        return -a_lo
    log_total = math.log(w_hi + w_lo)
    if w_hi > 0.0 and w_lo > 0.0:
        m = np.maximum(a_hi, a_lo)
        return log_total - m - np.log(w_hi * np.exp(a_hi - m) + w_lo * np.exp(a_lo - m))
    with np.errstate(over="ignore", invalid="ignore"):
        if w_hi > 0.0:
            out = log_total - a_hi - np.log(w_hi + w_lo * np.exp(a_lo - a_hi))
        else:
            out = log_total - a_lo - np.log(w_lo + w_hi * np.exp(a_hi - a_lo))
    if not np.all(np.isfinite(out)):
        raise ValueError(
            "certainty equivalent undefined: signed branch weight dominates the mixture"
        )
    return out


def _g_monotone(x_up: np.ndarray, x_dn: np.ndarray, cal: LatticeCalibration, gamma):
    """g on arrays with every exponent a_up <= a_dn and all weights positive,
    or None if some node has a_up > a_dn (in any lattice of a gamma stack).

    The log-sum-exp anchor of both branches is then a_dn, so each node
    needs one exponential e = exp(a_up - a_dn) and two logarithms.  The
    operations are those of :func:`_branch_contribution` with m = a_dn
    (where exp(a_dn - m) is exactly 1), in the same order, with the sign
    folded into gamma: b = gamma x_dn is exactly -a_dn, b - gamma x_up is
    exactly a_up - a_dn, and log_mass + b is exactly log_mass - a_dn, signed
    zeros included.  So the result is bit-identical to the general path.
    The calibration constants come from ``cal.g_operands`` as 0-d arrays.
    Works in place on arrays it allocates; the inputs are never written.
    """
    p1, p2, p3, p4, log_up_mass, log_down_mass, q, q_down = cal.g_operands
    b = np.multiply(x_dn, gamma)
    e = np.multiply(x_up, gamma)
    np.subtract(b, e, out=e)
    if not np.maximum.reduce(e, None) <= 0.0:  # every axis; also rejects NaN
        return None
    np.exp(e, out=e)
    up = np.multiply(e, p1)
    up += p2
    np.log(up, out=up)
    e *= p3
    e += p4
    np.log(e, out=e)
    dn = np.add(log_down_mass, b)
    dn -= e
    np.add(log_up_mass, b, out=b)
    b -= up
    b *= q
    dn *= q_down
    b += dn
    b /= gamma
    return b


def g_values(x_up, x_dn, cal: LatticeCalibration, gamma):
    """Vectorized certainty-equivalent operator.

    ``x_up`` and ``x_dn`` are the payoffs in the project-up and
    project-down states (arrays of equal shape, or scalars).  ``gamma`` is
    a scalar, or an array that broadcasts against them: a (K, 1) column
    values K lattices' rows, one risk aversion each, in one call.  This is the
    hot path of the lattice recursion: equal-shape arrays that never
    decrease from the down to the up state, under positive weights, take
    the single-exponential :func:`_g_monotone`; anything else takes the
    general shifted log-sum-exp path, with the same result bit for bit
    where both apply.
    """
    try:
        valid = 0.0 < gamma < math.inf  # also rejects NaN
    except ValueError:  # several gammas have no single truth value
        valid = 0.0 < gamma.min() <= gamma.max() < math.inf
    if not valid:
        raise ValueError("gamma must be positive and finite")
    x_up = np.asarray(x_up, dtype=float)
    x_dn = np.asarray(x_dn, dtype=float)
    if x_up.ndim and x_up.shape == x_dn.shape and cal.positive_weights:
        out = _g_monotone(x_up, x_dn, cal, gamma)
        if out is not None:
            return out
    a_up = -gamma * x_up
    a_dn = -gamma * x_dn
    branch_up = _branch_contribution(cal.p1, cal.p2, a_up, a_dn)
    branch_dn = _branch_contribution(cal.p3, cal.p4, a_up, a_dn)
    return (cal.q * branch_up + cal.q_down * branch_dn) / gamma


def g_value(pay: PayoffPair, cal: LatticeCalibration, util: UtilityParams) -> float:
    """Indifference price of the one-period claim (x_h, x_l)."""
    if not (math.isfinite(pay.x_h) and math.isfinite(pay.x_l)):
        raise ValueError("payoffs must be finite")
    return float(g_values(pay.x_h, pay.x_l, cal, util.gamma))


def linear_limit_values(x_up, x_dn, cal: LatticeCalibration):
    """gamma -> 0 limit of g, vectorized.

    A plain expectation under the measure that keeps the risk-neutral
    weight q on the traded-asset branches and the historical conditional
    probabilities within each branch.
    """
    x_up = np.asarray(x_up, dtype=float)
    x_dn = np.asarray(x_dn, dtype=float)
    up = (cal.p1 * x_up + cal.p2 * x_dn) / (cal.p1 + cal.p2)
    dn = (cal.p3 * x_up + cal.p4 * x_dn) / (cal.p3 + cal.p4)
    return cal.q * up + cal.q_down * dn


def numeric_indifference_price(
    pay: PayoffPair,
    cal: LatticeCalibration,
    util: UtilityParams,
    x0: float = 0.0,
) -> float:
    """Indifference price recomputed from the defining optimization problems.

    Solves max_H E[U(x0 + H R)] with and without the claim, where R =
    S_1/S_0 - 1 is the traded asset's one-period return (u - 1 or d - 1)
    and H the amount held in it, so the asset's level never enters.  It
    maximizes over H by a derivative-free bracketed search (tolerance
    1e-12), then finds the price pi equating the two optima by bisection
    (tolerance 1e-10).  The maximization is repeated at every bisection
    point, so the routine exercises the definition literally instead of
    exploiting the wealth separability of exponential utility; the result
    is nevertheless independent of ``x0``, which tests rely on.

    Each maximization fixes the wealth and the payoff, so log(-E[U]) at
    hedge H is the shifted log-sum-exp of c_i - k_i H over the four
    terminal states, with c_i = log p_i - gamma (wealth + payoff_i) and
    k_i = gamma R_i computed once per maximization, not once per
    evaluation.  Under positive weights the sum is written out over the
    four states; zero weights drop out, and marginally signed weights
    from a relaxed calibration enter the shifted sum as p_i exp(...).

    Kept free of any code shared with :func:`g_value` so the two routes
    stay independent checks of one another.

    Raises
    ------
    ValueError
        If a signed weight makes the expected utility non-negative, i.e.
        undefined, at some evaluated hedge.
    BracketFailure
        If the inner objective cannot be bracketed, which indicates a
        degenerate calibration (e.g. a dominated branch turning the
        expected utility monotone in H).
    """
    gamma = util.gamma
    xh, xl = pay.x_h, pay.x_l
    if not (math.isfinite(xh) and math.isfinite(xl) and math.isfinite(x0)):
        raise ValueError("payoffs and initial wealth must be finite")

    probs = [float(p) for p in cal.probabilities]
    returns = (cal.u - 1.0, cal.u - 1.0, cal.d - 1.0, cal.d - 1.0)
    slopes = [gamma * ret for ret in returns]
    positive = min(probs) > 0.0
    exp, log = math.exp, math.log

    def log_neg_utility(wealth: float, payoff):
        # log(-E[U]) as a function of the hedge, for this wealth and payoff.
        if positive:
            c1, c2, c3, c4 = (
                math.log(p) - gamma * (wealth + x) for p, x in zip(probs, payoff)
            )
            k1, k2, k3, k4 = slopes

            def f(hedge: float) -> float:
                e1 = c1 - k1 * hedge
                e2 = c2 - k2 * hedge
                e3 = c3 - k3 * hedge
                e4 = c4 - k4 * hedge
                m = max(e1, e2, e3, e4)
                return m + log(exp(e1 - m) + exp(e2 - m) + exp(e3 - m) + exp(e4 - m))

            return f

        # Zero weights drop out; marginally signed weights (relaxed
        # calibrations) enter the shifted sum directly.
        terms = [
            (math.log(p) - gamma * (wealth + x), k)
            for p, x, k in zip(probs, payoff, slopes)
            if p > 0.0
        ]
        signed = [
            (p, -gamma * (wealth + x), k)
            for p, x, k in zip(probs, payoff, slopes)
            if p < 0.0
        ]

        def f(hedge: float) -> float:
            exponents = [c - k * hedge for c, k in terms]
            m = max(exponents)
            total = sum([exp(e - m) for e in exponents])
            for p, c, k in signed:
                total += p * exp(c - k * hedge - m)
            if total <= 0.0:
                raise ValueError("expected utility undefined for signed branch weights")
            return m + log(total)

        return f

    def maximize_utility(wealth: float, payoff) -> float:
        # Bracket geometrically from the wealth scale, then golden section.
        f = log_neg_utility(wealth, payoff)
        width = max(1.0, abs(xh), abs(xl)) / (gamma * (cal.u - cal.d))
        centre = f(0.0)
        for _ in range(200):
            if f(-width) > centre and f(width) > centre:
                break
            width *= 2.0
        else:
            raise BracketFailure("could not bracket the optimal hedge")
        lo, hi = -width, width
        c = hi - _GOLD * (hi - lo)
        d = lo + _GOLD * (hi - lo)
        fc, fd = f(c), f(d)
        while hi - lo > 1e-12:
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - _GOLD * (hi - lo)
                fc = f(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _GOLD * (hi - lo)
                fd = f(d)
        return f(0.5 * (lo + hi))

    zero = (0.0, 0.0, 0.0, 0.0)
    claim = (xh, xl, xh, xl)
    base = maximize_utility(x0, zero)

    def gap(price: float) -> float:
        # log(-u with claim at wealth x0 - price) - log(-u without claim);
        # strictly increasing in price, zero at the indifference price.
        return maximize_utility(x0 - price, claim) - base

    lo = min(xh, xl) - 1.0
    hi = max(xh, xl) + 1.0
    glo, ghi = gap(lo), gap(hi)
    for _ in range(100):
        if glo < 0.0 and ghi > 0.0:
            break
        if glo >= 0.0:
            lo -= hi - lo
            glo = gap(lo)
        if ghi <= 0.0:
            hi += hi - lo
            ghi = gap(hi)
    else:
        raise BracketFailure("could not bracket the indifference price")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
