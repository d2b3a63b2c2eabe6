"""Backward induction for the early-exercise investment option.

The project value lives on a ladder of 2M+1 rows

    V(i) = h^(M+1-i) * V0,     i = 1, ..., 2M+1

(highest value in row 1, V0 in the middle row), repeated across N+1 time
columns.  Option values are filled from maturity backwards: at every
interior node the investor compares the immediate exercise value with
the certainty equivalent of the two project successors one step ahead,

    C[i, n] = max( (V(i) - K_n)^+ , g(C[i-1, n+1], C[i+1, n+1]) )

where K_n = exp((alpha - r) t_n) * I is the discounted investment cost
(cost I growing at rate alpha) and the first argument of g is the
project-up successor.  The top row is always exercised, the bottom row
is worthless.  All quantities are discounted; spot conversions happen
only in reporting helpers.

High rows exercise in every column, so :func:`backward_induce` runs g
only on the rows below a bound (about 60% of a base lattice's rows) and
induces every row again if a column's exercise boundary reaches it.
Each column costs g and one ``np.maximum``; the exercise values, the
rows above the bound and the exercise summaries (the first row that does
not exercise, and how many rows do) are worked out once per block of
columns.  The ring of column slots holds one block and the column that
block reads, never the full grid.

:func:`build_grid` sizes both axes in one place: N steps of the exact
size T / N, and M rows above and below V0, enough for the drift, four
standard deviations and the largest discounted strike over the horizon.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import indifference
from .calibration import LatticeCalibration, MarketParams, calibrate
from .indifference import g_values, linear_limit_values
from .reference import perpetual_threshold

__all__ = [
    "OptionSpec",
    "GridSpec",
    "ValueGrid",
    "ThresholdCurve",
    "build_grid",
    "backward_induce",
    "extract_thresholds",
    "Solution",
    "solve",
    "solve_gammas",
    "value_curve",
]

_MAX_AXIS = 10**9  # most time steps, or rows above V0: a 10**9-row column takes 8 GB
_MIN_GAMMA_COST = 1e-7  # least gamma * cost g values: there its rounding is ~1e-5 of a base value
_BLOCK = 32  # columns per block of backward_induce, whose ring holds B + 1 columns


@dataclass(frozen=True)
class OptionSpec:
    """The investment opportunity: pay ``cost`` for the project, any time
    up to ``maturity``.  ``cost_growth`` lets the cost drift at a fixed
    rate alpha (0 keeps it constant, alpha = r reproduces the constant
    discounted strike case).  ``gamma`` is the risk aversion toward the
    unhedgeable risk; 0 values the option in its linear limit (see
    :func:`backward_induce`)."""

    cost: float
    maturity: float
    gamma: float
    cost_growth: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.cost) and self.cost > 0.0):
            raise ValueError("cost must be positive")
        if not (math.isfinite(self.maturity) and self.maturity > 0.0):
            raise ValueError("maturity must be positive")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("gamma must be nonnegative")
        if not math.isfinite(self.cost_growth):
            raise ValueError("cost_growth must be finite")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the valuation grid: N time steps of size dt and a
    ladder of 2M+1 project-value rows, strictly decreasing, with the
    middle row ``row_values[M]`` equal to the market's v0 exactly."""

    n_steps: int
    half_height: int
    dt: float
    row_values: np.ndarray

    @property
    def n_rows(self) -> int:
        return 2 * self.half_height + 1

    @property
    def step_ratio(self) -> float:
        """Multiplicative spacing h between adjacent rows."""
        m = self.half_height
        return float(self.row_values[m - 1] / self.row_values[m])


def build_grid(
    market: MarketParams,
    option: OptionSpec,
    dt: float,
    half_height: int | None = None,
) -> GridSpec:
    """Size and lay out the grid for a requested time step.

    N = max(1, round(maturity / dt)) steps of the exact size step =
    maturity / N.  Unless ``half_height`` pins it, M is chosen so the
    ladder spans four standard deviations of log V above the largest
    discounted strike:

    M = ceil[ (|mu2 - r - sigma2^2/2| T + 4 sigma2 sqrt(T)
               + max(0, log(K_max / V0))) / (sigma2 sqrt(step)) ],

    i.e. the drift plus four diffusion standard deviations of the log
    project value over the horizon, plus the distance from V0 up to
    K_max = cost exp(max(0, alpha - r) T), measured in grid steps.  The
    last term is zero whenever cost <= V0 and alpha <= r.

    Calibration feasibility is checked later, by :func:`solve`, so an
    infeasible grid still reports its size.  A grid too large to lay out
    raises ValueError.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    n_steps = option.maturity / dt
    if not n_steps <= _MAX_AXIS:
        raise ValueError(f"the grid needs N = {n_steps:.3g} time steps, over {_MAX_AXIS:.0e}")
    n_steps = max(1, round(n_steps))
    step = option.maturity / n_steps
    if half_height is None:
        drift = abs(market.mu2 - market.r - market.sigma2**2 / 2.0) * option.maturity
        spread = 4.0 * market.sigma2 * math.sqrt(option.maturity)
        growth = max(0.0, option.cost_growth - market.r) * option.maturity
        strike = max(0.0, math.log(option.cost / market.v0) + growth)
        cell = max(market.sigma2 * math.sqrt(step), math.ulp(0.0))  # > 0 even if it underflows
        m = (drift + spread + strike) / cell
        if not m <= _MAX_AXIS:
            raise ValueError(f"the ladder needs M = {m:.3g} rows above V0, over {_MAX_AXIS:.0e}")
        half_height = max(math.ceil(m), 1)
    if half_height < 1:
        raise ValueError("half_height must be at least 1")
    h = math.exp(market.sigma2 * math.sqrt(step))
    exponents = np.arange(half_height, -half_height - 1, -1, dtype=float)
    rows = market.v0 * h**exponents
    return GridSpec(n_steps=n_steps, half_height=half_height, dt=step, row_values=rows)


@dataclass
class ValueGrid:
    """Result of the backward induction.

    ``values_t0`` is the time-0 column; the induction keeps a ring of
    B + 1 columns, one block of B = 32 and the column it reads (see
    :func:`backward_induce`), never the full grid.  Per-column exercise
    summaries are recorded so thresholds can be extracted:

    ``exercise_depth[n]``  number of consecutive exercised rows from the top;
    ``anomalous[n]``       an exercised node exists below that run, i.e. more
                           rows exercise than the run holds and the
                           exercise region is not an up-set in V (flagged,
                           never repaired).

    A node exercises where the exercise value attains the maximum (ties
    count as exercise) and is strictly positive; the latter keeps the
    worthless bottom boundary, where 0 ties with 0, out of the exercise
    region.  At maturity the exercised rows are those in the money, a
    run from the top, so the last column is never anomalous.

    An induction of K risk aversions at once (``backward_induce``'s
    ``gammas``) puts a leading axis of length K on every array.
    """

    values_t0: np.ndarray
    exercise_depth: np.ndarray
    anomalous: np.ndarray


def backward_induce(
    grid: GridSpec,
    cal: LatticeCalibration,
    option: OptionSpec,
    gammas: Sequence[float] | None = None,
) -> ValueGrid:
    """Fill the grid from maturity backwards and record exercise decisions.

    The certainty-equivalent operator is the exponential-utility g at
    ``option.gamma``; at gamma 0 it is g's analytically evaluated
    gamma -> 0 limit, ``linear_limit_values`` (the risk-neutral benchmark,
    where a vanishing gamma would be numerically fragile in g).  A positive
    gamma with gamma * cost below 1e-7 raises ValueError: there g's rounding
    (about 1.6e-13 / gamma at dt = 1/900) outweighs what risk aversion
    changes, and at gamma * (x_up - x_dn) below float64 resolution g returns
    x_dn, the gamma -> infinity value.  A gamma whose product with the
    largest payoff g is given, V - min K_n at row ``top`` - 1, overflows
    raises ValueError before g runs, where g would return NaN.  Either
    operator is called once per column, through this module's global, on
    contiguous views of the rows of the column one step later.

    Rows high on the ladder exercise in every column, so the operator runs
    only on rows ``top`` .. 2M-1, counting from 0 at the top: its views
    are rows top-1 .. 2M-2 and top+1 .. 2M of the column one step later,
    and the rows above ``top`` take V - K_n.  ``top`` is the next to last
    row whose V exceeds both the perpetual threshold B =
    ``perpetual_threshold(sigma2, r, delta, max K_n)`` of the lattice's
    own one-step growth m of V (sigma2 = log(h) / sqrt(dt), delta =
    -log(m) / dt), above which no boundary is expected, and
    (K_n - K_{n+1}) / (1 - m), which makes the skip exact: with
    nonnegative weights g never exceeds its linear limit, so where rows
    i-1 and i+1 exercise one step later, g at row i is at most
    m V - K_{n+1} <= V - K_n, and row i exercises too.  So every column
    n < N must exercise down to row ``top`` itself; if one does not, the
    induction runs again on every row.  Either way the result is that of
    inducing every row.  Without a bound (delta <= 0, r < 0 or a signed
    weight) every row is induced from the start.

    ``gammas``, a non-empty 1-D sequence of K risk aversions, takes the
    place of ``option.gamma``: neither the grid nor the calibration depends
    on gamma, so the K lattices are induced together on (K, 2M+1) columns,
    one numpy call doing K lattices' work.  Every array of the returned
    grid then gains a leading axis of length K, one row per gamma, and
    each row is bit for bit the single lattice at that gamma.  A stack is
    always g, so every gamma in it must be positive.

    Columns run in blocks of B = 32 on a ring of B + 1 column slots: the
    block of columns lo .. hi-1 fills slots B - (hi - lo) .. B-1, and
    slot B holds column hi, the one the block's last column reads: the
    payoff at first, then a copy of each block's first column, so the
    time-0 column ends there.  Per column only two numpy calls run: the
    operator, and an ``np.maximum`` of its result and the exercise value
    straight into the column's slot.  Per block a handful run: the
    exercise values (V - K_n)^+ of the block's columns, on the band of
    rows that are ever in the money (the rows below it stay 0); the rows
    above ``top`` in every slot, V - K_n, so that each slot holds its
    whole column when the operator reads it; and the block's exercise
    masks, with one ``argmin`` for the first row that does not exercise
    and one ``sum`` for how many rows do, so a column is anomalous where
    more rows exercise than lie above that first one.  These are the same
    IEEE operations as column by column, so the bits do not depend on
    the block size.

    Time columns are processed sequentially (hard data dependency); rows
    within a column are vectorized.  The whole routine is pure, so
    independent inductions may run in parallel.
    """
    if abs(cal.dt - grid.dt) > 1e-12 * max(1.0, grid.dt):
        raise ValueError("calibration and grid use different time steps")
    if gammas is None:
        gamma, lattices = option.gamma, ()
    else:
        gamma = np.array(gammas, dtype=float)
        if gamma.ndim != 1 or not gamma.size:
            raise ValueError(f"gammas must hold a non-empty 1-D list of risk aversions: {gammas}")
        if not 0.0 < gamma.min() <= gamma.max() < math.inf:  # also rejects NaN
            raise ValueError("gamma must be positive and finite")
        gamma, lattices = gamma.reshape(-1, 1), gamma.shape  # a row per lattice
    if not lattices and gamma == 0.0:
        cont_of = lambda x_up, x_dn: linear_limit_values(x_up, x_dn, cal)
    else:
        cont_of = lambda x_up, x_dn: g_values(x_up, x_dn, cal, gamma)
        if 0.0 < np.min(gamma) * option.cost < _MIN_GAMMA_COST:
            raise ValueError(
                f"gamma * cost = {np.min(gamma) * option.cost:.3g} is below "
                f"{_MIN_GAMMA_COST:.0e}, where g's rounding outweighs risk aversion; "
                "gamma 0 values the option in its linear limit"
            )

    n_steps, rows, v = grid.n_steps, grid.n_rows, grid.row_values
    if not np.all(v[1:] < v[:-1]):
        raise ValueError("row values must be strictly decreasing")
    t = np.arange(n_steps + 1) * grid.dt
    strike = option.cost * np.exp((option.cost_growth - cal.r) * t)
    if v[0] - strike.max() < 0.0:
        raise ValueError(
            "top boundary value is negative: half_height too small for the "
            "always-exercise boundary condition"
        )
    # V falls down the ladder, so the rows in the money at column n, where
    # V - K_n > 0, are exactly the first above[n] rows, those with V > K_n.
    above = np.searchsorted(-v, -strike)

    # The rows above ``top`` exercise in every column (see the docstring).
    # The window does not depend on gamma, so a stack shares it.
    top = 1
    if min(cal.p1, cal.p2, cal.p3, cal.p4) >= 0.0:
        # m, g's linear limit at (h, l), called through its module: this
        # module's global operator is called once per column and for nothing else
        m = float(indifference.linear_limit_values(cal.h, cal.l, cal))
        try:
            sigma2, delta = math.log(cal.h) / math.sqrt(cal.dt), -math.log(m) / cal.dt
            bound = perpetual_threshold(sigma2, cal.r, delta, strike.max())
        except ValueError:  # delta <= 0 or r < 0: no perpetual bound
            pass
        else:
            bound = max(bound, np.max(strike[:-1] - strike[1:], initial=0.0) / (1.0 - m))
            top = max(1, int(np.searchsorted(-v, -bound)) - 2)

    # Per column, a row per lattice: the first row that does not exercise,
    # and how many rows do.  At maturity the in-the-money rows exercise, a
    # run of above[N] from the top.
    first, count = counts = np.empty((2, n_steps + 1) + lattices, dtype=int)
    counts[:, n_steps] = above[n_steps]

    # shapes that broadcast over the lattices
    each = (1,) * len(lattices)
    strike_of = strike.reshape((-1,) + each + (1,))  # K_n against a block's slots
    # before maturity no row from k_max down is in the money
    k_max = int(above[:-1].max(initial=0))
    while True:
        # g scales the values it is given, at most v[top-1] - min K_n, by gamma
        largest, payoff = float(np.max(gamma)), float(v[top - 1]) - float(strike.min())
        if not math.isfinite(largest * payoff):
            raise ValueError(f"gamma {largest:.3g} times the payoff {payoff:.3g} overflows")
        # Fixed per window: the buffers and their views.  The block of
        # columns lo .. hi-1 fills slots B - (hi - lo) .. B-1 of a ring of
        # B + 1 slots, B = _BLOCK, a row per lattice, each contiguous so
        # that g's exp and log round as they do for one lattice alone; slot
        # B holds the column the block's last column reads, the payoff at
        # first.  The bottom row, the worthless boundary, stays 0 before
        # maturity.  ``ex`` holds a block's exercise values (V - K_n)^+ on
        # rows top .. 2M-1, which no gamma changes; only rows above ``low``
        # are ever in the money, the rest stay 0.  The mask covers rows
        # top-1 .. low, whose end rows are sentinels: row top-1 exercises
        # like every row above the window, and row ``low`` never does.
        low = min(max(k_max, top), rows - 1)
        ring = np.zeros((_BLOCK + 1,) + lattices + (rows,))
        ring[_BLOCK] = np.maximum(v - strike[n_steps], 0.0)
        ex = np.zeros((_BLOCK,) + each + (rows - 1 - top,))
        ex_band = ex[..., : low - top]
        mask = np.empty((_BLOCK,) + lattices + (low - top + 2,), dtype=bool)
        mask[..., 0], mask[..., -1] = True, False
        ex_rows, inner = list(ex), list(ring[..., top:-1])
        ups, dns = list(ring[..., top - 1 : -2]), list(ring[..., top + 1 :])
        hi = n_steps
        while hi:
            lo = (hi - 1) // _BLOCK * _BLOCK
            start = _BLOCK - (hi - lo)
            block, band, marks = ring[start:_BLOCK], ex_band[start:], mask[start:]
            # Per block: the exercise values, and the rows above the window
            # take V - K_n, so that every slot holds its whole column.
            np.subtract(v[top:low], strike_of[lo:hi], out=band)
            np.maximum(band, 0.0, out=band)
            np.subtract(v[:top], strike_of[lo:hi], out=block[..., :top])
            for j in range(_BLOCK - 1, start - 1, -1):
                np.maximum(ex_rows[j], cont_of(ups[j + 1], dns[j + 1]), out=inner[j])
            # A node exercises where the maximum is its exercise value and
            # that is positive: (ex >= cont) & (V > K_n), NaN included.
            body = marks[..., 1:-1]
            np.equal(block[..., top:low], band, out=body)
            body &= band > 0.0
            first[lo:hi], count[lo:hi] = marks.argmin(-1), marks.sum(-1)
            ring[_BLOCK] = ring[start]  # the column the next block reads
            hi = lo
        # the masks start at row top-1; the rows above it all exercise
        counts[:, :-1] += top - 1
        if top == 1 or (first[:-1] > top).all():
            break
        top = 1  # the boundary reached the window: induce every row

    # an exercised row below the first that does not: not an up-set
    anomalous = count > first
    return ValueGrid(values_t0=ring[_BLOCK].copy(), exercise_depth=first.T, anomalous=anomalous.T)


@dataclass(frozen=True)
class ThresholdCurve:
    """Exercise thresholds per time step, discounted and spot.

    Columns with no exercise region carry NaN thresholds and are flagged
    through ``no_exercise``; columns whose exercise region reaches the
    bottom of the ladder show no boundary, carry NaN thresholds and are
    flagged through ``ladder_bottom``; columns whose exercise region fails
    to be an up-set in V keep the threshold of the contiguous top run and
    are flagged through ``anomalous``.  ``resolution_halfwidth`` is the
    size of one grid cell at the threshold, V* (h - 1), the quantization
    error of the reported value.
    """

    n: np.ndarray
    t: np.ndarray
    time_to_maturity: np.ndarray
    threshold_discounted: np.ndarray
    threshold_spot: np.ndarray
    resolution_halfwidth: np.ndarray
    anomalous: np.ndarray
    no_exercise: np.ndarray
    ladder_bottom: np.ndarray

    @property
    def spot_t0(self) -> float:
        """Spot threshold at time 0 (NaN when absent)."""
        return float(self.threshold_spot[0])


def extract_thresholds(
    vg: ValueGrid, grid: GridSpec, cal: LatticeCalibration, option: OptionSpec
) -> ThresholdCurve:
    """Read the per-column exercise thresholds off an induced grid.

    The threshold at time n is the smallest row value whose node
    exercises with every higher row exercising too.  Exercise regions
    that are not up-sets are flagged as anomalous rather than silently
    repaired.  A column has no exercise region when nothing exercises
    beyond the top row, which is always exercised before maturity.  It
    hits the ladder bottom when every row exercises that can: all but the
    worthless bottom row before maturity, every row at maturity.
    """
    n_idx = np.arange(grid.n_steps + 1)
    t = n_idx * grid.dt
    h = grid.step_ratio
    depth = vg.exercise_depth
    no_exercise = depth <= 1
    no_exercise[-1] = depth[-1] == 0
    ladder_bottom = depth == grid.n_rows - 1
    ladder_bottom[-1] = depth[-1] == grid.n_rows
    disc = np.full(grid.n_steps + 1, np.nan)
    usable = ~(no_exercise | ladder_bottom)
    disc[usable] = grid.row_values[depth[usable] - 1]
    spot = disc * np.exp(cal.r * t)
    return ThresholdCurve(
        n=n_idx,
        t=t,
        time_to_maturity=option.maturity - t,
        threshold_discounted=disc,
        threshold_spot=spot,
        resolution_halfwidth=disc * (h - 1.0),
        anomalous=vg.anomalous.copy(),
        no_exercise=no_exercise,
        ladder_bottom=ladder_bottom,
    )


@dataclass(frozen=True)
class Solution:
    """One valuation on a grid: its calibration, the induced values and
    the threshold curve read off them."""

    cal: LatticeCalibration
    values: ValueGrid
    curve: ThresholdCurve


def solve(
    market: MarketParams,
    option: OptionSpec,
    grid: GridSpec,
    p_tol: float = 0.0,
) -> Solution:
    """Calibrate at the grid's step, roll the grid back and extract the
    thresholds.  ``p_tol`` is the calibration slack of :func:`calibrate`
    (infeasibility raises :class:`CalibrationInfeasible`); ``option.gamma``
    selects the operator as in :func:`backward_induce`, 0 giving the
    linear limit.
    """
    cal = calibrate(market, grid.dt, p_tol)
    values = backward_induce(grid, cal, option)
    return Solution(cal, values, extract_thresholds(values, grid, cal, option))


def solve_gammas(
    market: MarketParams,
    option: OptionSpec,
    grid: GridSpec,
    gammas: Sequence[float],
    p_tol: float = 0.0,
) -> list[Solution]:
    """:func:`solve` at each of the risk aversions ``gammas``, which take
    the place of ``option.gamma``, with one calibration and one induction
    for them all (see :func:`backward_induce`).  Returns one Solution per
    gamma, in order, each equal to what :func:`solve` gives at that gamma."""
    cal = calibrate(market, grid.dt, p_tol)
    stacked = backward_induce(grid, cal, option, gammas=gammas)
    lattices = map(ValueGrid, stacked.values_t0, stacked.exercise_depth, stacked.anomalous)
    return [Solution(cal, vg, extract_thresholds(vg, grid, cal, option)) for vg in lattices]


def value_curve(vg: ValueGrid, grid: GridSpec, option: OptionSpec) -> np.ndarray:
    """The time-0 value curve: one (project value, option value, exercise
    value) row per grid row, where the exercise value is (V - cost)^+.
    At time 0 discounted and spot values coincide."""
    exercise = np.maximum(grid.row_values - option.cost, 0.0)
    return np.column_stack((grid.row_values, vg.values_t0, exercise))
