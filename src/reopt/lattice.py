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
row above the bound that g reads and the exercise summaries (the first
row that does not exercise, and how many rows do) are worked out once
per block of columns.  The ring of column slots holds one block and the
column that block reads, never the full grid.

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
from .indifference import g_values, linear_limit_values, stack_operands
from .reference import perpetual_threshold

__all__ = [
    "OptionSpec",
    "GridSpec",
    "GridStack",
    "ValueGrid",
    "ThresholdCurve",
    "build_grid",
    "backward_induce",
    "extract_thresholds",
    "Solution",
    "solve",
    "solve_stack",
    "value_curve",
]

_MAX_AXIS = 10**9  # most time steps, or rows above V0: a 10**9-row column takes 8 GB
_MIN_GAMMA_COST = 1e-7  # least gamma * cost g values: there its rounding is ~1e-5 of a base value
_BLOCK = 32  # columns per block of backward_induce, whose ring holds B + 1 columns
# Most nodes per column (K lattices x rows) whose monotone test runs once
# per block: above it the block's comparison, which reads the whole ring
# again, cost more than g's own reduction per column (2-core Xeon: a base
# lattice, 851 nodes, 0.88x; fig1-right's gamma stack, 1561, 0.99x;
# fig2-left's sigma2 stack at dt 1/900, 4705, 1.06x).
_BLOCK_TESTED = 2048


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
    infeasible grid still reports its size.  A grid too large to lay out,
    or a ladder whose rows overflow or underflow, raises ValueError.
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
    try:
        h = math.exp(market.sigma2 * math.sqrt(step))
        top, bottom = market.v0 * h**half_height, market.v0 * h**-half_height
    except OverflowError:
        h = top = bottom = math.inf
    if not (math.isfinite(top) and bottom > 0.0):
        raise ValueError(f"the ladder's rows V0 h^(+-M) overflow or underflow: h = {h:.6g}, "
                         f"M = {half_height}")
    exponents = np.arange(half_height, -half_height - 1, -1, dtype=float)
    rows = market.v0 * h**exponents
    return GridSpec(n_steps=n_steps, half_height=half_height, dt=step, row_values=rows)


@dataclass(frozen=True)
class GridStack:
    """The grids of K lattices that :func:`backward_induce` runs as one.
    They share N, the step and V0 (ValueError otherwise), so every strike
    is the same number in every lattice; their row spacings may differ.
    Laid over one another with their bottom rows aligned, they span
    ``n_rows`` rows, those of the tallest ladder."""

    grids: tuple[GridSpec, ...]

    def __post_init__(self):
        grids = tuple(self.grids)
        if not grids:
            raise ValueError("a stack needs at least one grid")
        shared = {(g.n_steps, g.dt, float(g.row_values[g.half_height])) for g in grids}
        if len(shared) > 1:
            raise ValueError("stacked grids must share N, the step and V0")
        object.__setattr__(self, "grids", grids)

    @property
    def n_steps(self) -> int:
        return self.grids[0].n_steps

    @property
    def dt(self) -> float:
        return self.grids[0].dt

    @property
    def n_rows(self) -> int:
        return max(grid.n_rows for grid in self.grids)


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

    A stack of K lattices induced as one gives K of these, each over its
    own lattice's rows.
    """

    values_t0: np.ndarray
    exercise_depth: np.ndarray
    anomalous: np.ndarray


def _window_top(v: np.ndarray, cal: LatticeCalibration, strike: np.ndarray) -> int | None:
    """The first row the operator runs on (see :func:`backward_induce`),
    counting from 0 at the top of the ladder ``v``; None without a bound."""
    if min(cal.p1, cal.p2, cal.p3, cal.p4) < 0.0:
        return None
    # m, g's linear limit at (h, l), called through its module: this
    # module's global operator is called once per column and for nothing else
    m = float(indifference.linear_limit_values(cal.h, cal.l, cal))
    try:
        sigma2, delta = math.log(cal.h) / math.sqrt(cal.dt), -math.log(m) / cal.dt
        bound = perpetual_threshold(sigma2, cal.r, delta, strike.max())
    except ValueError:  # delta <= 0 or r < 0: no perpetual bound
        return None
    bound = max(bound, np.max(strike[:-1] - strike[1:], initial=0.0) / (1.0 - m))
    return max(1, int(np.searchsorted(-v, -bound)) - 2)


def backward_induce(
    grid: GridSpec | GridStack,
    cal: LatticeCalibration | Sequence[LatticeCalibration],
    option: OptionSpec | Sequence[OptionSpec],
) -> ValueGrid | list[ValueGrid]:
    """Fill the grid from maturity backwards and record exercise decisions.

    ``grid``, ``cal`` and ``option`` describe one lattice, whose
    :class:`ValueGrid` this returns; or ``grid`` is a :class:`GridStack`
    of K grids, ``cal`` and ``option`` hold one entry per grid, and this
    returns one ValueGrid per lattice (see "Stacks" below).

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
    operator is called once per column (twice for the columns of a block
    that g valued again, see below), through this module's global, on
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

    Stacks.  K lattices that share N, the step, V0, the cost, its
    growth, the maturity and r (ValueError otherwise) see the same
    strikes, so they are induced together on (K, rows) columns, one numpy
    call doing K lattices' work.  Each keeps its own calibration, row
    spacing h, gamma (positive: a stack is always g) and half height M.
    The ladders are aligned at their bottom rows, the stack's last row; a
    shorter ladder continues upward by build_grid's own expression
    V0 h^k, with its own h.  The stack's window starts at the highest of
    the lattices' own ``top`` rows.  g reads a calibration constant that every lattice
    shares as one 0-d array and the others as (K, 1) columns, and gamma
    as a (K, 1) column where the gammas differ.  Lattices that share one
    calibration (a gamma stack) are induced exactly as one lattice is.
    Otherwise the induction is exact only if every lattice has positive
    weights and a bound, its own top row (so every row added above it)
    lies above the stack's window, and every column exercises down to
    each lattice's own ``top``, so that no rerun is needed; it raises
    ValueError where one of these fails.  Each returned ValueGrid is bit
    for bit that lattice's own induction.  A stack of one runs the 1-D
    loop of a single lattice.

    Columns run in blocks of B = 32 on a ring of B + 1 column slots: the
    block of columns lo .. hi-1 fills slots B - (hi - lo) .. B-1, and
    slot B holds column hi, the one the block's last column reads: the
    payoff at first, then a copy of each block's first column, so the
    time-0 column ends there.  Per column only two calls run: the
    operator, and an ``np.maximum`` of its result and the exercise value
    straight into the column's slot.  Under positive weights, on columns
    of at most ``_BLOCK_TESTED`` nodes (K x rows), g runs without its own
    test that x_up >= x_dn (``monotone=True``), which would cost a
    reduction per column; one comparison per block tests every column
    the block read at once (NaN fails it).  A block that
    fails is valued again with g testing each column, as are the blocks
    after it until one passes, so a run of decreasing columns costs one
    block twice.  Where the test passes, g's own test would have passed
    on every column, so the bits are those of testing column by column.
    Per block a handful more calls run: the exercise values (V - K_n)^+
    of the block's columns, on the band of rows that are ever in the
    money (the rows below it stay 0); V - K_n on row top-1, the one row
    above ``top`` that the operator reads; and the block's exercise
    masks, with one ``argmin`` for the first row that does not exercise
    and one ``sum`` for how many rows do, so a column is anomalous where
    more rows exercise than lie above that first one.  So a slot holds
    rows top-1 .. 2M of its column; the rows above take V - K_0 in the
    time-0 column alone, after the last block.  These are the same IEEE
    operations as column by column, so the bits do not depend on the
    block size.

    Time columns are processed sequentially (hard data dependency); rows
    within a column are vectorized.  The whole routine is pure, so
    independent inductions may run in parallel.
    """
    stacked = isinstance(grid, GridStack)
    grids, cals, options = (grid.grids, tuple(cal), tuple(option)) if stacked else (
        (grid,), (cal,), (option,)
    )
    if not len(cals) == len(options) == len(grids):
        raise ValueError("a stack needs one calibration and one option per grid")
    for g, c in zip(grids, cals):
        if abs(c.dt - g.dt) > 1e-12 * max(1.0, g.dt):
            raise ValueError("calibration and grid use different time steps")
    cal, option = cals[0], options[0]
    if len({c.r for c in cals}) > 1 or len(
        {(o.cost, o.cost_growth, o.maturity) for o in options}
    ) > 1:
        raise ValueError("stacked lattices must share r, the cost, its growth and the maturity")
    lattices = (len(grids),) if len(grids) > 1 else ()  # a row per lattice
    shared = all(c == cal for c in cals)
    gammas = np.array([o.gamma for o in options])
    untested_of = None  # g without its monotone test, where blocks test their columns
    if not lattices and option.gamma == 0.0:
        cont_of = lambda x_up, x_dn: linear_limit_values(x_up, x_dn, cal)
    else:
        if not gammas.min() > 0.0:
            raise ValueError("gamma must be positive and finite")
        gamma = option.gamma if (gammas == gammas[0]).all() else gammas.reshape(-1, 1)
        operands = cal if shared else stack_operands(cals)
        cont_of = lambda x_up, x_dn: g_values(x_up, x_dn, operands, gamma, monotone=False)
        if operands.positive_weights and len(grids) * grid.n_rows <= _BLOCK_TESTED:
            untested_of = lambda x_up, x_dn: g_values(x_up, x_dn, operands, gamma, monotone=True)
        if gammas.min() * option.cost < _MIN_GAMMA_COST:
            raise ValueError(
                f"gamma * cost = {gammas.min() * option.cost:.3g} is below "
                f"{_MIN_GAMMA_COST:.0e}, where g's rounding outweighs risk aversion; "
                "gamma 0 values the option in its linear limit"
            )

    n_steps, rows = grid.n_steps, grid.n_rows
    t = np.arange(n_steps + 1) * grid.dt
    strike = option.cost * np.exp((option.cost_growth - cal.r) * t)
    for g in grids:
        if not np.all(g.row_values[1:] < g.row_values[:-1]):
            raise ValueError("row values must be strictly decreasing")
        if g.row_values[0] - strike.max() < 0.0:
            raise ValueError(
                "top boundary value is negative: half_height too small for the "
                "always-exercise boundary condition"
            )
    # One ladder that every lattice shares, or a (K, rows) ladder whose row
    # k ends in lattice k's own rows, with rows added above them.
    offsets = np.array([rows - g.n_rows for g in grids])
    v = grids[0].row_values
    if lattices and any(not np.array_equal(g.row_values, v) for g in grids):
        v = np.empty((len(grids), rows))
        for k, (g, c, off) in enumerate(zip(grids, cals, offsets)):
            m = g.half_height
            v[k, off:] = g.row_values
            v[k, :off] = g.row_values[m] * c.h ** np.arange(m + off, m, -1, dtype=float)
    # V falls down the ladder, so the rows in the money at column n, where
    # V - K_n > 0, are exactly the first above[n] rows, those with V > K_n.
    above = np.array([np.searchsorted(-ladder, -strike) for ladder in v.reshape(-1, rows)])
    above = above.reshape(v.shape[:-1] + strike.shape)

    # The rows above ``top`` exercise in every column (see the docstring):
    # each lattice's own top, in stack rows, and the stack's, the highest.
    own = [_window_top(g.row_values, c, strike) for g, c in zip(grids, cals)]
    tops = np.array([1 if own_top is None else own_top for own_top in own]) + offsets
    top = int(tops.min())
    # Every column must exercise down to each lattice's own top row, or
    # only the rows above it where that is row 1 (see the loop's end).
    needs = tops - (tops - offsets == 1)
    # Lattices that differ (the weights are positive: stack_operands
    # checks them) are exact only without a rerun, and if no added row
    # lies in the window.
    exact_only = not shared or offsets.any()
    if exact_only and (None in own or offsets.max() >= top):
        raise ValueError(
            "the lattices cannot be stacked exactly: each needs an exercise bound and "
            "its own top row above the stack's window"
        )

    # Per column, a row per lattice: the first row that does not exercise,
    # and how many rows do.  At maturity the in-the-money rows exercise, a
    # run of above[N] from the top.
    first, count = counts = np.empty((2, n_steps + 1) + lattices, dtype=int)
    counts[:, n_steps] = above[..., n_steps]

    # shapes that broadcast over the lattices
    each = (1,) * len(lattices)
    strike_of = strike.reshape((-1,) + each + (1,))  # K_n against a block's slots
    # before maturity no row from k_max down is in the money
    k_max = int(above[..., :-1].max(initial=0))
    while True:
        # g scales the values it is given, at most v[top-1] - min K_n, by gamma
        largest, payoff = float(gammas.max()), float(np.max(v[..., top - 1])) - float(strike.min())
        if not math.isfinite(largest * payoff):
            raise ValueError(f"gamma {largest:.3g} times the payoff {payoff:.3g} overflows")
        # Fixed per window: the buffers and their views.  The block of
        # columns lo .. hi-1 fills slots B - (hi - lo) .. B-1 of a ring of
        # B + 1 slots, B = _BLOCK, a row per lattice, each contiguous so
        # that g's exp and log round as they do for one lattice alone; slot
        # B holds the column the block's last column reads, the payoff at
        # first.  A block writes rows top-1 .. 2M-1 of its slots; the rows
        # above them, and the bottom row, the worthless boundary, stay 0.
        # ``ex`` holds a block's exercise values (V - K_n)^+ on rows
        # top .. 2M-1, which no gamma changes, one row per ladder; only
        # rows above ``low`` are ever in the money, the rest stay 0.  The
        # mask covers rows top-1 .. low, whose end rows are sentinels: row
        # top-1 exercises like every row above the window, and row ``low``
        # never does.
        low = min(max(k_max, top), rows - 1)
        ring = np.zeros((_BLOCK + 1,) + lattices + (rows,))
        ring[_BLOCK] = np.maximum(v - strike[n_steps], 0.0)
        ex = np.zeros((_BLOCK,) + (v.shape[:-1] or each) + (rows - 1 - top,))
        ex_band = ex[..., : low - top]
        mask = np.empty((_BLOCK,) + lattices + (low - top + 2,), dtype=bool)
        mask[..., 0], mask[..., -1] = True, False
        ex_rows, inner = list(ex), list(ring[..., top:-1])
        ups, dns = list(ring[..., top - 1 : -2]), list(ring[..., top + 1 :])

        def fill(cont_of, start):
            # the block's columns, the last first, each from the one after it
            for j in range(_BLOCK - 1, start - 1, -1):
                np.maximum(ex_rows[j], cont_of(ups[j + 1], dns[j + 1]), out=inner[j])

        checking = untested_of is None  # whether g tests each column itself
        hi = n_steps
        while hi:
            lo = (hi - 1) // _BLOCK * _BLOCK
            start = _BLOCK - (hi - lo)
            block, band, marks = ring[start:_BLOCK], ex_band[start:], mask[start:]
            # Per block: the exercise values, and V - K_n on row top-1, which g reads
            np.subtract(v[..., top:low], strike_of[lo:hi], out=band)
            np.maximum(band, 0.0, out=band)
            np.subtract(v[..., top - 1 : top], strike_of[lo:hi], out=block[..., top - 1 : top])
            if checking:
                fill(cont_of, start)
            else:
                with np.errstate(over="ignore"):  # a decreasing column's values are redone
                    fill(untested_of, start)
            if untested_of is not None:
                # g's monotone test for every column the block read, slots
                # start+1 .. B, at once; NaN fails it.  A block that fails
                # runs again with g testing each column, and so do the
                # blocks after it until one passes.
                read = ring[start + 1 :]
                monotone = (read[..., top - 1 : -2] >= read[..., top + 1 :]).all()
                if not (monotone or checking):
                    fill(cont_of, start)
                checking = not monotone
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
        if (first[:-1] > needs).all():
            break
        if exact_only:
            raise ValueError(
                "the exercise boundary reaches the window of a stack whose lattices "
                "differ; induce them one by one"
            )
        top, needs = 1, 0  # the boundary reached the window: induce every row
    # the time-0 column's rows above the window, which no block writes
    np.subtract(v[..., :top], strike[0], out=ring[_BLOCK][..., :top])

    # an exercised row below the first that does not: not an up-set
    anomalous = count > first
    values_t0 = ring[_BLOCK]
    if not lattices:
        vg = ValueGrid(values_t0=values_t0.copy(), exercise_depth=first, anomalous=anomalous)
        return [vg] if stacked else vg
    # each lattice's own rows, counted from its own top row
    return [
        ValueGrid(values_t0[k, off:].copy(), first[:, k] - off, anomalous[:, k].copy())
        for k, off in enumerate(offsets)
    ]


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


def solve_stack(
    stack: GridStack,
    cals: Sequence[LatticeCalibration],
    options: Sequence[OptionSpec],
) -> list[Solution]:
    """:func:`solve` for the K lattices of ``stack``, from their
    calibrations, in one induction (see :func:`backward_induce`, which
    raises ValueError where they cannot be stacked exactly).  Returns one
    Solution per lattice, in order, each equal to what :func:`solve` gives
    for it."""
    values = backward_induce(stack, cals, options)
    return [
        Solution(cal, vg, extract_thresholds(vg, grid, cal, option))
        for vg, grid, cal, option in zip(values, stack.grids, cals, options)
    ]


def value_curve(vg: ValueGrid, grid: GridSpec, option: OptionSpec) -> np.ndarray:
    """The time-0 value curve: one (project value, option value, exercise
    value) row per grid row, where the exercise value is (V - cost)^+.
    At time 0 discounted and spot values coincide."""
    exercise = np.maximum(grid.row_values - option.cost, 0.0)
    return np.column_stack((grid.row_values, vg.values_t0, exercise))
