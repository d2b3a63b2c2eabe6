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
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import indifference
from .calibration import LatticeCalibration, MarketParams, calibrate
from .indifference import g_values, linear_limit_values
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
    They share the step (ValueError otherwise), so column n is the time
    n dt in every lattice; N, M, V0 and the row spacing may differ.  The
    stacked induction walks ``n_steps`` columns, the longest lattice's N,
    over its lattices' ``n_rows`` rows, their ladders put end to end."""

    grids: tuple[GridSpec, ...]

    def __post_init__(self):
        grids = tuple(self.grids)
        if not grids:
            raise ValueError("a stack needs at least one grid")
        if len({g.dt for g in grids}) > 1:
            raise ValueError("stacked grids must share the step")
        object.__setattr__(self, "grids", grids)

    @property
    def n_steps(self) -> int:
        return max(grid.n_steps for grid in self.grids)

    @property
    def dt(self) -> float:
        return self.grids[0].dt

    @property
    def n_rows(self) -> int:
        return sum(grid.n_rows for grid in self.grids)


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


class _Lattice:
    """One lattice of an induction: its ladder ``v``, calibration, gamma,
    N, strikes K_0 .. K_N, the number of rows in the money in each column,
    and ``top``, the first row its operator runs on.  ``index`` is its
    place in the stack, and ``result`` its ValueGrid once induced."""

    def __init__(self, index, grid, cal, option, strike):
        v = grid.row_values
        if not np.all(v[1:] < v[:-1]):
            raise ValueError("row values must be strictly decreasing")
        if v[0] - strike.max() < 0.0:
            raise ValueError(
                "top boundary value is negative: half_height too small for the "
                "always-exercise boundary condition"
            )
        self.index, self.v, self.cal, self.gamma = index, v, cal, option.gamma
        self.n, self.rows, self.strike = grid.n_steps, grid.n_rows, strike
        # V falls down the ladder, so the rows in the money at column n,
        # where V - K_n > 0, are exactly the first above[n] rows, those with V > K_n
        self.above = np.searchsorted(-v, -strike)
        self.top = _window_top(v, cal, strike) or 1
        self.result: ValueGrid | None = None


class _Operands(NamedTuple):
    """What g reads of the lattices of a flat column (see :func:`g_values`)."""

    g_operands: tuple[np.ndarray, ...]
    positive_weights: bool = True


def _node_operands(lattices: list[_Lattice], lengths: np.ndarray):
    """g's operands and gamma for the flat column of ``lattices``, whose
    weights are positive, with ``lengths`` rows each: one the first
    lattice's 0-d array (gamma: its float) where every lattice holds the
    same number, and otherwise one number per node of g's window, the
    column's positions 1 .. size-2."""

    def per_node(numbers, shared):
        if all(x == numbers[0] for x in numbers):
            return shared
        return np.repeat(np.array(numbers, dtype=float), lengths)[1:-1]

    columns = zip(*(lat.cal.g_operands for lat in lattices))
    operands = tuple(per_node([float(x) for x in k], k[0]) for k in columns)
    return operands, per_node([lat.gamma for lat in lattices], lattices[0].gamma)


def _operators(first: _Lattice, node, width: int):
    """(cont_of, untested_of) on a flat column whose operator runs on
    ``width`` nodes: the operator, which tests each column itself, and g
    without that test, where blocks test their columns (positive weights;
    else None).  The first lattice's own operator where it is alone
    (``node`` None), else g on ``node``'s operands cut to the window."""
    cal, gamma = first.cal, first.gamma
    if node is None and gamma == 0.0:
        return (lambda x_up, x_dn: linear_limit_values(x_up, x_dn, cal)), None
    if node is not None:
        operands, gamma = node
        cal = _Operands(tuple(x[:width] if x.ndim else x for x in operands))
        gamma = gamma[:width] if isinstance(gamma, np.ndarray) else gamma
    cont_of = lambda x_up, x_dn: g_values(x_up, x_dn, cal, gamma, monotone=False)
    if not cal.positive_weights:
        return cont_of, None
    return cont_of, lambda x_up, x_dn: g_values(x_up, x_dn, cal, gamma, monotone=True)


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
    contiguous views of the column one step later.

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
    lattice is induced again on every row.  Either way the result is that
    of inducing every row.  Without a bound (delta <= 0, r < 0 or a signed
    weight) every row is induced from the start.

    Stacks.  K lattices that share the step, r, the cost and its growth
    (ValueError otherwise) see the same strike K_n in column n, so those
    whose weights are all positive are induced together, one numpy call
    per column doing their work; a lattice with a zero or signed weight,
    whose g needs its own weights in its shifted sums, is induced alone.
    Each keeps its own N, ladder, calibration, gamma (positive: a stack
    is always g) and ``top``.  Their column is flat: each lattice's own
    rows top-1 .. 2M, back to back, longest N first, with nothing between
    them.  A lattice joins at its own column N with its payoff, and each
    column runs the operator once on the lattices that have joined, over
    the whole of their rows but the column's first and last: each
    lattice's rows are valued from its own, except the two "seam" rows
    where two lattices meet, whose values g takes from rows of two
    lattices: a lattice's row top-1, set per block, and its bottom row,
    which stays 0.  The ``np.maximum`` writes them too, and one indexed
    assignment per column puts their values back (``where=`` would leave
    them unwritten, but took three times as long as the maximum).  g
    reads a constant that every lattice shares as one 0-d array, and the
    others, gamma included, as one number per node, built once per
    stack.  A lattice whose boundary reaches its window is induced again
    on every row, with the others that need it, in a second stack.  Each
    lattice's rows go through exactly the operations of its own
    induction, so each returned ValueGrid is bit for bit that lattice's
    own; a stack of one is one lattice.

    Columns run in blocks of B = 32 on a ring of B + 1 column slots: the
    block of columns lo .. hi-1 fills slots B - (hi - lo) .. B-1, and
    slot B holds column hi, the one the block's last column reads: the
    payoffs at first, then a copy of each block's first column, so the
    time-0 column ends there.  No block spans a lattice's N, where that
    lattice joins.  Per column only two calls run: the operator, and an
    ``np.maximum`` of its result and the exercise value straight into the
    column's slot.  Under positive weights g runs without its own test
    that x_up >= x_dn (``monotone=True``), which would cost a reduction
    per column and fails at every seam; one comparison per block tests
    every column the block read at once, seams left out (NaN fails it).  A
    block that fails is valued again with g testing each column
    (``monotone=False``; on a stack the test fails at the seams and g
    takes its general path), as are the blocks after it until one
    passes, so a run of decreasing columns costs one block twice.  Where
    the test passes, g's own test would have passed on every column of
    each lattice, and both of g's paths give the same bits, so the bits
    are those of testing column by column.  Per block a handful more calls
    run for each lattice: the exercise values (V - K_n)^+ of the block's
    columns, on the band of rows that are ever in the money (the rows
    below it stay 0); V - K_n on row top-1, the one row above ``top``
    that the operator reads; and the block's exercise masks, with one
    ``argmin`` for the first row that does not exercise and one ``sum``
    for how many rows do, so a column is anomalous where more rows
    exercise than lie above that first one.
    The rows above row top-1 take V - K_0 in the time-0 column alone,
    after the last block.  These are the same IEEE operations as column
    by column, so the bits do not depend on the block size.

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
    if len({c.r for c in cals}) > 1 or len({(o.cost, o.cost_growth) for o in options}) > 1:
        raise ValueError("stacked lattices must share r, the cost and its growth")
    gammas = [o.gamma for o in options]
    if stacked and not min(gammas) > 0.0:
        raise ValueError("gamma must be positive and finite")
    cost, least = options[0].cost, min((g for g in gammas if g > 0.0), default=None)
    if least is not None and least * cost < _MIN_GAMMA_COST:
        raise ValueError(
            f"gamma * cost = {least * cost:.3g} is below {_MIN_GAMMA_COST:.0e}, where "
            "g's rounding outweighs risk aversion; gamma 0 values the option in its linear limit"
        )

    t = np.arange(grid.n_steps + 1) * grid.dt
    strike = cost * np.exp((options[0].cost_growth - cals[0].r) * t)
    lattices = [
        _Lattice(k, g, c, o, strike[: g.n_steps + 1])
        for k, (g, c, o) in enumerate(zip(grids, cals, options))
    ]
    flat = [lat for lat in lattices if lat.cal.positive_weights]
    solo = [[lat] for lat in lattices if not lat.cal.positive_weights]
    for part in solo + ([flat] if flat else []):
        # longest N first; then again on every row, those whose boundary
        # reached their window
        part = sorted(part, key=lambda lat: -lat.n)
        while part:
            part = [lat for lat, again in zip(part, _flat_pass(part)) if again]
            for lat in part:
                lat.top = 1
    values = [lat.result for lat in lattices]
    return values if stacked else values[0]


def _flat_pass(lattices: list[_Lattice]) -> list[bool]:
    """Induce ``lattices``, longest N first, on one flat column (see
    :func:`backward_induce`), each from its own ``top`` row; set each
    one's ``result``, and return for each whether its boundary reached
    its window, so that it must be induced again on every row."""
    for lat in lattices:
        # g scales the values it is given, at most v[top-1] - min K_n, by gamma
        payoff = float(lat.v[lat.top - 1]) - float(lat.strike.min())
        if not math.isfinite(lat.gamma * payoff):
            raise ValueError(f"gamma {lat.gamma:.3g} times the payoff {payoff:.3g} overflows")
    strike, n_max, count_of = lattices[0].strike, lattices[0].n, len(lattices)
    tops = np.array([lat.top for lat in lattices])
    lengths = np.array([lat.rows for lat in lattices]) - tops + 1
    ends = np.cumsum(lengths)
    heads = ends - lengths  # each lattice's row top-1
    size = int(ends[-1])
    # the flat ladder, each lattice's own rows top-1 .. 2M
    v = np.concatenate([lat.v[lat.top - 1 :] for lat in lattices])
    # Each lattice's band: its rows top .. low-1, before maturity the only
    # ones ever in the money; their exercise values are worked out per
    # block, and the others' stay 0.  A lattice's mask covers rows top-1 ..
    # low, whose end rows are sentinels: row top-1 exercises like every row
    # above the window, and row ``low`` never does.
    lows = [min(max(int(lat.above[:-1].max(initial=0)), lat.top), lat.rows - 1) for lat in lattices]
    bands = [(int(h), int(h) + low - lat.top + 1) for h, low, lat in zip(heads, lows, lattices)]
    node = _node_operands(lattices, lengths) if count_of > 1 else None

    ring = np.zeros((_BLOCK + 1, size))
    ex = np.zeros((_BLOCK, size))
    mask = np.empty((_BLOCK, size), dtype=bool)
    for h, low_end in bands:
        mask[:, h], mask[:, low_end] = True, False
    first, count = counts = np.empty((2, count_of, n_max + 1), dtype=int)
    strike_of = strike.reshape(-1, 1)  # K_n against a block's slots

    def fill(cont_of, start, quiet):
        # the block's columns, the last first, each from the one after it;
        # quiet where g's values may overflow or be NaN: at the seams, whose
        # own values are put back, or on a block that is valued again
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            if not seamed:  # one lattice: the loop of a lattice alone
                for j in range(_BLOCK - 1, start - 1, -1):
                    np.maximum(ex_rows[j], cont_of(ups[j + 1], dns[j + 1]), out=inner[j])
                return
            for j in range(_BLOCK - 1, start - 1, -1):
                np.maximum(ex_rows[j], cont_of(ups[j + 1], dns[j + 1]), out=inner[j])
                inner[j][seams] = kept[j]  # the seams take their own values back

    active, checking, hi = 0, False, n_max
    while True:
        joined = active
        while active < count_of and lattices[active].n == hi:
            # the lattice joins at its own maturity, with its payoff
            rows = slice(heads[active], ends[active])
            np.maximum(v[rows] - strike[hi], 0.0, out=ring[_BLOCK, rows])
            counts[:, active, hi] = lattices[active].above[hi]
            active += 1
        if not hi:
            break
        size_a = int(ends[active - 1])
        if active > joined:
            # fixed until the next lattice joins: the views of g and of the
            # maximum on the active lattices' rows, and the operators
            ups, dns = list(ring[:, : size_a - 2]), list(ring[:, 2:size_a])
            inner, ex_rows = list(ring[:_BLOCK, 1 : size_a - 1]), list(ex[:, 1 : size_a - 1])
            # the seams, as indices of g's nodes (positions 1 .. size_a-2):
            # each lattice's row top-1 but the first's, each bottom row but the last's
            seams = np.concatenate((heads[1:active], ends[: active - 1] - 1)) - 1
            seamed = active > 1
            cont_of, untested_of = _operators(lattices[0], node if active > 1 else None, size_a - 2)
        lo = (hi - 1) // _BLOCK * _BLOCK
        if active < count_of:
            lo = max(lo, lattices[active].n)
        start = _BLOCK - (hi - lo)
        block, strikes = ring[start:_BLOCK], strike_of[lo:hi]
        # Per block and lattice: the exercise values on its band, and V - K_n
        # on its row top-1, which g reads
        for h, low_end in bands[:active]:
            exercise = ex[start:, h + 1 : low_end]
            np.subtract(v[h + 1 : low_end], strikes, out=exercise)
            np.maximum(exercise, 0.0, out=exercise)
            np.subtract(v[h : h + 1], strikes, out=block[:, h : h + 1])
        if seamed:
            kept = ring[:_BLOCK, seams + 1]
        if untested_of is None or checking:
            fill(cont_of, start, count_of > 1)
        else:
            fill(untested_of, start, True)
        if untested_of is not None:
            # g's monotone test for every column the block read, slots
            # start+1 .. B, at once, seams left out; NaN fails it.  A block
            # that fails runs again with g testing each column, and so do
            # the blocks after it until one passes.
            read = ring[start + 1 :]
            monotone = read[:, : size_a - 2] >= read[:, 2:size_a]
            if seamed:
                monotone[:, seams] = True
            monotone = monotone.all()
            if not (monotone or checking):
                fill(cont_of, start, count_of > 1)
            checking = not monotone
        for k, (h, low_end) in enumerate(bands[:active]):
            # A node exercises where the maximum is its exercise value and
            # that is positive: (ex >= cont) & (V > K_n), NaN included.
            exercise, marks = ex[start:, h + 1 : low_end], mask[start:, h : low_end + 1]
            body = marks[:, 1:-1]
            np.equal(block[:, h + 1 : low_end], exercise, out=body)
            body &= exercise > 0.0
            first[k, lo:hi], count[k, lo:hi] = marks.argmin(-1), marks.sum(-1)
        ring[_BLOCK, :size_a] = ring[start, :size_a]  # the column the next block reads
        hi = lo

    again = []
    for k, lat in enumerate(lattices):
        n, top = lat.n, lat.top
        # the masks start at row top-1; the rows above it all exercise
        lat_first, lat_count = counts[:, k, : n + 1] + (top - 1) * (np.arange(n + 1) < n)
        # the time-0 column's rows above row top-1, which no block writes
        values_t0 = np.concatenate((lat.v[: top - 1] - strike[0], ring[_BLOCK, heads[k] : ends[k]]))
        # an exercised row below the first that does not: not an up-set
        lat.result = ValueGrid(values_t0, lat_first, lat_count > lat_first)
        # every column must exercise down to row top itself, or only the
        # rows above it where that is row 1
        again.append(top > 1 and not (lat_first[:-1] > top).all())
    return again


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
    calibrations, in one induction (see :func:`backward_induce`).  Returns
    one Solution per lattice, in order, each equal to what :func:`solve`
    gives for it."""
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
