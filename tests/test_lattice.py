"""Grid construction, backward induction, thresholds, value curves."""

import dataclasses
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import reopt.experiments
import reopt.lattice
import reopt.reference
from reopt import (
    GridSpec,
    GridStack,
    LatticeCalibration,
    OptionSpec,
    PayoffPair,
    UtilityParams,
    backward_induce,
    build_grid,
    calibrate,
    extract_thresholds,
    g_value,
    g_values,
    linear_limit_values,
    solve,
    solve_stack,
    value_curve,
)
from reopt.calibration import CalibrationInfeasible

from conftest import base_market, degenerate_complete_calibration, exercise_window_top, gamma_stack


def induce(market, option, dt, m=None, **kw):
    grid = build_grid(market, option, dt, m)
    cal = calibrate(market, grid.dt)
    return grid, cal, backward_induce(grid, cal, option, **kw)


def mpmath_reference_grid(market, option, n_steps, half_height):
    """Exhaustive recursion with the naive formulas in 50-digit arithmetic."""
    with mpmath.workdps(50):
        dt = mpmath.mpf(option.maturity) / n_steps
        sq = mpmath.sqrt(dt)
        u = mpmath.exp(market.sigma1 * sq)
        d = 1 / u
        h = mpmath.exp(market.sigma2 * sq)
        l = 1 / h
        a = (mpmath.exp((market.mu1 - market.r) * dt) - d) / (u - d)
        b = (mpmath.exp((market.mu2 - market.r) * dt) - l) / (h - l)
        p1 = a * b + market.rho * market.sigma1 * market.sigma2 * dt / ((u - d) * (h - l))
        p2, p3, p4 = a - p1, b - p1, 1 - a - b + p1
        q = (1 - d) / (u - d)
        gam = mpmath.mpf(option.gamma)

        def g(x1, x2):
            up = mpmath.log((p1 + p2) / (p1 * mpmath.exp(-gam * x1) + p2 * mpmath.exp(-gam * x2)))
            dn = mpmath.log((p3 + p4) / (p3 * mpmath.exp(-gam * x1) + p4 * mpmath.exp(-gam * x2)))
            return (q * up + (1 - q) * dn) / gam

        rows = 2 * half_height + 1
        v = [mpmath.mpf(market.v0) * h ** (half_height - i) for i in range(rows)]
        alpha = mpmath.mpf(option.cost_growth)
        cost = mpmath.mpf(option.cost)
        strike = [cost * mpmath.exp((alpha - market.r) * n * dt) for n in range(n_steps + 1)]
        col = [max(v[i] - strike[n_steps], mpmath.mpf(0)) for i in range(rows)]
        out = [col]
        for n in range(n_steps - 1, -1, -1):
            new = [mpmath.mpf(0)] * rows
            new[0] = v[0] - strike[n]
            for i in range(1, rows - 1):
                ex = max(v[i] - strike[n], mpmath.mpf(0))
                new[i] = max(ex, g(col[i - 1], col[i + 1]))
            col = new
            out.append(col)
        out.reverse()
        return np.array([[float(x) for x in col] for col in out]).T


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_half_height_base_parameters():
    market = base_market(rho=0.0)
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1.0)
    assert build_grid(market, option, 1.0 / 900.0).half_height == 470


def test_half_height_short_horizon_is_small_but_positive():
    market = base_market(rho=0.0)
    option = OptionSpec(cost=1.0, maturity=0.01, gamma=1.0)
    m = build_grid(market, option, 0.01).half_height
    assert 1 <= m <= 10


def test_half_height_diffusion_term_scales_with_sigma2():
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1.0)
    dt = 1.0 / 900.0
    for sigma2 in (0.1, 0.2, 0.4):
        market = base_market(rho=0.0, sigma2=sigma2)
        drift = abs(market.mu2 - market.r - sigma2**2 / 2) * 10.0
        spread = 4.0 * sigma2 * math.sqrt(10.0)
        expected = max(1, math.ceil((drift + spread) / (sigma2 * math.sqrt(dt))))
        assert build_grid(market, option, dt).half_height == expected
    # the four-standard-deviation summand itself is linear in sigma2
    assert 4.0 * 0.4 * math.sqrt(10.0) == pytest.approx(2 * 4.0 * 0.2 * math.sqrt(10.0))


def test_half_height_clears_the_largest_discounted_strike():
    market = base_market(rho=0.5)
    dt = 0.05
    for option in (
        OptionSpec(cost=1.0, maturity=10.0, gamma=1.0),
        OptionSpec(cost=20.0, maturity=10.0, gamma=1.0),
        OptionSpec(cost=1.0, maturity=10.0, gamma=1.0, cost_growth=0.5),
    ):
        k_max = option.cost * math.exp(max(0.0, option.cost_growth - market.r) * option.maturity)
        m = build_grid(market, option, dt).half_height
        assert market.v0 * math.exp(market.sigma2 * math.sqrt(dt)) ** m > k_max
    for dt in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            build_grid(market, option, dt)


def test_ladder_above_v0_matches_doubled_ladder():
    # cost 15 > V0: the threshold lies far up the ladder
    market = base_market(rho=0.5)
    option = OptionSpec(cost=15.0, maturity=10.0, gamma=1.0)
    grid = build_grid(market, option, 0.05)
    wide = build_grid(market, option, 0.05, 2 * grid.half_height)
    sol, ref = solve(market, option, grid), solve(market, option, wide)
    assert math.isfinite(sol.curve.spot_t0)
    assert sol.curve.spot_t0 == ref.curve.spot_t0
    assert sol.values.values_t0[grid.half_height] == ref.values.values_t0[wide.half_height]


def test_grid_ladder_minimal():
    market = base_market(rho=0.0)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0)
    grid = build_grid(market, option, dt=1.0, half_height=1)
    h = math.exp(0.2 * 1.0)
    assert grid.row_values == pytest.approx([h, 1.0, 1.0 / h], abs=1e-15)
    assert grid.row_values[1] == 1.0
    for half_height in (0, -1):
        with pytest.raises(ValueError, match="half_height must be at least 1"):
            build_grid(market, option, dt=1.0, half_height=half_height)


def test_grid_ladder_geometry():
    market = base_market(rho=0.3)
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1.0)
    grid = build_grid(market, option, dt=10.0 / 9000, half_height=40)
    h = math.exp(0.2 * math.sqrt(grid.dt))
    assert grid.row_values[0] == pytest.approx(h**40, rel=1e-13)
    assert grid.row_values[grid.half_height] == 1.0
    # symmetric about v0 in log space
    prod = grid.row_values * grid.row_values[::-1]
    assert np.allclose(prod, 1.0, atol=1e-12)
    assert np.all(np.diff(grid.row_values) < 0)
    assert grid.dt * grid.n_steps == pytest.approx(10.0, abs=1e-12)


def test_grid_rejects_a_ladder_whose_rows_overflow():
    # exp(sigma2 sqrt(dt)) itself, h^M on a pinned and on a sized ladder,
    # and V0 h^-M on a ladder sized up from a tiny V0 to the cost
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1.0)
    for market, half_height in (
        (base_market(rho=0.5, sigma2=800.0), 1),
        (base_market(rho=0.5), 10**4),
        (base_market(rho=0.5, sigma2=30.0), None),
        (dataclasses.replace(base_market(rho=0.5), v0=1e-300), None),
    ):
        with pytest.raises(ValueError, match=r"the ladder's rows V0 h\^\(\+-M\) overflow"):
            build_grid(market, option, dt=1.0, half_height=half_height)


def test_grid_propagates_infeasibility():
    market = base_market(rho=0.99)
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1.0)
    grid = build_grid(market, option, dt=0.01, half_height=100)
    with pytest.raises(CalibrationInfeasible):
        solve(market, option, grid)


# ---------------------------------------------------------------------------
# backward induction
# ---------------------------------------------------------------------------


def test_single_step_reduces_to_one_period_formula():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=2.0)
    grid, cal, vg = induce(market, option, dt=1.0, m=1)
    h = cal.h
    disc_cost = math.exp(-market.r * 1.0)
    cont = g_value(
        PayoffPair(max(h - disc_cost, 0.0), max(1.0 / h - disc_cost, 0.0)),
        cal,
        UtilityParams(2.0),
    )
    expected = max(max(1.0 - 1.0, 0.0), cont)
    assert vg.values_t0[1] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("rho,gamma", [(0.5, 1.0), (-0.3, 4.0)])
def test_small_lattice_matches_extended_precision_recursion(rho, gamma, grid_recorder):
    market = base_market(rho=rho)
    option = OptionSpec(cost=1.0, maturity=0.5, gamma=gamma)
    n_steps, m = 3, 4
    grid = build_grid(market, option, option.maturity / n_steps, m)
    cal = calibrate(market, grid.dt)
    _, values = grid_recorder.induce(grid, cal, option)
    ref = mpmath_reference_grid(market, option, n_steps, m)
    assert np.max(np.abs(values - ref)) < 1e-12


def test_value_dominance_and_monotonicity(grid_recorder):
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.0)
    grid = build_grid(market, option, 0.02)
    vg, values = grid_recorder.induce(grid, calibrate(market, grid.dt), option)
    strike = option.cost * np.exp(-market.r * np.arange(grid.n_steps + 1) * grid.dt)
    exercise = np.maximum(grid.row_values[:, None] - strike[None, :], 0.0)
    assert np.all(values >= -1e-15)
    assert np.all(values - exercise >= -1e-12)
    # nonincreasing in the row index (decreasing project value) at every time
    assert np.all(np.diff(values, axis=0) <= 1e-12)
    assert not vg.anomalous.any()


def test_complete_market_values_do_not_depend_on_gamma():
    cal = degenerate_complete_calibration(dt=0.02)
    option_lo = OptionSpec(cost=1.0, maturity=1.0, gamma=0.5)
    option_hi = OptionSpec(cost=1.0, maturity=1.0, gamma=5.0)
    grid = build_grid(base_market(rho=1.0), option_lo, 0.02, 40)
    lo = backward_induce(grid, cal, option_lo).values_t0
    hi = backward_induce(grid, cal, option_hi).values_t0
    scale = np.maximum(np.abs(lo), 1e-30)
    assert np.max(np.abs(lo - hi) / scale) < 1e-9


def test_high_risk_aversion_collapses_to_npv():
    market = base_market(rho=0.0)
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=100.0)
    grid, cal, vg = induce(market, option, dt=0.01)
    npv = np.maximum(grid.row_values - option.cost, 0.0)
    cell = grid.row_values * (grid.step_ratio - 1.0)
    assert np.all(vg.values_t0 - npv >= -1e-12)
    assert np.max(vg.values_t0 - npv) < cell.max()


def test_rejects_grid_with_negative_top_boundary():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=50.0, maturity=1.0, gamma=1.0)
    grid = build_grid(market, option, dt=0.1, half_height=3)
    cal = calibrate(market, grid.dt)
    with pytest.raises(ValueError, match="top boundary"):
        backward_induce(grid, cal, option)


def plain_summary(mask):
    """(exercise depth, anomalous) of one column's exercise mask, row by
    row: the length of the run of exercised rows from the top, and whether
    a row below that run exercises."""
    rows = mask.tolist()
    depth = 0
    while depth < len(rows) and rows[depth]:
        depth += 1
    return depth, any(rows[depth:])


# Interior exercise masks of a five-row ladder, as (mask, depth,
# anomalous): before maturity the top row always exercises and the
# worthless bottom row never does.
INTERIOR_MASKS = {
    "top-row-only": ([True, False, False, False, False], 1, False),
    "run-ending-above-the-bottom": ([True, True, True, True, False], 4, False),
    "top-run-gap-exercised-node": ([True, True, False, True, False], 2, True),
    "top-row-gap-exercised-run": ([True, False, True, True, False], 1, True),
    "top-row-gap-node-above-the-bottom": ([True, False, False, True, False], 1, True),
}


def _no_bound(*args):
    raise ValueError("no perpetual bound")


def _one_step_forcing(monkeypatch, masks):
    """One step on a five-row ladder that is in the money throughout, with
    a continuation that forces the time-0 exercise masks ``masks`` (a row
    per lattice): 0 lets a row exercise, 1e9 keeps it from exercising.  A
    forced continuation need not keep to the bound that lets the induction
    skip the rows above its window, so the bound is taken away and every
    row is induced."""
    market = base_market(rho=0.5)
    option = OptionSpec(cost=0.1, maturity=0.1, gamma=1.0)
    grid = build_grid(market, option, 0.1, 2)
    assert grid.n_steps == 1 and (grid.row_values > option.cost).all()
    # g's window on the flat column of one five-row segment per lattice:
    # all of it but its first and last rows, a lattice's rows 1 .. 3
    # between the seams
    flat = np.where(np.array(masks, ndmin=2), 0.0, 1e9).ravel()[1:-1]
    forced = lambda *args, **kwargs: flat
    monkeypatch.setattr(reopt.lattice, "g_values", forced)
    monkeypatch.setattr(reopt.lattice, "perpetual_threshold", _no_bound)
    return grid, calibrate(market, grid.dt), option


@pytest.mark.parametrize("case", INTERIOR_MASKS.values(), ids=INTERIOR_MASKS.keys())
def test_mask_summary(monkeypatch, case):
    # every row is in the money at maturity, so the terminal column
    # exercises all five rows and is never anomalous
    mask, depth, anomalous = case
    grid, cal, option = _one_step_forcing(monkeypatch, mask)
    vg = backward_induce(grid, cal, option)
    assert vg.exercise_depth.tolist() == [depth, 5]
    assert vg.anomalous.tolist() == [anomalous, False]


def test_mask_summary_of_stacked_lattices(monkeypatch):
    # the same masks on the flat column of K lattices
    masks, depths, anomalous = zip(*INTERIOR_MASKS.values())
    grid, cal, option = _one_step_forcing(monkeypatch, masks)
    vgs = backward_induce(*gamma_stack(grid, cal, option, (1.0,) * len(masks)))
    assert [vg.exercise_depth.tolist() for vg in vgs] == [[depth, 5] for depth in depths]
    assert [vg.anomalous.tolist() for vg in vgs] == [[flag, False] for flag in anomalous]


@pytest.mark.parametrize("rows_in_the_money", [5, 0], ids=["every-row", "no-row"])
def test_terminal_mask_summary(rows_in_the_money):
    # at maturity the rows in the money exercise, a run from the top, even
    # when that is every row or none
    market = base_market(rho=0.5)
    grid = build_grid(market, OptionSpec(cost=1.0, maturity=0.1, gamma=1.0), 0.1, 2)
    at_maturity = GridSpec(n_steps=0, half_height=2, dt=grid.dt, row_values=grid.row_values)
    cost = 0.1 if rows_in_the_money else float(grid.row_values[0])
    option = OptionSpec(cost=cost, maturity=0.1, gamma=1.0)
    vg = backward_induce(at_maturity, calibrate(market, grid.dt), option)
    assert vg.exercise_depth.tolist() == [rows_in_the_money]
    assert vg.anomalous.tolist() == [False]


@pytest.mark.parametrize("cost", [1.0, 0.1])
def test_recorded_exercise_summary_matches_the_grid(cost, grid_recorder):
    # A node exercises exactly where its value equals the positive exercise
    # value (the top row always, before maturity; never the worthless
    # bottom row, even when cost 0.1 puts it in the money at maturity).
    market = base_market(rho=0.5)
    option = OptionSpec(cost=cost, maturity=2.0, gamma=1.0, cost_growth=0.02)
    grid = build_grid(market, option, 0.02)
    vg, values = grid_recorder.induce(grid, calibrate(market, grid.dt), option)
    t = np.arange(grid.n_steps + 1) * grid.dt
    strike = option.cost * np.exp((option.cost_growth - market.r) * t)
    exercise = np.maximum(grid.row_values[:, None] - strike[None, :], 0.0)
    masks = (values == exercise) & (exercise > 0.0)
    masks[0, :-1] = True
    summaries = [plain_summary(masks[:, n]) for n in range(grid.n_steps + 1)]
    assert [d for d, _ in summaries] == vg.exercise_depth.tolist()
    assert [a for _, a in summaries] == vg.anomalous.tolist()


def reference_column_loop(grid, cal, option):
    """The column loop without the in-the-money cut-off, in plain numpy:
    every column clamps the exercise value at 0 and tests each row for a
    positive exercise value.  Gamma 0 takes the linear limit of g."""
    if option.gamma == 0.0:
        cont_of = lambda x_up, x_dn: linear_limit_values(x_up, x_dn, cal)
    else:
        cont_of = lambda x_up, x_dn: g_values(x_up, x_dn, cal, option.gamma)
    n_steps, rows, v = grid.n_steps, grid.n_rows, grid.row_values
    t = np.arange(n_steps + 1) * grid.dt
    strike = option.cost * np.exp((option.cost_growth - cal.r) * t)
    values = np.empty((rows, n_steps + 1))
    depth = np.zeros(n_steps + 1, dtype=int)
    anomalous = np.zeros(n_steps + 1, dtype=bool)
    payoff = v - strike[n_steps]
    col = np.maximum(payoff, 0.0)
    values[:, n_steps] = col
    depth[n_steps], anomalous[n_steps] = plain_summary(payoff > 0.0)
    for n in range(n_steps - 1, -1, -1):
        # contiguous columns: numpy's exp and log may round differently on
        # strided input
        cont = cont_of(col[:-2], col[2:])
        ex = v - strike[n]
        new = np.empty(rows)
        new[0] = ex[0]
        new[-1] = 0.0
        ex = np.maximum(ex, 0.0)
        new[1:-1] = np.maximum(ex[1:-1], cont)
        mask = np.zeros(rows, dtype=bool)
        mask[0] = True
        mask[1:-1] = (ex[1:-1] >= cont) & (ex[1:-1] > 0.0)
        depth[n], anomalous[n] = plain_summary(mask)
        values[:, n] = col = new
    return values, depth, anomalous


def _in_the_money_rows(grid, cal, option):
    t = np.arange(grid.n_steps + 1) * grid.dt
    strike = option.cost * np.exp((option.cost_growth - cal.r) * t)
    return (grid.row_values[:, None] > strike[None, :]).sum(axis=0)


def _case_growth(alpha):
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.0, cost_growth=alpha)
    grid = build_grid(market, option, 0.02)
    cal = calibrate(market, grid.dt)
    assert len(set(_in_the_money_rows(grid, cal, option).tolist())) > 3  # the cut-off moves
    return grid, cal, option


def _case_strike_on_a_row():
    # cost_growth = r keeps K_n = cost, a ladder row: V - K is exactly 0 there
    market = base_market(rho=0.5)
    grid = build_grid(market, OptionSpec(cost=1.0, maturity=1.0, gamma=1.0), 0.02, 60)
    option = OptionSpec(cost=float(grid.row_values[grid.half_height - 4]), maturity=1.0,
                        gamma=1.0, cost_growth=market.r)
    assert (grid.row_values == option.cost).sum() == 1
    return grid, calibrate(market, grid.dt), option


def _case_strike_overtakes_the_rows():
    # K_0 = cost = V0, a ladder row, and the strike rises faster than the
    # rows are spaced, so the rows just above it are worthless one step on
    # and g is exactly 0 at the row where V - K_0 is exactly 0
    market = base_market(rho=0.5)
    option = OptionSpec(cost=market.v0, maturity=0.2, gamma=1.0, cost_growth=1.0)
    grid = build_grid(market, option, 0.1, 20)
    assert grid.row_values[grid.half_height] == option.cost
    return grid, calibrate(market, grid.dt), option


def _case_top_row_at_the_largest_strike():
    # K_0 = cost = v[0], so no row is in the money at time 0, while the
    # lower rows of column 1 are still exactly 0
    market = base_market(rho=0.5)
    grid = build_grid(market, OptionSpec(cost=1.0, maturity=0.5, gamma=1.0), 0.05, 20)
    option = OptionSpec(cost=float(grid.row_values[0]), maturity=0.5, gamma=1.0)
    cal = calibrate(market, grid.dt)
    assert _in_the_money_rows(grid, cal, option)[0] == 0
    return grid, cal, option


def _case_cost_below_the_ladder():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=0.1, maturity=2.0, gamma=1.0)
    grid = build_grid(market, option, 0.02)
    cal = calibrate(market, grid.dt)
    assert (_in_the_money_rows(grid, cal, option) == grid.n_rows).all()
    return grid, cal, option


def _case_signed_weights():
    market = base_market(rho=0.99)
    option = OptionSpec(cost=1.0, maturity=0.5, gamma=2.0, cost_growth=0.1)
    grid = build_grid(market, option, 1.0 / 300.0)
    cal = calibrate(market, grid.dt, p_tol=1e-4)
    assert min(cal.probabilities) < 0.0
    return grid, cal, option


def _case_signed_weights_below_zero():
    # weights inside the container's slack that make g(x, 0) < 0 for x > 0,
    # so only the clamp of the exercise value at 0 decides out-of-the-money
    # rows
    dt = 0.02
    cal = LatticeCalibration(
        u=math.exp(0.25 * math.sqrt(dt)), h=math.exp(0.2 * math.sqrt(dt)),
        p1=-0.001, p2=0.011, p3=0.001, p4=0.989, dt=dt, r=0.04,
    )
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0)
    assert g_value(PayoffPair(1.0, 0.0), cal, UtilityParams(1.0)) < 0.0
    return build_grid(base_market(rho=0.5), option, dt), cal, option


def _case_anomalous():
    # a strike that outgrows the project: exercise regions that are not
    # up-sets, in a different number of columns at each gamma
    dt = 0.02
    cal = LatticeCalibration(
        u=math.exp(0.25 * math.sqrt(dt)), h=math.exp(0.2 * math.sqrt(dt)),
        p1=0.2, p2=0.12, p3=0.38, p4=0.3, dt=dt, r=0.0,
    )
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0, cost_growth=0.33)
    return build_grid(base_market(rho=0.5), option, dt, 30), cal, option


def _case_delta_nonpositive():
    # a project drift above the riskless rate: the lattice's one-step growth
    # of V exceeds 1, so there is no perpetual bound
    market = base_market(rho=0.5, delta=-0.02)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.0)
    grid = build_grid(market, option, 0.02)
    return grid, calibrate(market, grid.dt), option


def _case_degenerate_complete():
    cal = degenerate_complete_calibration(dt=0.02)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=3.0, cost_growth=-0.05)
    return build_grid(base_market(rho=1.0), option, 0.02, 30), cal, option


def _linear(case):
    """``case`` at gamma 0, the linear limit."""
    grid, cal, option = case
    return grid, cal, dataclasses.replace(option, gamma=0.0)


@pytest.mark.parametrize(
    "case,windowed",
    [
        pytest.param(lambda: _case_growth(0.1), True, id="growth-above-r"),
        pytest.param(lambda: _case_growth(-0.05), True, id="growth-below-r"),
        pytest.param(_case_strike_on_a_row, True, id="strike-on-a-row"),
        pytest.param(_case_strike_overtakes_the_rows, True, id="strike-overtakes-rows"),
        # the cost is the top row, so no row lies above the bound
        pytest.param(_case_top_row_at_the_largest_strike, False, id="top-row-at-strike"),
        pytest.param(_case_cost_below_the_ladder, True, id="cost-below-ladder"),
        pytest.param(lambda: _linear(_case_growth(0.1)), True, id="linear"),
        pytest.param(
            lambda: _linear(_case_cost_below_the_ladder()), True, id="linear-cost-below-ladder"
        ),
        # with a signed weight g may exceed its linear limit: no bound
        pytest.param(_case_signed_weights, False, id="signed-weights"),
        pytest.param(_case_signed_weights_below_zero, False, id="signed-weights-below-zero"),
        # a growth of V just below 1 and a falling strike put the bound
        # above the ladder
        pytest.param(_case_degenerate_complete, False, id="degenerate-complete"),
        pytest.param(_case_delta_nonpositive, False, id="delta-nonpositive"),
    ],
)
def test_induction_is_bit_identical_to_the_reference_column_loop(case, windowed, grid_recorder):
    grid, cal, option = case()
    top = exercise_window_top(grid, cal, option)
    assert (top > 1) == windowed
    vg, recorded = grid_recorder.induce(grid, cal, option)
    # the operator ran once per column on the rows below the window top
    assert grid_recorder.widths == [grid.n_rows - 1 - top] * grid.n_steps
    values, depth, anomalous = reference_column_loop(grid, cal, option)
    assert np.array_equal(recorded, values)
    assert np.array_equal(vg.values_t0, values[:, 0])
    assert np.array_equal(vg.exercise_depth, depth)
    assert np.array_equal(vg.anomalous, anomalous)


@pytest.mark.parametrize(
    "gamma,gammas", [(1.0, None), (1.0, (0.1, 1.0, 10.0)), (0.0, None)],
    ids=["lattice", "stack", "linear"],
)
def test_a_window_the_boundary_reaches_is_induced_again_on_every_row(
    gamma, gammas, grid_recorder, monkeypatch
):
    # a bound far below the boundary puts the window top, rows - 2, under
    # it in the first columns, so the induction runs again on every row
    # and gives the reference's result
    grid, cal, option = _case_growth(0.1)
    option = dataclasses.replace(option, gamma=gamma)
    monkeypatch.setattr(reopt.lattice, "perpetual_threshold", lambda *args: 1e-300)
    _assert_induces_the_reference(grid_recorder, grid, cal, option, gammas)
    widths = [1, grid.n_rows - 2] if gammas is None else [(1,) * 3, (grid.n_rows - 2,) * 3]
    assert grid_recorder.widths == [widths[0]] * grid.n_steps + [widths[1]] * grid.n_steps


def _assert_induces_the_reference(grid_recorder, grid, cal, option, gammas=None):
    """The induction at ``option.gamma``, or at each of ``gammas`` stacked,
    gives the reference column loop's grid, depths and flags bit for bit."""
    if gammas is None:
        vg, recorded = grid_recorder.induce(grid, cal, option)
        lattices = [(vg, recorded, option)]
    else:
        stack = gamma_stack(grid, cal, option, gammas)
        lattices = zip(*grid_recorder.induce(*stack), stack[2])
    for vg, recorded, option_k in lattices:
        values, depth, anomalous = reference_column_loop(grid, cal, option_k)
        assert np.array_equal(recorded, values)
        assert np.array_equal(vg.values_t0, values[:, 0])
        assert np.array_equal(vg.exercise_depth, depth)
        assert np.array_equal(vg.anomalous, anomalous)


SMALL_BLOCK = 3


def _case_steps(n_steps):
    """A strike outgrowing r, as in ``_case_growth(0.1)``, on ``n_steps`` columns."""
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=0.02 * n_steps, gamma=1.0, cost_growth=0.1)
    grid = build_grid(market, option, 0.02)
    assert grid.n_steps == n_steps
    return grid, calibrate(market, grid.dt), option


BLOCK_EDGES = {
    "one-column": (lambda: _case_steps(1), None),
    "one-block": (lambda: _case_steps(SMALL_BLOCK), None),
    "one-block-and-a-column": (lambda: _case_steps(SMALL_BLOCK + 1), None),
    "several-blocks": (lambda: _case_steps(3 * SMALL_BLOCK + 2), None),
    "stack": (lambda: _case_growth(0.1), (0.1, 1.0, 10.0)),
    "linear": (lambda: _linear(_case_growth(0.1)), None),
    # the in-the-money count grows toward t = 0
    "growth-above-r": (lambda: _case_growth(0.1), None),
    # every row is in the money: the band reaches the bottom row, and
    # every column exercises down to any window top
    "cost-below-ladder": (_case_cost_below_the_ladder, None),
    # row 0 holds V - K_n < 0 over a zero in the first columns, so blocks
    # fail g's monotone test and are valued again
    "decreasing-columns": (_case_top_row_at_the_largest_strike, None),
}


@pytest.mark.parametrize("forced", [False, True], ids=["window", "forced-rerun"])
@pytest.mark.parametrize("case,gammas", BLOCK_EDGES.values(), ids=BLOCK_EDGES.keys())
def test_blocks_of_columns_match_the_reference_at_their_edges(
    case, gammas, forced, grid_recorder, monkeypatch
):
    # blocks of 3 columns: a first block that is full or partial, a lone
    # column, and with ``forced`` a window top of rows - 2 that the
    # boundary reaches, so that the induction starts again on every row
    # from a fresh ring
    monkeypatch.setattr(reopt.lattice, "_BLOCK", SMALL_BLOCK)
    grid, cal, option = case()
    if forced:
        monkeypatch.setattr(reopt.lattice, "perpetual_threshold", lambda *args: 1e-300)
    _assert_induces_the_reference(grid_recorder, grid, cal, option, gammas)
    # no second window where every column exercises down to any window
    # top, or where no bound is found and every row is induced at once
    reruns = forced and case not in (_case_cost_below_the_ladder, _case_top_row_at_the_largest_strike)
    assert len(grid_recorder.widths) == (2 if reruns else 1) * grid.n_steps


def test_a_threshold_that_overflows_leaves_no_bound(grid_recorder, monkeypatch):
    # a perpetual beta that rounds to 1 has no threshold: every row is induced
    grid, cal, option = _case_growth(0.1)
    monkeypatch.setattr(reopt.reference, "perpetual_beta", lambda *args: 1.0)
    _assert_induces_the_reference(grid_recorder, grid, cal, option)
    assert grid_recorder.widths == [grid.n_rows - 2] * grid.n_steps


def test_induction_memory_does_not_grow_with_the_steps():
    # a ring of columns, never the full grid: ten times the columns on the
    # same ladder, whose full grid would take 19 MB, peak at about the same
    market = base_market(rho=0.5)

    def peak(n_steps):
        option = OptionSpec(cost=1.0, maturity=n_steps / 900.0, gamma=1.0)
        grid = build_grid(market, option, 1.0 / 900.0, half_height=300)
        assert grid.n_steps == n_steps
        cal = calibrate(market, grid.dt)
        tracemalloc.start()
        try:
            backward_induce(grid, cal, option)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(400), peak(4000)
    assert large < 2 * small < 2e6


def test_a_gamma_too_small_for_g_is_rejected():
    # below gamma * cost = 1e-7, g's rounding (~1.6e-13 / gamma at dt =
    # 1/900) outweighs what risk aversion changes; at gamma 1e-14 g gave
    # the gamma -> infinity value
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.0)
    grid = build_grid(market, option, 0.02)
    cal = calibrate(market, grid.dt)
    for gamma, cost in ((1e-10, 1.0), (1e-14, 1.0), (1e-6, 0.05)):
        tiny = dataclasses.replace(option, gamma=gamma, cost=cost)
        with pytest.raises(ValueError, match=r"gamma \* cost = .* is below 1e-07"):
            backward_induce(grid, cal, tiny)
    with pytest.raises(ValueError, match="is below 1e-07"):
        backward_induce(*gamma_stack(grid, cal, option, (1.0, 1e-10)))
    # at and above the floor, and at gamma 0, the induction runs
    for gamma, cost in ((1e-6, 1.0), (2e-7, 0.5), (0.0, 1.0)):
        backward_induce(grid, cal, dataclasses.replace(option, gamma=gamma, cost=cost))


def test_a_gamma_whose_product_with_the_payoff_overflows_is_rejected(grid_recorder):
    # g would return NaN; the induction refuses before g runs
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.7e308)
    grid = build_grid(market, option, 0.02)
    cal = calibrate(market, grid.dt)
    for lattices in ((grid, cal, option), gamma_stack(grid, cal, option, (1.0, 1.7e308))):
        with pytest.raises(ValueError, match=r"gamma 1\.7e\+308 times the payoff .* overflows"):
            grid_recorder.induce(*lattices)
        assert grid_recorder.columns == []
    # gamma 1e300 times the payoffs in the window stays finite
    vg = backward_induce(grid, cal, dataclasses.replace(option, gamma=1e300))
    assert np.isfinite(vg.values_t0).all()


def test_induction_rejects_a_ladder_that_does_not_fall():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0)
    grid = build_grid(market, option, 0.1, 5)
    rows = grid.row_values.copy()
    rows[2], rows[3] = rows[3], rows[2]
    bad = GridSpec(n_steps=grid.n_steps, half_height=5, dt=grid.dt, row_values=rows)
    with pytest.raises(ValueError, match="strictly decreasing"):
        backward_induce(bad, calibrate(market, grid.dt), option)


def test_induction_rejects_a_calibration_at_another_step():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0)
    grid = build_grid(market, option, 0.1, 5)
    with pytest.raises(ValueError, match="different time steps"):
        backward_induce(grid, calibrate(market, 2.0 * grid.dt), option)


def test_induction_without_steps_values_the_payoff(grid_recorder):
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0)
    grid = build_grid(market, option, 0.1, 5)
    at_maturity = GridSpec(n_steps=0, half_height=5, dt=grid.dt, row_values=grid.row_values)
    vg, values = grid_recorder.induce(at_maturity, calibrate(market, grid.dt), option)
    payoff = np.maximum(grid.row_values - option.cost, 0.0)
    assert payoff[0] > 0.0 and payoff[-1] == 0.0
    np.testing.assert_array_equal(vg.values_t0, payoff)
    np.testing.assert_array_equal(values[:, 0], payoff)


GAMMAS = (0.01, 0.1, 1.0, 10.0, 100.0)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _case_growth(0.1),
        lambda: _case_growth(-0.05),
        _case_strike_on_a_row,
        _case_strike_overtakes_the_rows,
        _case_top_row_at_the_largest_strike,
        _case_cost_below_the_ladder,
        _case_signed_weights,
        _case_signed_weights_below_zero,
        _case_degenerate_complete,
        _case_anomalous,
    ],
    ids=[
        "growth-above-r", "growth-below-r", "strike-on-a-row", "strike-overtakes-rows",
        "top-row-at-strike", "cost-below-ladder", "signed-weights",
        "signed-weights-below-zero", "degenerate-complete", "anomalous",
    ],
)
def test_stacked_gammas_match_separate_inductions(case, grid_recorder):
    # one induction over (K, 2M+1) columns is K inductions, bit for bit
    grid, cal, option = case()
    stack = gamma_stack(grid, cal, option, GAMMAS)
    stacked, values = grid_recorder.induce(*stack)
    assert [v.shape for v in values] == [(grid.n_rows, grid.n_steps + 1)] * len(GAMMAS)
    if case is _case_anomalous:
        assert [int(vg.anomalous.sum()) for vg in stacked] == [5, 7, 27, 0, 0]
    for vg, lattice_values, option_k in zip(stacked, values, stack[2]):
        alone, alone_values = grid_recorder.induce(grid, cal, option_k)
        assert np.array_equal(lattice_values, alone_values)
        assert np.array_equal(vg.values_t0, alone.values_t0)
        assert np.array_equal(vg.exercise_depth, alone.exercise_depth)
        assert np.array_equal(vg.anomalous, alone.anomalous)


@pytest.mark.parametrize(
    "rho,cost_growth,dt,p_tol",
    [(0.5, 0.0, 0.02, 0.0), (0.0, 0.06, 0.02, 0.0), (0.99, 0.1, 1.0 / 300.0, 1e-4)],
    ids=["base", "growth-above-r", "signed-weights"],
)
def test_solve_gammas_matches_solve_at_each_gamma(rho, cost_growth, dt, p_tol):
    market = base_market(rho=rho)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.0, cost_growth=cost_growth)
    grid = build_grid(market, option, dt)
    stacked = solve_stack(*gamma_stack(grid, calibrate(market, grid.dt, p_tol), option, GAMMAS))
    assert len(stacked) == len(GAMMAS)
    assert len({float(sol.values.values_t0[grid.half_height]) for sol in stacked}) == len(GAMMAS)
    for sol, gamma in zip(stacked, GAMMAS):
        alone = solve(market, dataclasses.replace(option, gamma=gamma), grid, p_tol)
        assert sol.cal == alone.cal
        assert np.array_equal(sol.values.values_t0, alone.values.values_t0)
        assert np.array_equal(sol.values.exercise_depth, alone.values.exercise_depth)
        assert np.array_equal(sol.values.anomalous, alone.values.anomalous)
        for field in dataclasses.fields(sol.curve):
            a, b = getattr(sol.curve, field.name), getattr(alone.curve, field.name)
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field.name


def test_stacked_gammas_are_checked():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0)
    grid = build_grid(market, option, 0.1, 5)
    cal = calibrate(market, grid.dt)
    stack, cals, options = gamma_stack(grid, cal, option, (1.0, 2.0))
    with pytest.raises(ValueError, match="at least one grid"):
        GridStack(())
    finer = build_grid(market, option, 0.05, 5)
    with pytest.raises(ValueError, match="must share the step"):
        GridStack((grid, finer))
    for args, match in (
        ((stack, cals[:1], options), "one calibration and one option per grid"),
        ((stack, cals, options[:1]), "one calibration and one option per grid"),
        ((stack, cals, [options[0], dataclasses.replace(option, gamma=0.0)]),
         "gamma must be positive"),
        ((stack, cals, [options[0], dataclasses.replace(option, cost=0.9)]), "must share"),
        ((stack, cals, [options[0], dataclasses.replace(option, cost_growth=0.1)]), "must share"),
    ):
        with pytest.raises(ValueError, match=match):
            backward_induce(*args)
        with pytest.raises(ValueError, match=match):
            solve_stack(*args)


def _assert_same_solution(sol, alone):
    assert sol.cal == alone.cal
    assert np.array_equal(sol.values.values_t0, alone.values.values_t0)
    assert np.array_equal(sol.values.exercise_depth, alone.values.exercise_depth)
    assert np.array_equal(sol.values.anomalous, alone.values.anomalous)
    for field in dataclasses.fields(sol.curve):
        a, b = getattr(sol.curve, field.name), getattr(alone.curve, field.name)
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field.name


def _sweep_lattices(spec, gammas=None):
    """(markets, grids, calibrations, options) of the points of ``spec``
    whose grid and calibration succeed, at ``gammas`` where given."""
    lattices = []
    for k, value in enumerate(spec.values):
        cfg = reopt.experiments._point_config(spec, value)
        option = cfg.option if gammas is None else dataclasses.replace(cfg.option, gamma=gammas[k])
        try:
            grid = build_grid(cfg.market, option, cfg.dt)
            lattices.append((cfg.market, grid, calibrate(cfg.market, grid.dt, cfg.p_tol), option))
        except ValueError:
            continue
    return tuple(map(list, zip(*lattices)))


@pytest.mark.parametrize("name,points", [("fig1-left", 19), ("fig2-left", 5), ("fig2-right", 4)])
def test_a_sweep_stack_matches_solve_at_each_point(name, points):
    # the feasible points of a rho, sigma2 or delta sweep, each with its
    # own calibration, row spacing and half height, as one induction: each lattice's values
    # over its own rows, depths, flags and threshold curve are solve's
    (spec,) = reopt.experiments.build_preset(name, dt=0.02)
    markets, grids, cals, options = _sweep_lattices(spec)
    assert len(grids) == points and len({cal.p1 for cal in cals}) == points
    if name == "fig1-left":
        assert [g.half_height for g in grids] == sorted({g.half_height for g in grids}, reverse=True)
    stacked = solve_stack(GridStack(grids), cals, options)
    assert len(stacked) == points
    for sol, market, grid, option in zip(stacked, markets, grids, options):
        assert sol.values.values_t0.shape == (grid.n_rows,)
        _assert_same_solution(sol, solve(market, option, grid))


def _mixed_stack():
    """Four correlations, each at its own gamma and half height."""
    _, spec = reopt.experiments.parse_config(json.dumps({
        "project": {"rho": 0.0},
        "option": {"gamma": 1.0, "maturity": 4.0},
        "grid": {"dt": 0.02},
        "sweep": {"name": "rho", "values": [-0.8, -0.2, 0.4, 0.9]},
    }))
    return _sweep_lattices(spec, gammas=(0.3, 1.0, 4.0, 12.0))


def test_a_stack_of_ladders_and_gammas_matches_the_reference(grid_recorder):
    # the recorded grids rebuild each lattice's rows above the window from
    # its own ladder; every lattice is the reference column loop, bit for bit
    markets, grids, cals, options = _mixed_stack()
    assert len({g.n_rows for g in grids}) == 4
    stack = GridStack(grids)
    stacked, values = grid_recorder.induce(stack, cals, options)
    for vg, recorded, grid, cal, option in zip(stacked, values, grids, cals, options):
        ref_values, depth, anomalous = reference_column_loop(grid, cal, option)
        assert np.array_equal(recorded, ref_values)
        assert np.array_equal(vg.values_t0, ref_values[:, 0])
        assert np.array_equal(vg.exercise_depth, depth)
        assert np.array_equal(vg.anomalous, anomalous)
    for sol, market, grid, option in zip(
        solve_stack(stack, cals, options), markets, grids, options
    ):
        _assert_same_solution(sol, solve(market, option, grid))


def _assert_each_lattice_alone(grid_recorder, grids, cals, options):
    """The stack of the lattices gives each one's own induction, grid
    included, bit for bit."""
    stacked, values = grid_recorder.induce(GridStack(grids), cals, options)
    for vg, recorded, grid, cal, option in zip(stacked, values, grids, cals, options):
        alone, alone_values = grid_recorder.induce(grid, cal, option)
        assert np.array_equal(recorded, alone_values)
        assert np.array_equal(vg.values_t0, alone.values_t0)
        assert np.array_equal(vg.exercise_depth, alone.exercise_depth)
        assert np.array_equal(vg.anomalous, alone.anomalous)


def test_a_stack_of_hard_cases_matches_each_lattice_alone(grid_recorder, monkeypatch):
    markets, grids, cals, options = _mixed_stack()
    # a signed p_tol weight: that lattice is induced alone, inside the stack
    market = base_market(rho=0.99)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.0, cost_growth=0.1)
    signed = build_grid(market, option, 1.0 / 300.0)
    signed_cal = calibrate(market, signed.dt, 1e-4)
    assert not signed_cal.positive_weights
    other = base_market(rho=0.5)
    other_grid = build_grid(other, option, 1.0 / 300.0)
    other_cal = calibrate(other, other_grid.dt)
    _assert_each_lattice_alone(grid_recorder, (other_grid, signed, other_grid),
                               (other_cal, signed_cal, other_cal), (option,) * 3)
    # a gamma at the edge of overflow, checked on each lattice's own rows
    huge = [dataclasses.replace(o, gamma=1e308) for o in options]
    _assert_each_lattice_alone(grid_recorder, grids, cals, huge)
    # a bound far below the boundary puts every window top under it: each
    # lattice is induced again on every row
    monkeypatch.setattr(reopt.lattice, "perpetual_threshold", lambda *args: 1e-300)
    _assert_each_lattice_alone(grid_recorder, grids, cals, options)
    # a lattice without a bound
    monkeypatch.setattr(reopt.lattice, "perpetual_threshold", _no_bound)
    _assert_each_lattice_alone(grid_recorder, grids, cals, options)


def _random_mix(seed, dt=1.0 / 64.0):
    """Six lattices at one step, dt a power of 2 so that every maturity
    N dt keeps it exactly, whose N, sigma2 (so M and h), rho, gamma and
    delta are drawn at random; one has delta <= 0, so no bound."""
    rng = np.random.default_rng(seed)
    grids, cals, options = [], [], []
    while len(grids) < 6:
        delta = -0.02 if not grids else float(rng.choice([0.0, 0.02, 0.04, 0.08]))
        market = base_market(float(rng.uniform(-0.9, 0.9)), delta, float(rng.uniform(0.1, 0.35)))
        option = OptionSpec(cost=1.0, maturity=int(rng.integers(3, 120)) * dt,
                            gamma=float(10.0 ** rng.uniform(-1.0, 1.0)))
        grid = build_grid(market, option, dt)
        try:
            cal = calibrate(market, grid.dt)
        except CalibrationInfeasible:
            continue
        grids.append(grid), cals.append(cal), options.append(option)
    assert len({g.dt for g in grids}) == 1 and len({g.n_steps for g in grids}) > 3
    assert exercise_window_top(grids[0], cals[0], options[0]) == 1
    return grids, cals, options


@pytest.mark.parametrize("seed", [3, 11, 2024])
@pytest.mark.parametrize("forced", [False, True], ids=["window", "forced-rerun"])
def test_a_random_mix_of_lattices_matches_the_reference(seed, forced, grid_recorder, monkeypatch):
    # lattices that differ in N, M, sigma2, rho, gamma and delta, on one
    # flat column: each one's grid, depths and flags are the reference
    # column loop's, bit for bit.  Forced: a bound far below the boundary
    # for the lattices of sigma2 above 0.2, so that those whose boundary
    # then reaches the window (and no others) are induced again on every row
    grids, cals, options = _random_mix(seed)
    if forced:
        real = reopt.lattice.perpetual_threshold
        monkeypatch.setattr(
            reopt.lattice, "perpetual_threshold",
            lambda sigma2, *args: 1e-300 if sigma2 > 0.2 else real(sigma2, *args),
        )
    stacked, values = grid_recorder.induce(GridStack(grids), cals, options)
    passes = [[k for k, *_ in members] for members, _ in grid_recorder.passes]
    assert sorted(passes[0]) == list(range(6))
    if forced:
        bounded = {k for k, c in enumerate(cals) if math.log(c.h) / math.sqrt(c.dt) > 0.2}
        assert len(passes) == 2 and passes[1] and set(passes[1]) <= bounded
    else:
        assert len(passes) == 1
    for vg, recorded, grid, cal, option in zip(stacked, values, grids, cals, options):
        ref_values, depth, anomalous = reference_column_loop(grid, cal, option)
        assert np.array_equal(recorded, ref_values)
        assert np.array_equal(vg.values_t0, ref_values[:, 0])
        assert np.array_equal(vg.exercise_depth, depth)
        assert np.array_equal(vg.anomalous, anomalous)


def test_a_stack_with_decreasing_columns_matches_each_lattice_alone(grid_recorder):
    # fig4's rho 0 at dt = 0.003 has runs of decreasing columns, so its
    # stack with rho 0.99 values blocks again, with g testing each column
    # (on a flat column that test fails at the seams: g's general path)
    (spec,) = reopt.experiments.build_preset("fig4", dt=0.003)
    markets, grids, cals, options = _sweep_lattices(spec)
    assert len(grids) == 2 and grids[0].n_steps == 3333
    _assert_each_lattice_alone(grid_recorder, grids, cals, options)
    grid_recorder.induce(GridStack(grids), cals, options)
    assert grid_recorder.redone > 0


def test_a_stack_of_one_runs_the_one_lattice_loop(grid_recorder):
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=1.0, gamma=1.0)
    grid = build_grid(market, option, 0.05)
    cal = calibrate(market, grid.dt)
    (vg,), (values,) = grid_recorder.induce(GridStack((grid,)), (cal,), (option,))
    assert all(span.ndim == 1 for span in grid_recorder.columns)
    alone, alone_values = grid_recorder.induce(grid, cal, option)
    assert np.array_equal(values, alone_values)
    assert np.array_equal(vg.values_t0, alone.values_t0)
    assert np.array_equal(vg.exercise_depth, alone.exercise_depth)


# ---------------------------------------------------------------------------
# thresholds and value curves
# ---------------------------------------------------------------------------


def test_terminal_threshold_is_first_row_above_strike():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=1.0)
    grid, cal, vg = induce(market, option, dt=0.02)
    curve = extract_thresholds(vg, grid, cal, option)
    k_term = option.cost * math.exp(-market.r * option.maturity)
    above = grid.row_values[grid.row_values > k_term]
    assert curve.threshold_discounted[-1] == above[-1]
    assert curve.time_to_maturity[0] == pytest.approx(2.0)
    assert curve.time_to_maturity[-1] == pytest.approx(0.0, abs=1e-12)
    finite = np.isfinite(curve.threshold_discounted)
    assert np.all(curve.threshold_discounted[finite] <= grid.row_values[0])
    assert np.all(curve.threshold_discounted[finite] >= grid.row_values[-1])
    # spot and discounted agree at t = 0 and carry the grid-cell half width
    assert curve.threshold_spot[0] == curve.threshold_discounted[0]
    assert curve.resolution_halfwidth[0] == pytest.approx(
        curve.threshold_discounted[0] * (grid.step_ratio - 1.0)
    )


def test_exercise_region_is_up_set_on_base_runs():
    for rho, gamma in ((0.0, 1.0), (0.9, 0.1), (0.5, 10.0)):
        market = base_market(rho=rho)
        option = OptionSpec(cost=1.0, maturity=10.0, gamma=gamma)
        grid, cal, vg = induce(market, option, dt=0.02)
        assert not vg.anomalous.any()
        assert not extract_thresholds(vg, grid, cal, option).no_exercise.any()


def test_grid_refinement_moves_threshold_less_than_one_coarse_cell():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1.0)
    grid_c, cal_c, vg_c = induce(market, option, dt=0.01)
    grid_f, cal_f, vg_f = induce(market, option, dt=0.005)
    thr_c = extract_thresholds(vg_c, grid_c, cal_c, option).spot_t0
    thr_f = extract_thresholds(vg_f, grid_f, cal_f, option).spot_t0
    coarse_cell = thr_c * (grid_c.step_ratio - 1.0)
    assert abs(thr_f - thr_c) < coarse_cell


def test_exercise_reaching_the_ladder_bottom_has_no_threshold():
    # every row but the worthless bottom one exercises on the default
    # M = 60 ladder (every row at maturity), so no boundary shows
    market = base_market(rho=0.5)
    option = OptionSpec(cost=0.3, maturity=2.0, gamma=1.0)
    curve = solve(market, option, build_grid(market, option, 0.01)).curve
    assert curve.ladder_bottom.all()
    assert np.isnan(curve.threshold_spot).all()
    assert not curve.no_exercise.any()
    # a taller ladder holds the boundary
    tall = solve(market, option, build_grid(market, option, 0.01, 150)).curve
    assert not tall.ladder_bottom.any()
    assert np.isfinite(tall.threshold_spot).all()


def test_value_curve_boundaries_and_pasting_slope():
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1.0)
    grid, cal, vg = induce(market, option, dt=1.0 / 300.0)
    points = value_curve(vg, grid, option)
    assert points.shape == (grid.n_rows, 3)
    v_spot, c_spot = points[:, 0], points[:, 1]
    assert c_spot[0] == pytest.approx(v_spot[0] - option.cost, abs=1e-12)
    assert c_spot[-1] == 0.0
    thr = extract_thresholds(vg, grid, cal, option).spot_t0
    i = int(np.argmin(np.abs(v_spot - thr)))
    slope = (c_spot[i - 1] - c_spot[i + 1]) / (v_spot[i - 1] - v_spot[i + 1])
    assert 0.85 <= slope <= 1.1


def test_option_spec_validation():
    with pytest.raises(ValueError):
        OptionSpec(cost=0.0, maturity=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        OptionSpec(cost=1.0, maturity=-1.0, gamma=1.0)
    with pytest.raises(ValueError):
        OptionSpec(cost=1.0, maturity=1.0, gamma=-1.0)
    with pytest.raises(ValueError):
        OptionSpec(cost=1.0, maturity=1.0, gamma=math.nan)
    with pytest.raises(ValueError):
        OptionSpec(cost=1.0, maturity=1.0, gamma=1.0, cost_growth=math.inf)


def test_zero_gamma_is_valued_in_the_linear_limit(monkeypatch):
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=2.0, gamma=0.0)
    grid = build_grid(market, option, 0.02)
    cal = calibrate(market, grid.dt)
    small = [
        backward_induce(grid, cal, dataclasses.replace(option, gamma=gamma)).values_t0
        for gamma in (1e-4, 1e-6)
    ]

    def no_g(*args, **kwargs):
        raise AssertionError("gamma 0 called g")

    monkeypatch.setattr(reopt.lattice, "g_values", no_g)
    limit = backward_induce(grid, cal, option).values_t0
    # g approaches the limit at first order in gamma
    gap_4, gap_6 = (np.abs(values - limit).max() for values in small)
    assert gap_4 < 1e-5 and gap_6 < gap_4 / 50.0


def test_blocks_with_decreasing_columns_are_valued_again_bit_for_bit(grid_recorder):
    # fig4's rho 0 at dt = 0.003 has runs of columns with some x_up < x_dn,
    # which fail g's monotone test: the blocks that read them run again
    # with g testing each column, and the result is the reference's
    (spec,) = reopt.experiments.build_preset("fig4", dt=0.003)
    cfg = reopt.experiments._point_config(spec, 0.0)
    grid = build_grid(cfg.market, cfg.option, cfg.dt)
    cal = calibrate(cfg.market, grid.dt)
    vg, recorded = grid_recorder.induce(grid, cal, cfg.option)
    assert grid.n_steps == 3333 and grid_recorder.redone > 0
    values, depth, anomalous = reference_column_loop(grid, cal, cfg.option)
    assert np.array_equal(recorded, values)
    assert np.array_equal(vg.values_t0, values[:, 0])
    assert np.array_equal(vg.exercise_depth, depth)
    assert np.array_equal(vg.anomalous, anomalous)
