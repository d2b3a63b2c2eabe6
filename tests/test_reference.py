"""Closed-form benchmarks and the vanishing-risk-aversion lattice limit."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from reopt import (
    OptionSpec,
    build_grid,
    henderson_threshold,
    parse_config,
    perpetual_beta,
    perpetual_threshold,
    run_single,
    run_sweep,
    solve,
)

from conftest import base_market


def beta_by_root_finder(sigma, r, delta):
    f = lambda b: 0.5 * sigma * sigma * b * (b - 1.0) + (r - delta) * b - r
    return brentq(f, 1.0 + 1e-12, 200.0, xtol=1e-14)


def test_textbook_case_is_exactly_two():
    assert perpetual_threshold(sigma=0.2, r=0.04, delta=0.04, cost=1.0) == 2.0
    assert perpetual_beta(0.2, 0.04, 0.04) == 2.0


def test_higher_shortfall_case_against_root_finder():
    value = perpetual_threshold(sigma=0.2, r=0.04, delta=0.08, cost=1.0)
    beta = perpetual_beta(0.2, 0.04, 0.08)
    assert beta == pytest.approx((3.0 + math.sqrt(17.0)) / 2.0, rel=1e-14)
    assert beta == pytest.approx(beta_by_root_finder(0.2, 0.04, 0.08), rel=1e-12)
    assert value == pytest.approx(1.3903882032022077, rel=1e-14)


def test_threshold_scales_with_cost():
    one = perpetual_threshold(sigma=0.3, r=0.05, delta=0.02, cost=1.0)
    two = perpetual_threshold(sigma=0.3, r=0.05, delta=0.02, cost=2.0)
    assert two == pytest.approx(2.0 * one, rel=1e-15)


def test_divergence_for_nonpositive_shortfall():
    with pytest.raises(ValueError, match="diverges for delta <= 0"):
        perpetual_threshold(sigma=0.2, r=0.04, delta=0.0, cost=1.0)
    with pytest.raises(ValueError, match="diverges for delta <= 0"):
        perpetual_beta(0.2, 0.04, -0.01)


def test_beta_exceeds_one_and_decreases_in_sigma():
    for r, delta in ((0.04, 0.04), (0.08, 0.02), (0.0, 0.05), (0.3, 0.01)):
        betas = [perpetual_beta(s, r, delta) for s in np.linspace(0.05, 1.0, 20)]
        assert all(b > 1.0 for b in betas)
        assert all(x > y for x, y in zip(betas, betas[1:]))


def test_stable_branch_matches_root_finder():
    # r - delta - sigma^2/2 large and positive exercises the rewritten branch
    for sigma, r, delta in ((0.05, 0.3, 0.01), (0.02, 0.5, 0.001), (0.4, 0.04, 0.3)):
        assert perpetual_beta(sigma, r, delta) == pytest.approx(
            beta_by_root_finder(sigma, r, delta), rel=1e-12
        )


def test_perpetual_params_validation():
    # both entry points check every input; only delta <= 0 diverges
    for sigma, r, delta, match in (
        (0.0, 0.04, 0.04, "sigma"),
        (-0.2, 0.04, 0.04, "sigma"),
        (math.nan, 0.04, 0.04, "sigma"),
        (math.inf, 0.04, 0.04, "sigma"),
        (1e-200, 0.04, 0.04, "sigma"),  # positive, but its square underflows
        (1e-161, 0.04, 0.08, "beta overflows"),  # its square is positive, but beta overflows
        (1e-155, 0.0, 0.04, "beta overflows"),
        (0.2, -0.01, 0.04, "r must"),
        (0.2, math.nan, 0.04, "r must"),
        (0.2, 0.04, math.inf, "delta"),
        (0.2, 0.04, -math.inf, "delta"),
        (0.2, 0.04, math.nan, "delta"),
    ):
        for benchmark in (perpetual_beta, perpetual_threshold):
            with pytest.raises(ValueError, match=match) as exc:
                benchmark(sigma, r, delta)
            assert exc.type is ValueError
    for cost in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="cost"):
            perpetual_threshold(0.2, 0.04, 0.04, cost)


def test_threshold_of_a_beta_that_rounds_to_one_overflows():
    # beta = 1 + delta / (sigma^2 / 2) at r = 0, and near 1 for tiny r and delta
    for sigma, r, delta in ((0.2, 0.0, 1e-20), (0.2, 1e-18, 1e-18)):
        assert perpetual_beta(sigma, r, delta) == 1.0
        with pytest.raises(ValueError, match="threshold overflows") as exc:
            perpetual_threshold(sigma, r, delta)
        assert exc.type is ValueError


# ---------------------------------------------------------------------------
# risk-neutral idiosyncratic limit: the lattice at gamma 0
# ---------------------------------------------------------------------------


def linear_limit_curve(market, maturity, dt):
    option = OptionSpec(cost=1.0, maturity=maturity, gamma=0.0)
    return solve(market, option, build_grid(market, option, dt)).curve


def test_limit_threshold_below_perpetual_and_increasing_in_maturity():
    dt = 1.0 / 300.0
    market = base_market(rho=0.9)
    perpetual = perpetual_threshold(sigma=0.2, r=0.04, delta=0.04)
    thresholds = []
    for maturity in (5.0, 10.0, 20.0, 40.0):
        thresholds.append(linear_limit_curve(market, maturity, dt).spot_t0)
    assert all(t < perpetual for t in thresholds)
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


def test_limit_consistent_with_small_gamma_lattice():
    dt = 1.0 / 300.0
    market = base_market(rho=0.5)
    option = OptionSpec(cost=1.0, maturity=10.0, gamma=1e-4)
    limit_curve = linear_limit_curve(market, option.maturity, dt)
    gamma_curve = solve(market, option, build_grid(market, option, dt)).curve
    assert limit_curve.spot_t0 == pytest.approx(gamma_curve.spot_t0, abs=1e-3)


def test_limit_threshold_is_rho_insensitive_under_fixed_shortfall():
    # With the drift tied to the equilibrium shortfall, the linear-limit
    # pricing measure gives the project the drift r - delta for every rho.
    dt = 1.0 / 200.0
    a = linear_limit_curve(base_market(rho=0.0), 10.0, dt).spot_t0
    b = linear_limit_curve(base_market(rho=0.8), 10.0, dt).spot_t0
    assert a == pytest.approx(b, rel=2e-2)


def test_npv_is_a_lower_bound_for_lattice_thresholds():
    dt = 0.01
    for rho, gamma in ((0.0, 0.5), (0.5, 5.0), (0.9, 1.0)):
        market = base_market(rho=rho)
        option = OptionSpec(cost=1.0, maturity=10.0, gamma=gamma)
        grid = build_grid(market, option, dt)
        curve = solve(market, option, grid).curve
        cell = curve.spot_t0 * (grid.step_ratio - 1.0)
        # the NPV rule's threshold is the cost itself
        assert curve.spot_t0 > option.cost - cell


# ---------------------------------------------------------------------------
# Henderson's perpetual threshold in the incomplete market
# ---------------------------------------------------------------------------


def test_henderson_threshold_solves_its_equation():
    beta = 1.0 + 2.0 * 0.04 / 0.2**2
    for rho, gamma, cost in ((0.5, 1.0, 1.0), (0.0, 10.0, 1.0), (0.9, 0.01, 2.0), (-0.5, 3.0, 0.5)):
        v = henderson_threshold(0.2, 0.04, gamma, rho, cost)
        c = gamma * (1.0 - rho * rho)
        assert cost < v < perpetual_threshold(0.2, 0.0, 0.04, cost)
        assert math.expm1(c * (v - cost)) / c == pytest.approx(v / beta, rel=1e-14)


def test_henderson_threshold_falls_with_c_to_its_linear_limit():
    # the threshold depends on rho and gamma only through c = gamma (1 - rho^2)
    limit = perpetual_threshold(0.2, 0.0, 0.04, 1.0)
    assert henderson_threshold(0.2, 0.04, 0.0, 0.5) == limit
    assert henderson_threshold(0.2, 0.04, 5.0, 1.0) == limit
    assert henderson_threshold(0.2, 0.04, 1e-12, 0.0) == pytest.approx(limit, rel=1e-11)
    assert henderson_threshold(0.2, 0.04, 1.0, 0.5) == henderson_threshold(0.2, 0.04, 1.0, -0.5)
    c_values = (1e-3, 0.1, 1.0, 10.0, 100.0)
    thresholds = [henderson_threshold(0.2, 0.04, c, 0.0) for c in c_values]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    assert thresholds[-1] > 1.0
    # an exponent that overflows lies above the root
    assert 1.0 < henderson_threshold(0.2, 0.04, 1e300, 0.0) <= math.nextafter(1.0, 2.0)


def test_henderson_threshold_rejects_bad_inputs():
    for args in ((0.2, 0.04, -1.0, 0.5), (0.2, 0.04, math.nan, 0.5), (0.2, 0.04, math.inf, 0.5),
                 (0.2, 0.04, 1.0, 1.5), (0.2, 0.04, 1.0, math.nan), (0.2, 0.0, 1.0, 0.5),
                 (0.0, 0.04, 1.0, 0.5), (0.2, 0.04, 1.0, 0.5, 0.0)):
        with pytest.raises(ValueError):
            henderson_threshold(*args)


HENDERSON_PAIRS = ((0.0, 1.0), (0.5, 1.0), (0.9, 1.0), (0.5, 5.0), (0.0, 10.0), (0.9, 0.01))


def test_lattice_threshold_lies_within_one_cell_of_henderson():
    # cost growing at r keeps the discounted strike at I; at T = 40 the
    # finite-horizon threshold has reached V* to within the cell, from
    # below or on the first row above it.  The pairs at gamma 1 run as one
    # rho sweep, a stacked induction.
    def doc(rho, gamma, sweep=None):
        text = {
            "project": {"rho": rho},
            "option": {"gamma": gamma, "maturity": 40.0, "cost_growth": 0.04},
            "grid": {"dt": 0.01},
        }
        return json.dumps(dict(text, sweep=sweep) if sweep else text)

    _, sweep = parse_config(doc(0.0, 1.0, {"name": "rho", "values": [0.0, 0.5, 0.9]}))
    results = run_sweep(sweep)
    for rho, gamma in HENDERSON_PAIRS[3:]:
        results.append(run_single(parse_config(doc(rho, gamma))[0]))
    for (rho, gamma), result in zip(HENDERSON_PAIRS, results):
        assert not result.error
        v_star = henderson_threshold(0.2, 0.04, gamma, rho)
        h = math.exp(0.2 * math.sqrt(result.config.option.maturity / result.n))
        assert v_star / h <= result.threshold_spot_t0 <= v_star * h, (rho, gamma)
