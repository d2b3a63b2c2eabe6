"""The certainty-equivalent operator g and its independent numeric oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reopt import (
    PayoffPair,
    UtilityParams,
    calibrate,
    g_value,
    g_values,
    indifference,
    linear_limit_values,
    numeric_indifference_price,
)

from conftest import base_market, degenerate_complete_calibration

CAL = calibrate(base_market(rho=0.5), dt=0.05)
CAL_YEAR = calibrate(base_market(rho=0.5), dt=1.0)
GAMMA1 = UtilityParams(1.0)

payoffs = st.floats(-3.0, 3.0)


def mpmath_g(x1, x2, cal, gamma):
    """Naive formula in 50-digit arithmetic, for cross checks."""
    with mpmath.workdps(50):
        g, x1, x2 = mpmath.mpf(gamma), mpmath.mpf(x1), mpmath.mpf(x2)
        p1, p2, p3, p4 = (mpmath.mpf(p) for p in cal.probabilities)
        q = mpmath.mpf(cal.q)
        up = mpmath.log((p1 + p2) / (p1 * mpmath.exp(-g * x1) + p2 * mpmath.exp(-g * x2)))
        dn = mpmath.log((p3 + p4) / (p3 * mpmath.exp(-g * x1) + p4 * mpmath.exp(-g * x2)))
        return float((q * up + (1 - q) * dn) / g)


def test_zero_payoff_prices_to_zero():
    assert g_value(PayoffPair(0.0, 0.0), CAL, GAMMA1) == 0.0


def test_constant_payoff_prices_to_itself():
    for gamma in (0.1, 1.0, 25.0):
        got = g_value(PayoffPair(0.5, 0.5), CAL, UtilityParams(gamma))
        assert got == pytest.approx(0.5, abs=1e-14)


def test_degenerate_complete_market_is_linear_and_gamma_free():
    cal = degenerate_complete_calibration()
    x_h, x_l = 0.7, -0.2
    expected = cal.q * x_h + (1.0 - cal.q) * x_l
    values = [
        g_value(PayoffPair(x_h, x_l), cal, UtilityParams(g)) for g in (0.01, 1.0, 100.0)
    ]
    for v in values:
        assert v == pytest.approx(expected, abs=1e-14)
    assert max(values) - min(values) < 1e-14


@given(x_h=payoffs, x_l=payoffs, c=st.floats(-5.0, 5.0), gamma=st.floats(0.05, 20.0))
@settings(max_examples=200, deadline=None)
def test_cash_invariance(x_h, x_l, c, gamma):
    util = UtilityParams(gamma)
    shifted = g_value(PayoffPair(x_h + c, x_l + c), CAL, util)
    base = g_value(PayoffPair(x_h, x_l), CAL, util)
    assert shifted == pytest.approx(base + c, abs=1e-10)


@given(x_h=payoffs, x_l=payoffs, gamma=st.floats(0.05, 20.0))
@settings(max_examples=200, deadline=None)
def test_monotone_in_each_payoff(x_h, x_l, gamma):
    util = UtilityParams(gamma)
    base = g_value(PayoffPair(x_h, x_l), CAL, util)
    bumped_h = g_value(PayoffPair(x_h + 0.1, x_l), CAL, util)
    bumped_l = g_value(PayoffPair(x_h, x_l + 0.1), CAL, util)
    assert bumped_h >= base - 1e-13
    assert bumped_l >= base - 1e-13
    # the strict increase shrinks like exp(-gamma spread): only resolvable
    # in doubles while the saturated state keeps measurable weight
    if gamma * (abs(x_h - x_l) + 0.1) < 25.0:
        assert bumped_h > base
        assert bumped_l > base


@given(x_h=payoffs, x_l=payoffs, gamma=st.floats(0.05, 20.0))
@settings(max_examples=200, deadline=None)
def test_bounded_by_subhedge_and_linear_limit(x_h, x_l, gamma):
    util = UtilityParams(gamma)
    low, high = float(linear_limit_values(x_h, x_l, CAL)), min(x_h, x_l)
    value = g_value(PayoffPair(x_h, x_l), CAL, util)
    assert high - 1e-12 <= value <= low + 1e-12
    if abs(x_h - x_l) > 1e-3:
        assert high < value < low


def test_decreasing_in_gamma():
    pay = PayoffPair(0.8, -0.3)
    values = [g_value(pay, CAL, UtilityParams(g)) for g in (0.01, 0.1, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_matches_high_precision_naive_formula():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x_h, x_l = rng.uniform(-2, 2, size=2)
        gamma = 10.0 ** rng.uniform(-2, 1)
        got = g_value(PayoffPair(x_h, x_l), CAL, UtilityParams(gamma))
        assert got == pytest.approx(mpmath_g(x_h, x_l, CAL, gamma), abs=1e-13)


def test_no_overflow_for_large_gamma_payoff_products():
    # |gamma x| around 700 overflows exp() in the naive form
    value = g_value(PayoffPair(7.0, -7.0), CAL, UtilityParams(100.0))
    assert math.isfinite(value)
    assert value == pytest.approx(mpmath_g(7.0, -7.0, CAL, 100.0), abs=1e-10)
    assert math.isfinite(g_value(PayoffPair(1.0, -1.0), CAL, UtilityParams(700.0)))


def test_vectorized_matches_scalar():
    x_up = np.array([0.0, 0.4, -1.2, 2.0])
    x_dn = np.array([0.0, -0.1, 0.3, 1.9])
    vec = g_values(x_up, x_dn, CAL, 2.5)
    for i in range(len(x_up)):
        assert vec[i] == g_value(PayoffPair(x_up[i], x_dn[i]), CAL, UtilityParams(2.5))


# ---------------------------------------------------------------------------
# single-exponential path for monotone columns
# ---------------------------------------------------------------------------


def general_g_values(monkeypatch, x_up, x_dn, cal, gamma):
    """g_values with the monotone path switched off."""
    with monkeypatch.context() as m:
        m.setattr(indifference, "_g_monotone", lambda *args: None)
        return g_values(x_up, x_dn, cal, gamma)


def monotone_column(rng, size=400, scale=1.0):
    x_dn = np.sort(rng.uniform(-scale, scale, size))
    x_up = x_dn + rng.exponential(0.05 * scale, size)
    x_up[::5] = x_dn[::5]  # ties
    return x_up, x_dn


@pytest.mark.parametrize("gamma", [0.01, 0.3, 1.0, 10.0, 100.0])
def test_monotone_path_is_bit_identical_to_general_path(monkeypatch, gamma):
    rng = np.random.default_rng(17)
    x_up, x_dn = monotone_column(rng)
    up0, dn0 = x_up.copy(), x_dn.copy()
    got = g_values(x_up, x_dn, CAL, gamma)
    assert indifference._g_monotone(x_up, x_dn, CAL, gamma) is not None
    assert np.array_equal(got, general_g_values(monkeypatch, x_up, x_dn, CAL, gamma))
    assert np.array_equal(x_up, up0) and np.array_equal(x_dn, dn0)
    assert not np.shares_memory(got, x_up) and not np.shares_memory(got, x_dn)


def test_monotone_path_on_lattice_column_views(monkeypatch):
    # The induction passes overlapping views of one column.
    rng = np.random.default_rng(3)
    col = np.sort(rng.uniform(0.0, 2.0, 301))[::-1].copy()
    before = col.copy()
    got = g_values(col[:-2], col[2:], CAL, 2.0)
    assert np.array_equal(col, before)
    assert np.array_equal(got, general_g_values(monkeypatch, col[:-2], col[2:], CAL, 2.0))


def test_monotone_path_does_not_overflow_near_gamma_x_700(monkeypatch):
    rng = np.random.default_rng(5)
    x_up, x_dn = monotone_column(rng, scale=7.0)
    with np.errstate(all="raise"):
        got = g_values(x_up, x_dn, CAL, 100.0)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, general_g_values(monkeypatch, x_up, x_dn, CAL, 100.0))
    assert got[0] == pytest.approx(mpmath_g(x_up[0], x_dn[0], CAL, 100.0), abs=1e-10)


def test_decreasing_node_falls_back_to_general_path(monkeypatch):
    rng = np.random.default_rng(9)
    x_up, x_dn = monotone_column(rng)
    x_up[123] = x_dn[123] - 0.01
    assert indifference._g_monotone(x_up, x_dn, CAL, 1.0) is None
    got = g_values(x_up, x_dn, CAL, 1.0)
    assert np.array_equal(got, general_g_values(monkeypatch, x_up, x_dn, CAL, 1.0))
    assert got[123] == pytest.approx(mpmath_g(x_up[123], x_dn[123], CAL, 1.0), abs=1e-13)


def test_zero_weights_fall_back_and_cancel_gamma(monkeypatch):
    cal = degenerate_complete_calibration()
    x_up, x_dn = monotone_column(np.random.default_rng(1))
    linear = cal.q * x_up + (1.0 - cal.q) * x_dn
    for gamma in (0.01, 1.0, 100.0):
        got = g_values(x_up, x_dn, cal, gamma)
        assert np.array_equal(got, general_g_values(monkeypatch, x_up, x_dn, cal, gamma))
        assert np.max(np.abs(got - linear)) < 1e-14


def test_signed_weight_falls_back(monkeypatch):
    cal = calibrate(base_market(rho=0.99), dt=1.0 / 300.0, p_tol=1e-3)
    assert min(cal.probabilities) < 0.0
    x_up, x_dn = monotone_column(np.random.default_rng(2))
    got = g_values(x_up, x_dn, cal, 2.0)
    assert np.array_equal(got, general_g_values(monkeypatch, x_up, x_dn, cal, 2.0))


def test_g_value_returns_a_python_float():
    assert type(g_value(PayoffPair(0.4, 0.1), CAL, GAMMA1)) is float


def test_rejects_nonfinite_payoffs():
    with pytest.raises(ValueError):
        g_value(PayoffPair(math.nan, 0.0), CAL, GAMMA1)
    with pytest.raises(ValueError):
        g_value(PayoffPair(0.0, math.inf), CAL, GAMMA1)


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        UtilityParams(0.0)
    with pytest.raises(ValueError):
        UtilityParams(-1.0)
    with pytest.raises(ValueError):
        g_values(0.1, 0.2, CAL, 0.0)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


def test_limits_collapse_for_constant_payoff():
    assert linear_limit_values(0.37, 0.37, CAL) == pytest.approx(0.37, abs=1e-15)


def test_small_gamma_approaches_linear_limit():
    pay = PayoffPair(0.6, -0.4)
    low = float(linear_limit_values(pay.x_h, pay.x_l, CAL))
    assert g_value(pay, CAL, UtilityParams(1e-8)) == pytest.approx(low, abs=1e-6)


def test_large_gamma_approaches_subhedge_value():
    # The gap decays like 1/gamma with a log(1/p) coefficient of order one,
    # so 1e4 leaves a few 1e-5 and 1e6 is comfortably inside 1e-5.
    pay = PayoffPair(0.02, 0.01)
    high = min(pay)
    gap4 = g_value(pay, CAL_YEAR, UtilityParams(1e4)) - high
    gap6 = g_value(pay, CAL_YEAR, UtilityParams(1e6)) - high
    assert 0.0 < gap4 < 1e-4
    assert 0.0 < gap6 < 1e-5
    assert gap4 / gap6 == pytest.approx(100.0, rel=1e-3)


def test_linear_limit_values_is_branchwise_expectation():
    got = float(linear_limit_values(1.0, -1.0, CAL))
    p = CAL
    up = (p.p1 - p.p2) / (p.p1 + p.p2)
    dn = (p.p3 - p.p4) / (p.p3 + p.p4)
    assert got == pytest.approx(p.q * up + (1 - p.q) * dn, abs=1e-15)


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


def test_oracle_zero_payoff():
    pi = numeric_indifference_price(PayoffPair(0.0, 0.0), CAL, GAMMA1)
    assert abs(pi) < 1e-9


def test_oracle_wealth_independence():
    pay = PayoffPair(0.3, -0.1)
    p0 = numeric_indifference_price(pay, CAL, GAMMA1, x0=0.0)
    p5 = numeric_indifference_price(pay, CAL, GAMMA1, x0=5.0)
    pm = numeric_indifference_price(pay, CAL, GAMMA1, x0=-2.5)
    assert p0 == pytest.approx(p5, abs=1e-8)
    assert p0 == pytest.approx(pm, abs=1e-8)


def test_one_period_call_example():
    # Base parameters over a single year step, gamma = 1, payoff (0.3, 0).
    pay = PayoffPair(0.3, 0.0)
    g = g_value(pay, CAL_YEAR, GAMMA1)
    assert g == pytest.approx(0.09686990919711062, abs=1e-12)
    pi = numeric_indifference_price(pay, CAL_YEAR, GAMMA1)
    assert g == pytest.approx(pi, abs=1e-8)


def test_oracle_agrees_with_g_on_random_inputs():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 60:
        market = base_market(rho=float(rng.uniform(-0.9, 0.9)))
        dt = float(rng.uniform(0.02, 1.0))
        try:
            cal = calibrate(market, dt)
        except Exception:
            continue
        gamma = float(10.0 ** rng.uniform(-2, 1.5))
        pay = PayoffPair(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        x0 = float(rng.uniform(-3, 3))
        util = UtilityParams(gamma)
        pi = numeric_indifference_price(pay, cal, util, x0=x0)
        assert g_value(pay, cal, util) == pytest.approx(pi, abs=1e-7)
        checked += 1


SIGNED_CAL = calibrate(base_market(rho=0.99), dt=1.0 / 300.0, p_tol=1e-4)


@pytest.mark.parametrize("gamma", [0.01, 1.0])
@pytest.mark.parametrize("pay", [PayoffPair(0.3, -0.1), PayoffPair(-1.0, 2.0)])
def test_oracle_agrees_with_g_under_a_signed_weight(pay, gamma):
    assert min(SIGNED_CAL.probabilities) < 0.0
    util = UtilityParams(gamma)
    pi = numeric_indifference_price(pay, SIGNED_CAL, util)
    assert g_value(pay, SIGNED_CAL, util) == pytest.approx(pi, abs=1e-7)


def test_signed_weight_dominating_the_mixture_is_rejected_by_both_routes():
    pay, util = PayoffPair(-1.0, 2.0), UtilityParams(30.0)
    with pytest.raises(ValueError, match="undefined"):
        g_value(pay, SIGNED_CAL, util)
    with pytest.raises(ValueError, match="undefined"):
        numeric_indifference_price(pay, SIGNED_CAL, util)


@pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
def test_oracle_agrees_with_g_on_a_degenerate_complete_lattice(gamma):
    cal = degenerate_complete_calibration()
    util = UtilityParams(gamma)
    for pay in (PayoffPair(0.7, -0.2), PayoffPair(-1.0, 2.0)):
        pi = numeric_indifference_price(pay, cal, util)
        assert g_value(pay, cal, util) == pytest.approx(pi, abs=1e-7)


def test_oracle_does_not_use_the_g_kernel(monkeypatch):
    cases = [
        (PayoffPair(0.3, -0.1), CAL, UtilityParams(1.0)),
        (PayoffPair(-1.0, 2.0), SIGNED_CAL, UtilityParams(0.01)),
        (PayoffPair(0.7, -0.2), degenerate_complete_calibration(), UtilityParams(10.0)),
    ]
    expected = [g_value(*case) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not call the g kernel")

    for name in ("g_values", "_g_monotone", "_branch_contribution"):
        monkeypatch.setattr(indifference, name, forbidden)
    for case, g in zip(cases, expected):
        assert numeric_indifference_price(*case) == pytest.approx(g, abs=1e-7)
