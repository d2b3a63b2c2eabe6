"""Calibration: moment matching, feasibility, equilibrium relations."""

import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reopt import (
    CalibrationInfeasible,
    MarketParams,
    calibrate,
    capm_equilibrium_rate,
    parse_config,
    verify_moments,
)

from conftest import base_market


def four_state_moments(cal):
    """Independent brute-force expectation over the four joint states."""
    p = [cal.p1, cal.p2, cal.p3, cal.p4]
    s = [cal.u, cal.u, cal.d, cal.d]
    v = [cal.h, cal.l, cal.h, cal.l]
    mean_s = sum(pi * si for pi, si in zip(p, s))
    mean_v = sum(pi * vi for pi, vi in zip(p, v))
    mean_sv = sum(pi * si * vi for pi, si, vi in zip(p, s, v))
    return mean_s, mean_v, mean_sv - mean_s * mean_v


def test_traded_multiplier_base_step():
    cal = calibrate(base_market(rho=0.5), dt=1.0 / 900.0)
    assert cal.u == math.exp(0.25 * math.sqrt(1.0 / 900.0))
    assert cal.u == pytest.approx(1.0083682, abs=1e-7)
    assert cal.d == 1.0 / cal.u


def test_reciprocal_multipliers_and_probability_sum():
    cal = calibrate(base_market(rho=0.3), dt=0.02)
    assert abs(cal.u * cal.d - 1.0) < 1e-15
    assert abs(cal.h * cal.l - 1.0) < 1e-15
    assert abs(cal.probabilities.sum() - 1.0) < 5e-16


def assert_derived_g_constants(cal):
    assert cal.log_up_mass == math.log(cal.p1 + cal.p2)
    assert cal.log_down_mass == math.log(cal.p3 + cal.p4)
    assert cal.q_down == 1.0 - cal.q
    assert cal.positive_weights is (min(cal.p1, cal.p2, cal.p3, cal.p4) > 0.0)


def test_derived_g_constants_follow_their_definitions():
    cal = calibrate(base_market(rho=0.5), dt=0.01)
    assert_derived_g_constants(cal)
    assert cal.positive_weights
    # replace() re-derives them from the new probabilities and multipliers
    moved = replace(cal, u=cal.u * 1.01, p1=cal.p1 + 0.01, p4=cal.p4 - 0.01)
    assert_derived_g_constants(moved)
    assert moved.log_up_mass != cal.log_up_mass and moved.q_down != cal.q_down
    signed = calibrate(base_market(rho=0.99), dt=1.0 / 300.0, p_tol=1e-4)
    assert_derived_g_constants(signed)
    assert not signed.positive_weights
    degenerate = replace(cal, p1=cal.p1 + cal.p2, p2=0.0)
    assert_derived_g_constants(degenerate)
    assert not degenerate.positive_weights
    with pytest.raises(ValueError, match="init=False"):
        replace(cal, q_down=0.5)


def test_calibration_survives_a_pickle_round_trip():
    cal = calibrate(base_market(rho=-0.3), dt=0.02)
    back = pickle.loads(pickle.dumps(cal))
    assert back == cal
    assert_derived_g_constants(back)


def test_zero_correlation_factorizes():
    cal = calibrate(base_market(rho=0.0), dt=0.01)
    a = cal.p1 + cal.p2
    b = cal.p1 + cal.p3
    assert cal.p1 == pytest.approx(a * b, abs=1e-16)
    assert cal.p1 * cal.p4 == pytest.approx(cal.p2 * cal.p3, abs=1e-16)


def test_base_parameters_probability_vector():
    # rho = 0.5, delta = 0.04 (so mu2 = 0.03), dt = 0.01; values frozen from
    # the closed-form solve and confirmed by the brute-force moment check.
    market = base_market(rho=0.5)
    assert market.mu2 == pytest.approx(0.03, abs=1e-15)
    cal = calibrate(market, dt=0.01)
    assert cal.p1 == pytest.approx(0.3755404177553506, abs=1e-15)
    assert cal.p2 == pytest.approx(0.13321397117953743, abs=1e-15)
    assert cal.p3 == pytest.approx(0.11696004055103931, abs=1e-15)
    assert cal.p4 == pytest.approx(0.3742855705140727, abs=1e-15)
    mean_s, mean_v, cov = four_state_moments(cal)
    assert abs(mean_s - math.exp((market.mu1 - market.r) * 0.01)) < 1e-14
    assert abs(mean_v - math.exp((market.mu2 - market.r) * 0.01)) < 1e-14
    assert abs(cov - 0.5 * 0.25 * 0.2 * 0.01) < 1e-15


@given(
    mu1=st.floats(-0.05, 0.2),
    sigma1=st.floats(0.1, 0.5),
    mu2=st.floats(-0.1, 0.2),
    sigma2=st.floats(0.1, 0.5),
    rho=st.floats(-0.95, 0.95),
    r=st.floats(0.0, 0.08),
    dt=st.floats(1e-4, 0.25),
)
@settings(max_examples=200, deadline=None)
def test_exact_moment_matching(mu1, sigma1, mu2, sigma2, rho, r, dt):
    market = MarketParams(mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2, rho=rho, r=r)
    try:
        cal = calibrate(market, dt)
    except CalibrationInfeasible:
        assume(False)
    mean_s, mean_v, cov = four_state_moments(cal)
    assert abs(mean_s - math.exp((mu1 - r) * dt)) < 1e-14
    assert abs(mean_v - math.exp((mu2 - r) * dt)) < 1e-14
    assert abs(cov - rho * sigma1 * sigma2 * dt) < 1e-14
    assert all(0.0 < p < 1.0 for p in cal.probabilities)
    assert abs(cal.probabilities.sum() - 1.0) < 5e-16


@given(
    x1=st.floats(0.01, 1.0),
    x2=st.floats(0.01, 1.0),
    x3=st.floats(0.01, 1.0),
    x4=st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_bilinear_reduction_identity(x1, x2, x3, x4):
    # p1 p4 - p2 p3 = p1 - (p1 + p2)(p1 + p3) for any probability vector
    total = x1 + x2 + x3 + x4
    p1, p2, p3, p4 = x1 / total, x2 / total, x3 / total, x4 / total
    lhs = p1 * p4 - p2 * p3
    rhs = p1 - (p1 + p2) * (p1 + p3)
    assert abs(lhs - rhs) < 1e-15


def test_p1_strictly_increasing_in_rho():
    market = base_market(rho=0.0)
    rhos = np.linspace(-0.9, 0.9, 19)
    p1s = [calibrate(replace(market, rho=r), 0.005).p1 for r in rhos]
    assert all(b > a for a, b in zip(p1s, p1s[1:]))


def test_feasible_near_perfect_correlation_with_small_step():
    # Approaching |rho| = 1 stays feasible provided dt shrinks along with it.
    for k in (1, 2, 3):
        gap = 10.0**-k
        for sign in (+1.0, -1.0):
            market = base_market(rho=sign * (1.0 - gap))
            cal = calibrate(market, dt=gap * gap)
            assert all(0.0 < p < 1.0 for p in cal.probabilities)


def test_infeasible_when_step_too_large():
    # e^{(mu1 - r) dt} exceeds u itself once dt is extreme
    with pytest.raises(CalibrationInfeasible):
        calibrate(base_market(rho=0.0), dt=15.0)


def test_infeasible_when_correlation_too_extreme_for_step():
    with pytest.raises(CalibrationInfeasible, match="p3"):
        calibrate(base_market(rho=0.99), dt=0.01)


def test_probability_slack_admits_marginal_calibrations():
    market = base_market(rho=0.99)
    with pytest.raises(CalibrationInfeasible):
        calibrate(market, dt=1.0 / 300.0)
    # the violation is a few 1e-5; a 1e-6 slack is not enough, 1e-3 is
    with pytest.raises(CalibrationInfeasible):
        calibrate(market, dt=1.0 / 300.0, p_tol=1e-6)
    cal = calibrate(market, dt=1.0 / 300.0, p_tol=1e-3)
    assert not all(0.0 < p < 1.0 for p in cal.probabilities)
    assert cal.p3 < 0.0 and cal.p3 > -1e-4
    # the signed solution still matches the moments exactly
    mean_s, mean_v, cov = four_state_moments(cal)
    assert abs(mean_s - math.exp((market.mu1 - market.r) * cal.dt)) < 1e-14
    assert abs(mean_v - math.exp((market.mu2 - market.r) * cal.dt)) < 1e-14
    assert abs(cov - 0.99 * 0.25 * 0.2 * cal.dt) < 1e-14


def test_market_validation():
    with pytest.raises(ValueError):
        MarketParams(mu1=0.1, sigma1=0.0, mu2=0.0, sigma2=0.2, rho=0.0, r=0.04)
    with pytest.raises(ValueError):
        MarketParams(mu1=0.1, sigma1=0.2, mu2=0.0, sigma2=0.2, rho=1.5, r=0.04)
    with pytest.raises(ValueError):
        MarketParams(mu1=0.1, sigma1=0.2, mu2=0.0, sigma2=0.2, rho=0.0, r=0.04, v0=-1.0)
    with pytest.raises(ValueError):
        MarketParams(mu1=math.nan, sigma1=0.2, mu2=0.0, sigma2=0.2, rho=0.0, r=0.04)


def test_calibrate_rejects_bad_dt():
    with pytest.raises(ValueError):
        calibrate(base_market(rho=0.0), dt=0.0)
    with pytest.raises(ValueError):
        calibrate(base_market(rho=0.0), dt=-0.5)


def test_calibrate_rejects_a_step_that_rounds_away():
    # sigma sqrt(dt) below half an ulp of 1 leaves u = h = 1.0: u - d = 0
    for dt in (1e-300, 1e-40):
        with pytest.raises(CalibrationInfeasible, match="too small"):
            calibrate(base_market(rho=0.5), dt=dt)


def test_calibrate_rejects_negative_p_tol():
    with pytest.raises(ValueError, match="p_tol must be nonnegative"):
        calibrate(base_market(rho=0.0), dt=0.01, p_tol=-1e-6)


def test_calibrate_rejects_nan_p_tol():
    # a NaN slack used to fail every probability check, so a feasible
    # calibration was reported infeasible ("p1=0.246747 outside (0, 1)")
    market = base_market(rho=0.0)
    assert calibrate(market, dt=0.01).positive_weights
    with pytest.raises(ValueError, match="p_tol must be nonnegative") as err:
        calibrate(market, dt=0.01, p_tol=math.nan)
    assert not isinstance(err.value, CalibrationInfeasible)


def test_infeasible_when_project_branch_mass_leaves_the_unit_interval():
    # the traded branch mass a is inside (0, 1), but a project drift this
    # far above the rate puts exp((mu2 - r) dt) beyond h, so b > 1
    market = MarketParams(mu1=0.115, sigma1=0.25, mu2=5.0, sigma2=0.2, rho=0.0, r=0.04)
    with pytest.raises(CalibrationInfeasible, match="project branch mass b="):
        calibrate(market, dt=1.0)


@pytest.mark.parametrize("changes, message", [
    ({"dt": 0.0}, "dt must be positive and finite"),
    ({"u": 1.0}, "u and h must be finite and greater than 1"),
    ({"p1": math.nan}, "probabilities must be finite"),
    ({"p1": 0.5, "p2": -0.1, "p3": 0.3, "p4": 0.3}, "outside the admissible range"),
    ({"p1": 0.25, "p2": 0.25, "p3": 0.25, "p4": 0.2501}, "must sum to 1"),
    ({"p1": 0.0, "p2": 0.0, "p3": 0.5, "p4": 0.5}, "each traded-asset branch needs positive mass"),
    ({"r": math.inf}, "r must be finite"),
])
def test_calibration_container_rejects(changes, message):
    cal = calibrate(base_market(rho=0.5), dt=0.01)
    with pytest.raises(ValueError, match=message):
        replace(cal, **changes)


def test_moment_report_fields():
    market = base_market(rho=0.5)
    cal = calibrate(market, dt=0.01)
    (mean_x, target_x), (mean_y, target_y), (cov, target_cov) = verify_moments(cal, market)
    assert abs(mean_x - target_x) < 1e-14
    assert abs(mean_y - target_y) < 1e-14
    assert abs(cov - target_cov) < 1e-15
    assert target_cov == pytest.approx(0.00025, abs=1e-18)


def test_moment_report_zero_correlation_covariance():
    market = base_market(rho=0.0)
    _, _, (cov, target_cov) = verify_moments(calibrate(market, dt=0.01), market)
    assert abs(cov) < 1e-15
    assert target_cov == 0.0


def test_capm_equilibrium_examples():
    rate = lambda rho: capm_equilibrium_rate(mu1=0.115, sigma1=0.25, sigma2=0.2, rho=rho, r=0.04)
    assert rate(1.0) == pytest.approx(0.10, abs=1e-15)
    assert rate(0.0) == pytest.approx(0.04, abs=1e-15)
    assert rate(0.5) == pytest.approx(0.07, abs=1e-15)


def test_mu2_from_shortfall_examples():
    # a config given by its shortfall gets the equilibrium return less delta
    def market(rho, delta):
        doc = {"project": {"rho": rho, "delta": delta}, "option": {"gamma": 1.0}}
        return parse_config(json.dumps(doc))[0].market

    assert market(1.0, 0.04).mu2 == pytest.approx(0.06, abs=1e-15)
    assert market(0.0, 0.04).mu2 == pytest.approx(0.0, abs=1e-15)
    m = market(0.7, 0.0)
    assert m.mu2 == capm_equilibrium_rate(m.mu1, m.sigma1, m.sigma2, m.rho, m.r)
