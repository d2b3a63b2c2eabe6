"""Shared fixtures and helpers for the test suite."""

import math
from dataclasses import replace

from reopt import LatticeCalibration, MarketParams, mu2_from_shortfall

# Base parameter set used throughout the parameter studies.
BASE = dict(mu1=0.115, sigma1=0.25, r=0.04, v0=1.0)
BASE_SIGMA2 = 0.2
BASE_DELTA = 0.04


def base_market(rho: float, delta: float = BASE_DELTA, sigma2: float = BASE_SIGMA2) -> MarketParams:
    """Base market with the project drift derived from the shortfall rate."""
    shell = MarketParams(mu2=0.0, sigma2=sigma2, rho=rho, **BASE)
    return replace(shell, mu2=mu2_from_shortfall(shell, delta))


def degenerate_complete_calibration(
    sigma1: float = 0.25,
    sigma2: float = 0.2,
    dt: float = 0.01,
    p1: float = 0.55,
    r: float = 0.04,
) -> LatticeCalibration:
    """Perfectly correlated lattice with the cross states removed (p2 = p3 = 0)."""
    return LatticeCalibration(
        u=math.exp(sigma1 * math.sqrt(dt)),
        h=math.exp(sigma2 * math.sqrt(dt)),
        p1=p1, p2=0.0, p3=0.0, p4=1.0 - p1,
        dt=dt, r=r,
    )


# ---------------------------------------------------------------------------
# acceptance-criterion reporting
# ---------------------------------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES.append(f"acceptance criterion {number:2d}: {status}  {detail}")


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
