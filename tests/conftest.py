"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

import reopt.lattice
from reopt import LatticeCalibration, MarketParams, capm_equilibrium_rate

# Base parameter set used throughout the parameter studies.
BASE = dict(mu1=0.115, sigma1=0.25, r=0.04, v0=1.0)
BASE_SIGMA2 = 0.2
BASE_DELTA = 0.04


def base_market(rho: float, delta: float = BASE_DELTA, sigma2: float = BASE_SIGMA2) -> MarketParams:
    """Base market with the project drift derived from the shortfall rate."""
    mu2 = capm_equilibrium_rate(BASE["mu1"], BASE["sigma1"], sigma2, rho, BASE["r"]) - delta
    return MarketParams(mu2=mu2, sigma2=sigma2, rho=rho, **BASE)


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


class GridRecorder:
    """Full value grids of ``backward_induce``, which keeps only the time-0
    column.  The lattice calls its continuation operator once per column,
    through the module global, on two views of the column one step later:
    its rows 0 .. 2M-2 and, two rows further on in the same buffer, its
    rows 2 .. 2M.  So the first view, widened by two rows, is that whole
    column; the two views side by side would miss the middle row at M = 1."""

    def __init__(self, monkeypatch):
        self.columns = []
        for name in ("g_values", "linear_limit_values"):
            inner = getattr(reopt.lattice, name)
            monkeypatch.setattr(reopt.lattice, name, self._recording(inner))

    def _recording(self, inner):
        def recording(x_up, x_dn, *args, **kwargs):
            assert _address(x_dn) == _address(x_up) + 2 * x_up.strides[-1]
            shape = x_up.shape[:-1] + (x_up.shape[-1] + 2,)
            self.columns.append(as_strided(x_up, shape, writeable=False).copy())
            return inner(x_up, x_dn, *args, **kwargs)

        return recording

    def induce(self, grid, cal, option, **kw):
        """(ValueGrid, values): the induction and its (..., 2M+1, N+1) grid."""
        self.columns.clear()
        vg = reopt.lattice.backward_induce(grid, cal, option, **kw)
        assert len(self.columns) == grid.n_steps
        return vg, np.stack([vg.values_t0, *reversed(self.columns)], -1)


def _address(array):
    return array.__array_interface__["data"][0]


@pytest.fixture
def grid_recorder(monkeypatch):
    return GridRecorder(monkeypatch)


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
