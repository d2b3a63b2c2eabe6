"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

import reopt.lattice
from reopt import (
    LatticeCalibration,
    MarketParams,
    capm_equilibrium_rate,
    linear_limit_values,
    perpetual_threshold,
)

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
    through the module global, on two views of the column one step later,
    both in its buffer: rows top-1 .. 2M-2 and, two rows further on, rows
    top+1 .. 2M, which end where the column ends.  So the column is the
    2M+1 entries of that buffer that end where the second view ends, read
    from memory, whatever the lattice assumes of the rows above ``top``.
    An induction that reruns on every row calls the operator N more times;
    the last N calls are the result's columns.  ``widths`` holds the rows
    each call valued, per lattice."""

    def __init__(self, monkeypatch):
        self.columns, self.widths = [], []
        self.rows = None
        for name in ("g_values", "linear_limit_values"):
            inner = getattr(reopt.lattice, name)
            monkeypatch.setattr(reopt.lattice, name, self._recording(inner))

    def _recording(self, inner):
        def recording(x_up, x_dn, *args, **kwargs):
            assert _address(x_dn) == _address(x_up) + 2 * x_up.strides[-1]
            self.columns.append(_column_ending_with(x_dn, self.rows))
            self.widths.append(x_up.shape[-1])
            return inner(x_up, x_dn, *args, **kwargs)

        return recording

    def induce(self, grid, cal, option, **kw):
        """(ValueGrid, values): the induction and its (..., 2M+1, N+1) grid."""
        self.columns.clear()
        self.widths.clear()
        self.rows = grid.n_rows
        vg = reopt.lattice.backward_induce(grid, cal, option, **kw)
        assert len(self.columns) in (grid.n_steps, 2 * grid.n_steps)
        columns = self.columns[len(self.columns) - grid.n_steps :]
        return vg, np.stack([vg.values_t0, *reversed(columns)], -1)


def _column_ending_with(view, rows):
    """A copy of the ``rows`` entries of ``view``'s buffer, along its last
    axis, that end where ``view`` ends."""
    owner = view
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    step = view.strides[-1]
    offset = _address(view) + (view.shape[-1] - rows) * step - _address(owner)
    shape = view.shape[:-1] + (rows,)
    return np.ndarray(shape, view.dtype, owner, offset, view.strides).copy()


def _address(array):
    return array.__array_interface__["data"][0]


def exercise_window_top(grid, cal, option):
    """The first row ``backward_induce`` runs its operator on, by the rule
    its docstring states: the next to last row whose V exceeds both the
    perpetual threshold of the lattice's one-step growth m of V and
    (K_n - K_{n+1}) / (1 - m); 1 when there is no such bound."""
    if min(cal.probabilities) < 0.0:
        return 1
    m = float(linear_limit_values(cal.h, cal.l, cal))
    t = np.arange(grid.n_steps + 1) * grid.dt
    strike = option.cost * np.exp((option.cost_growth - cal.r) * t)
    try:
        bound = perpetual_threshold(
            math.log(cal.h) / math.sqrt(cal.dt), cal.r, -math.log(m) / cal.dt, strike.max()
        )
    except ValueError:
        return 1
    bound = max(bound, np.max(strike[:-1] - strike[1:], initial=0.0) / (1.0 - m))
    return max(1, int((grid.row_values > bound).sum()) - 2)


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
