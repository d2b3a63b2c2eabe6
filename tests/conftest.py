"""Shared fixtures and helpers for the test suite."""

import csv
import dataclasses
import math

import numpy as np
import pytest

import reopt.lattice
from reopt import (
    GridStack,
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


def gamma_stack(grid, cal, option, gammas):
    """``backward_induce``'s arguments for ``option`` at each of ``gammas``,
    stacked on one grid and one calibration."""
    options = [dataclasses.replace(option, gamma=gamma) for gamma in gammas]
    return GridStack((grid,) * len(options)), (cal,) * len(options), options


class GridRecorder:
    """Full value grids of ``backward_induce``, which keeps only the time-0
    column.  The lattice calls its continuation operator once per column,
    through the module global, on two views of the column one step later,
    both in its buffer and two rows apart, which span the whole flat
    column of the lattices that have joined: each lattice's rows top-1 ..
    2M, back to back, longest N first.  ``columns`` holds a copy of the
    memory each call's views span.  The recorder also logs each flat pass
    (``_flat_pass``), its lattices and their window tops, so it can cut
    each call's copy into the lattices' segments; ``induce`` puts V - K_n
    above each segment, from the lattice's own ladder: those rows exercise
    in every column, and the lattice never reads them.  A block of columns
    that g valued without its monotone test (``monotone=True``) and that
    read a decreasing column runs again with the test
    (``monotone=False``), so a ``True`` pass followed by a ``False`` one
    is dropped.  A lattice induced again on every row takes its columns
    from its last pass.  ``widths`` holds the rows each call left valued,
    per lattice that has joined (an int for one lattice), and ``redone``
    the number of blocks valued again."""

    def __init__(self, monkeypatch):
        self._reset()
        for name in ("g_values", "linear_limit_values"):
            inner = getattr(reopt.lattice, name)
            monkeypatch.setattr(reopt.lattice, name, self._recording(inner))
        inner_pass = reopt.lattice._flat_pass

        def logging_pass(lattices):
            members = [(lat.index, lat.n, lat.rows, lat.top) for lat in lattices]
            self.passes.append((members, len(self.columns)))
            return inner_pass(lattices)

        monkeypatch.setattr(reopt.lattice, "_flat_pass", logging_pass)

    def _reset(self):
        self.columns, self.untested, self.passes, self.widths, self.redone = [], [], [], [], 0

    def _recording(self, inner):
        def recording(x_up, x_dn, *args, **kwargs):
            assert x_up.ndim == 1 and _address(x_dn) == _address(x_up) + 2 * x_up.strides[-1]
            span = np.lib.stride_tricks.as_strided(x_up, (x_up.shape[-1] + 2,))
            self.columns.append(span.copy())
            self.untested.append(kwargs.get("monotone") is True)
            return inner(x_up, x_dn, *args, **kwargs)

        return recording

    def _last_calls(self, members, first, end):
        """The calls of each block's last pass in one flat pass, in call
        order: its blocks of columns end at multiples of ``_BLOCK`` and at
        each lattice's N, where it joins."""
        block, joins = reopt.lattice._BLOCK, {n for _, n, _, _ in members}
        sizes, hi = [], members[0][1]
        while hi:
            lo = max([(hi - 1) // block * block] + [n for n in joins if n < hi])
            sizes.append(hi - lo)
            hi = lo
        kept, i = [], first
        for size in sizes:
            if self.untested[i] and i + size < end and not self.untested[i + size]:
                i += size
                self.redone += 1
            kept += range(i, i + size)
            i += size
        assert i == end
        return kept

    def induce(self, grid, cal, option):
        """(ValueGrid, values): the induction and its (2M+1, N+1) grid; for
        a GridStack, a list of each, one per lattice over its own rows."""
        self._reset()
        vg = reopt.lattice.backward_induce(grid, cal, option)
        stacked = isinstance(grid, GridStack)
        lattices = list(zip(grid.grids, cal, option, vg)) if stacked else [(grid, cal, option, vg)]
        # each lattice's (top, [segment of column N, ..., segment of column 1])
        segments = {}
        ends = [start for _, start in self.passes[1:]] + [len(self.columns)]
        for (members, first), end in zip(self.passes, ends):
            n_max = members[0][1]
            calls = self._last_calls(members, first, end)
            assert len(calls) == n_max
            for k, _, _, top in members:
                segments[k] = (top, [])
            for n, call in zip(range(n_max - 1, -1, -1), calls):
                # the call valued column n from column n + 1
                span, offset, widths = self.columns[call], 0, []
                for k, n_k, rows, top in members:
                    if n_k <= n:
                        break
                    segments[k][1].append(span[offset : offset + rows - top + 1])
                    offset += rows - top + 1
                    widths.append(rows - top - 1)
                assert offset == span.shape[-1]
                self.widths.append(widths[0] if len(members) == 1 else tuple(widths))
        grids = []
        for k, (own, c, o, own_vg) in enumerate(lattices):
            t = np.arange(own.n_steps + 1) * own.dt
            strike = o.cost * np.exp((o.cost_growth - c.r) * t)
            top, spans = segments[k]
            assert len(spans) == own.n_steps
            columns = [own_vg.values_t0]
            for n, span in enumerate(spans[::-1], 1):
                columns.append(np.concatenate((own.row_values[: top - 1] - strike[n], span)))
            grids.append(np.stack(columns, -1))
        return (vg, grids) if stacked else (vg, grids[0])


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


def read_sweep_csv(path):
    """(config hash, rows as string dicts) of a sweep CSV, whose first
    line is the hash comment."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        assert first.startswith("# config_sha256="), first
        return first.split("=", 1)[1], list(csv.DictReader(fh))


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
