"""Config parsing, sweeps, presets, CSV persistence."""

import dataclasses
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from reopt import build_grid, calibration, experiments, lattice
from reopt.experiments import (
    ConfigError,
    SweepSpec,
    build_preset,
    config_hash,
    parse_config,
    preset_names,
    run_preset,
    run_single,
    run_sweep,
    write_sweep_csv,
    write_threshold_curve_csv,
    write_value_curve_csv,
    SWEEP_COLUMNS,
)

from conftest import read_sweep_csv


def cfg_text(**sections) -> str:
    doc = {"project": {"rho": 0.5}, "option": {"gamma": 1.0}}
    for key, val in sections.items():
        doc.setdefault(key, {}).update(val)
    return json.dumps(doc)


def test_defaults_mirror_base_parameter_study():
    cfg, sweep = parse_config(cfg_text())
    assert sweep is None
    assert cfg.option.cost == 1.0
    assert cfg.market.r == 0.04
    assert cfg.option.maturity == 10.0
    assert cfg.market.mu1 == 0.115
    assert cfg.market.sigma1 == 0.25
    assert cfg.market.sigma2 == 0.2
    assert cfg.delta == 0.04
    assert cfg.market.mu2 == pytest.approx(0.03, abs=1e-15)
    assert cfg.dt == pytest.approx(1.0 / 900.0)
    assert cfg.option.cost_growth == 0.0


def test_empty_config_lists_required_fields():
    with pytest.raises(ConfigError) as err:
        parse_config("{}")
    assert "project.rho" in str(err.value)
    assert "option.gamma" in str(err.value)


def test_domain_error_names_the_field():
    with pytest.raises(ConfigError, match="project.rho"):
        parse_config(json.dumps({"project": {"rho": 1.5}, "option": {"gamma": 1.0}}))
    with pytest.raises(ConfigError, match="option.gamma"):
        parse_config(json.dumps({"project": {"rho": 0.5}, "option": {"gamma": -2.0}}))
    with pytest.raises(ConfigError, match="grid.dt"):
        parse_config(cfg_text(grid={"dt": 0.0}))
    with pytest.raises(ConfigError, match="sigma2"):
        parse_config(json.dumps({"project": {"rho": 0.5, "sigma2": -0.2}, "option": {"gamma": 1.0}}))


def test_invalid_json_and_unknown_sections():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config(json.dumps({"project": {"rho": 0.5}, "option": {"gamma": 1.0}, "extra": {}}))
    with pytest.raises(ConfigError, match="project must be a JSON object"):
        parse_config(json.dumps({"project": 5, "option": {"gamma": 1.0}}))
    with pytest.raises(ConfigError, match="market must be a JSON object"):
        parse_config(json.dumps({"project": {"rho": 0.5}, "option": {"gamma": 1.0}, "market": []}))
    with pytest.raises(ConfigError, match="unknown field option.maturty"):
        parse_config(cfg_text(option={"maturty": 2.0}))
    # the traded asset enters only through its returns, so has no level
    with pytest.raises(ConfigError, match=r"unknown field market\.s0"):
        parse_config(cfg_text(market={"s0": 1.0}))
    with pytest.raises(ConfigError, match="unknown field sweep.value"):
        parse_config(cfg_text(sweep={"name": "rho", "value": [0.1]}))
    with pytest.raises(ConfigError, match="sweep.range must be a JSON object"):
        parse_config(cfg_text(sweep={"name": "rho", "range": [0.0, 1.0, 3]}))


def test_mu2_and_delta_exclusive_unless_consistent():
    with pytest.raises(ConfigError, match="inconsistent"):
        parse_config(json.dumps({
            "project": {"rho": 0.5, "mu2": 0.05, "delta": 0.04},
            "option": {"gamma": 1.0},
        }))
    cfg, _ = parse_config(json.dumps({
        "project": {"rho": 0.5, "mu2": 0.03, "delta": 0.04},
        "option": {"gamma": 1.0},
    }))
    assert cfg.market.mu2 == 0.03


def test_mu2_given_directly_reports_shortfall():
    cfg, _ = parse_config(json.dumps({
        "project": {"rho": 0.5, "mu2": 0.05},
        "option": {"gamma": 1.0},
    }))
    assert cfg.market.mu2 == 0.05
    assert cfg.delta == pytest.approx(0.07 - 0.05, abs=1e-15)
    assert not cfg.delta_fixed


def test_derived_drift_that_overflows_is_config_error():
    # (mu1 - r) / sigma1 overflows, so the equilibrium return is infinite
    tiny = {"sigma1": 1e-310}
    with pytest.raises(ConfigError, match="mu2=inf and project.delta=0.04 must be finite"):
        parse_config(cfg_text(market=tiny))
    with pytest.raises(ConfigError, match="mu2=0.03 and project.delta=inf must be finite"):
        parse_config(cfg_text(market=tiny, project={"mu2": 0.03}))
    # at rho 0 the return is finite; the swept rho 0.5 is not
    _, sweep = parse_config(cfg_text(
        market=tiny, project={"rho": 0.0}, sweep={"name": "rho", "values": [0.0, 0.5]},
    ))
    with pytest.raises(ConfigError, match="sigma1=1e-310, sigma2=0.2, rho=0.5"):
        run_sweep(sweep)


def test_sweep_parsing_values_and_range():
    _, sweep = parse_config(cfg_text(sweep={"name": "gamma", "values": [0.5, 1.0, 2.0]}))
    assert sweep.name == "gamma"
    assert sweep.values == (0.5, 1.0, 2.0)
    _, sweep = parse_config(cfg_text(sweep={"name": "rho", "range": {"start": -0.9, "stop": 0.9, "count": 7}}))
    assert len(sweep.values) == 7
    assert sweep.values[0] == -0.9 and sweep.values[-1] == 0.9
    with pytest.raises(ConfigError, match="values or range"):
        parse_config(cfg_text(sweep={"name": "rho"}))
    with pytest.raises(ConfigError, match="sweep.name"):
        parse_config(cfg_text(sweep={"name": "cost", "values": [1.0]}))
    with pytest.raises(ConfigError):
        parse_config(cfg_text(sweep={"name": "rho", "values": [2.0]}))


def test_rho_sweep_keeps_shortfall_fixed():
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.0, "delta": 0.04},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.05},
        "sweep": {"name": "rho", "values": [-0.5, 0.0, 0.5]},
    }))
    results = run_sweep(sweep)
    assert [r.swept_value for r in results] == [-0.5, 0.0, 0.5]
    assert all(r.config.delta == 0.04 for r in results)
    assert all(not r.error for r in results)
    # thresholds at opposite correlations differ from the zero-correlation one
    assert results[0].threshold_spot_t0 >= results[1].threshold_spot_t0


def test_sweep_with_directly_specified_drift_lets_shortfall_float():
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.0, "mu2": 0.0},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.05},
        "sweep": {"name": "rho", "values": [0.0, 0.5]},
    }))
    results = run_sweep(sweep)
    assert results[0].config.delta == pytest.approx(0.04, abs=1e-15)
    assert results[1].config.delta == pytest.approx(0.07, abs=1e-15)


def test_per_point_failures_become_error_rows():
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.0, "delta": 0.04},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.01},
        "sweep": {"name": "rho", "values": [0.0, 0.99]},
    }))
    results = run_sweep(sweep)
    assert not results[0].error
    assert "CalibrationInfeasible" in results[1].error
    assert results[1].anomaly_flags.startswith("error:")
    assert math.isnan(results[1].threshold_spot_t0)


def test_maturity_sweep_rebuilds_lattice_per_point():
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.5},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.05},
        "sweep": {"name": "maturity", "values": [1.0, 2.0, 4.0], "outputs": ["threshold_curve"]},
    }))
    results = run_sweep(sweep)
    assert [r.n for r in results] == [20, 40, 80]
    assert [len(r.threshold_curve.n) for r in results] == [21, 41, 81]


def test_delta_sweep_holds_each_shortfall_on_drift_specified_project():
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.5, "mu2": 0.03},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.05},
        "sweep": {"name": "delta", "values": [0.02, 0.04, 0.08]},
    }))
    results = run_sweep(sweep)
    assert all(r.config.delta == r.swept_value for r in results)
    values = [r.option_value_v0 for r in results]
    assert values[0] > values[1] > values[2]


@pytest.fixture
def children(monkeypatch):
    """Run the sweep's children as threads of this process, on 64 usable
    CPUs, and record each one started.  A thread has no sweep process to
    watch, so the watchdog is off; results still cross a real pipe."""
    started = []

    class ThreadChild(threading.Thread):
        exitcode = pid = None

        def __init__(self, target, args):
            *head, conn = args
            # the sweep closes its end of the pipe once the child starts
            self.conn = Connection(os.dup(conn.fileno()), readable=False)
            super().__init__(target=target, args=(*head, self.conn), daemon=True)
            started.append(self)

        def run(self):
            with self.conn:
                super().run()

        def terminate(self):
            pass

    ctx = multiprocessing.get_context()
    fake = SimpleNamespace(Process=ThreadChild, Pipe=ctx.Pipe, Value=ctx.Value)
    monkeypatch.setattr(multiprocessing, "get_context", lambda: fake)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(experiments, "_exit_with_parent", lambda: None)
    return started


def _maturity_sweep(*values: float) -> SweepSpec:
    # each point has its own lattice, so its own job
    _, sweep = parse_config(cfg_text(grid={"dt": 0.05}, sweep={"name": "maturity", "values": list(values)}))
    return sweep


def test_sweep_pool_is_bounded_by_point_count(children):
    # workers - 1 children, at most one process per job
    sweep = _maturity_sweep(1.0, 0.5)
    assert [r.swept_value for r in run_sweep(sweep, workers=64)] == [0.5, 1.0]
    assert len(children) == 1
    run_sweep(_maturity_sweep(0.5, 1.0, 2.0, 3.0), workers=3)
    assert len(children) == 3
    run_sweep(_maturity_sweep(1.0), workers=64)
    run_sweep(sweep, workers=1)
    _, gammas = parse_config(cfg_text(grid={"dt": 0.05}, sweep={"name": "gamma", "values": [1.0, 2.0]}))
    run_sweep(gammas, workers=64)  # one stacked job
    assert len(children) == 3


def test_sweep_starts_no_more_processes_than_usable_cpus(children, monkeypatch):
    sweep = _maturity_sweep(0.5, 1.0, 2.0, 3.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert experiments._usable_cpus() == 2
    run_sweep(sweep, workers=64)
    assert len(children) == 1
    # where the affinity mask cannot be read, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert experiments._usable_cpus() == 3
    run_sweep(sweep, workers=64)
    assert len(children) == 3


def test_preset_runs_on_one_pool(children):
    sequential = run_preset("fig3", workers=1, dt=0.1)
    pooled = run_preset("fig3", workers=2, dt=0.1)
    assert len(children) == 1
    key = lambda r: (r.config, r.swept_value, r.option_value_v0, r.threshold_spot_t0, r.error)
    assert [key(r) for r in pooled] == [key(r) for r in sequential]
    assert [r.swept_value for r in pooled] == [1.0, 2.0, 5.0, 10.0, 20.0, 40.0] * 3


def test_gamma_sweep_threshold_decreasing():
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.5},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.02},
        "sweep": {"name": "gamma", "values": [0.5, 1.0, 5.0]},
    }))
    thr = [r.threshold_spot_t0 for r in run_sweep(sweep)]
    assert thr[0] > thr[1] > thr[2]


def test_workers_do_not_change_results():
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.0, "delta": 0.04},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.05},
        "sweep": {"name": "rho", "values": [-0.5, 0.0, 0.5, 0.9]},
    }))
    seq = run_sweep(sweep, workers=1)
    par = run_sweep(sweep, workers=3)
    for a, b in zip(seq, par):
        assert a.threshold_spot_t0 == b.threshold_spot_t0
        assert a.option_value_v0 == b.option_value_v0
        assert a.swept_value == b.swept_value


def _same_result(a, b) -> bool:
    """Equal in every field but ``wall_ms``, curves compared element-wise."""
    fa, fb = dict(vars(a)), dict(vars(b))
    for name in ("threshold_curve", "value_points"):
        x, y = fa.pop(name), fb.pop(name)
        if (x is None) != (y is None):
            return False
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x is not None:
            for field in dataclasses.fields(x):
                u, v = getattr(x, field.name), getattr(y, field.name)
                if not np.array_equal(u, v, equal_nan=u.dtype.kind == "f"):
                    return False
    fa.pop("wall_ms"), fb.pop("wall_ms")
    nan_or_equal = lambda x, y: x == y or (x != x and y != y)
    return fa.keys() == fb.keys() and all(nan_or_equal(fa[k], fb[k]) for k in fa)


def _separate_runs(*specs):
    """Each point of the specs on its own, without sharing an induction."""
    return [
        run_single(experiments._point_config(s, v), s.outputs, s.name, v)
        for s in specs for v in s.values
    ]


@pytest.fixture
def inductions(monkeypatch):
    """Count the inductions that ``solve`` and ``solve_gammas`` run."""
    calls = []
    inner = lattice.backward_induce

    def counting(*args, **kwargs):
        gammas = kwargs.get("gammas")
        calls.append(None if gammas is None else tuple(gammas))
        return inner(*args, **kwargs)

    monkeypatch.setattr(lattice, "backward_induce", counting)
    return calls


def test_gamma_points_share_one_induction(inductions):
    _, sweep = parse_config(cfg_text(
        grid={"dt": 0.05},
        sweep={"name": "gamma", "values": [0.01, 0.1, 1.0, 10.0, 100.0],
               "outputs": ["threshold_curve", "value_curve"]},
    ))
    stacked = run_sweep(sweep)
    assert inductions == [(0.01, 0.1, 1.0, 10.0, 100.0)]
    separate = _separate_runs(sweep)
    assert len(inductions) == 6
    assert [r.swept_value for r in stacked] == list(sweep.values)
    assert all(_same_result(a, b) for a, b in zip(stacked, separate))
    assert len({r.option_value_v0 for r in stacked}) == 5


def test_one_induction_per_base_config(inductions):
    expected = {
        # the 3 infeasible points (rho -0.99, 0.99) never reach the induction
        "fig1-left": [None] * 18,
        # 7 gammas at each of 3 correlations
        "fig1-right": [(0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)] * 3,
        "fig2-left": [None] * 5,
        "fig2-right": [None] * 4,
        "fig3": [None] * 18,  # gamma varies with rho, so no point shares
        "fig4": [None],  # rho 0.99 is infeasible
    }
    assert tuple(expected) == preset_names()
    for name, stacks in expected.items():
        inductions.clear()
        run_preset(name, dt=0.1)
        assert inductions == stacks, name


def test_gamma_stack_is_the_same_on_any_worker_count():
    # acceptance criterion 11 on the stacked preset, and equal to the
    # points run one by one
    specs = build_preset("fig1-right", dt=0.1)
    one = run_sweep(*specs, workers=1)
    two = run_sweep(*specs, workers=2)
    separate = _separate_runs(*specs)
    assert all(_same_result(a, b) for a, b in zip(one, two))
    assert all(_same_result(a, b) for a, b in zip(one, separate))
    assert [r.swept_value for r in two] == [r.swept_value for r in separate]


def test_gamma_stack_shares_its_wall_time():
    _, sweep = parse_config(cfg_text(
        grid={"dt": 0.02}, sweep={"name": "gamma", "values": [0.5, 1.0, 2.0, 5.0]},
    ))
    start = time.perf_counter()
    results = run_sweep(sweep)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    walls = [r.wall_ms for r in results]
    # the first point ran the shared induction, but each is charged a quarter
    assert all(w == walls[0] for w in walls)
    assert all(w > 0.0 for w in walls)
    assert sum(walls) <= elapsed_ms


def test_gamma_stack_errors_match_separate_runs(monkeypatch):
    # an infeasible calibration fails every point, as it does one by one
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.99},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.01},
        "sweep": {"name": "gamma", "values": [1.0, 2.0]},
    }))
    results = run_sweep(sweep)
    assert all("CalibrationInfeasible" in r.error for r in results)
    assert all(_same_result(a, b) for a, b in zip(results, _separate_runs(sweep)))

    # a stacked solve that fails leaves each point to solve on its own
    def failing(*args, **kwargs):
        raise ValueError("certainty equivalent undefined at one gamma")

    monkeypatch.setattr(experiments, "solve_gammas", failing)
    _, sweep = parse_config(cfg_text(grid={"dt": 0.05}, sweep={"name": "gamma", "values": [1.0, 2.0]}))
    results = run_sweep(sweep)
    assert not any(r.error for r in results)
    assert all(_same_result(a, b) for a, b in zip(results, _separate_runs(sweep)))


def test_gamma_stack_that_fails_at_some_gammas_matches_separate_runs():
    # a signed weight (p2 < 0, within p_tol) leaves g undefined at gamma
    # 100 and 1000 only, so the stacked solve raises and each point solves
    # on its own
    _, sweep = parse_config(json.dumps({
        "market": {"sigma1": 0.8},
        "project": {"rho": 0.99},
        "option": {"gamma": 100.0, "maturity": 2.0},
        "grid": {"dt": 0.02, "p_tol": 1e-3},
        "sweep": {"name": "gamma", "values": [0.1, 1.0, 10.0, 100.0, 1000.0]},
    }))
    cfg = experiments._point_config(sweep, sweep.values[0])
    grid = build_grid(cfg.market, cfg.option, cfg.dt)
    with pytest.raises(ValueError, match="certainty equivalent undefined"):
        lattice.solve_gammas(cfg.market, cfg.option, grid, sweep.values, cfg.p_tol)
    alone = _separate_runs(sweep)
    assert [r.anomaly_flags for r in alone] == ["", "", "", "error:ValueError", "error:ValueError"]
    for workers in (1, 2):
        results = run_sweep(sweep, workers=workers)
        assert len(results) == len(alone)
        assert all(_same_result(a, b) for a, b in zip(results, alone))


def test_gamma_stack_with_a_gamma_too_small_for_g_matches_separate_runs():
    # gamma 1e-10 is below g's floor, so the stacked solve raises and each
    # point solves on its own: an error row, and the other gamma's result
    _, sweep = parse_config(cfg_text(
        grid={"dt": 0.05}, sweep={"name": "gamma", "values": [1e-10, 1.0]},
    ))
    alone = _separate_runs(sweep)
    assert [r.anomaly_flags for r in alone] == ["error:ValueError", ""]
    assert "is below 1e-07" in alone[0].error
    for workers in (1, 2):
        results = run_sweep(sweep, workers=workers)
        assert all(_same_result(a, b) for a, b in zip(results, alone))


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="children inherit the counting induction only when forked",
)
def test_fig1_right_stays_three_stacked_inductions_on_a_pool(tmp_path, monkeypatch):
    # a stacked solve that raises falls back to one induction per gamma
    # with the same numbers, so only the count of inductions shows it: 3
    # stacks of 7 gammas, not 21 (or 24) inductions.  The sweep process
    # and its child log them to a file; test_one_induction_per_base_config
    # counts them on one worker.
    log = tmp_path / "inductions"
    inner = lattice.backward_induce

    def counting(*args, gammas=None, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{len(gammas or ())}\n")
        return inner(*args, gammas=gammas, **kwargs)

    monkeypatch.setattr(lattice, "backward_induce", counting)
    results = run_preset("fig1-right", workers=2, dt=0.05)
    assert not any(r.error for r in results)
    assert log.read_text().split() == ["7"] * 3


_START_METHODS = [
    m for m in ("fork", "forkserver", "spawn") if m in multiprocessing.get_all_start_methods()
]


@pytest.mark.parametrize("method", _START_METHODS)
def test_sweep_pool_runs_under_every_start_method(monkeypatch, method):
    # the child's watchdog must not take the fork server for a lost parent
    ctx = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context", lambda: ctx)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    sweep = _maturity_sweep(0.5, 1.0)
    par = run_sweep(sweep, workers=2)
    seq = run_sweep(sweep, workers=1)
    assert not any(r.error for r in par)
    assert [r.option_value_v0 for r in par] == [r.option_value_v0 for r in seq]
    assert multiprocessing.active_children() == []


@pytest.fixture
def forked(monkeypatch):
    """Fork the sweep's children, on two usable CPUs.  Returns a function
    that makes run_single call one hook first in the sweep process and
    another in a child."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("children inherit the patched run_single only when forked")
    ctx = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda: ctx)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    sweep_pid, inner = os.getpid(), experiments.run_single

    def patch(in_sweep, in_child):
        def run_single(*args, **kwargs):
            (in_sweep if os.getpid() == sweep_pid else in_child)()
            return inner(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_single", run_single)

    return patch


def _wait_for(path: Path) -> None:
    """Wait until a child has made ``path``, so that it holds a job."""
    deadline = time.monotonic() + 30.0
    while not path.exists():
        assert time.monotonic() < deadline, f"no child made {path.name}"
        time.sleep(0.01)


def test_an_error_in_the_sweep_process_ends_every_child(forked):
    def boom():
        raise RuntimeError("boom in the sweep process")

    forked(boom, lambda: time.sleep(60.0))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom in the sweep process"):
        run_sweep(_maturity_sweep(0.5, 1.0, 2.0, 3.0), workers=2)
    assert time.monotonic() - start < 10.0  # the sleeping child was terminated
    assert multiprocessing.active_children() == []


def test_an_error_in_a_child_reaches_the_caller(forked, tmp_path):
    marker = tmp_path / "raised"

    def boom():
        marker.touch()
        raise RuntimeError("boom in a child")

    forked(lambda: _wait_for(marker), boom)
    with pytest.raises(RuntimeError, match="boom in a child") as info:
        run_sweep(_maturity_sweep(0.5, 1.0, 2.0, 3.0), workers=2)
    assert "in sweep worker" in str(info.value.__cause__)
    assert ", in boom\n" in str(info.value.__cause__)  # the child's traceback
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_without_reporting_is_an_error(forked, tmp_path):
    marker = tmp_path / "exiting"

    def die():
        marker.touch()
        os._exit(1)

    forked(lambda: _wait_for(marker), die)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"sweep worker \S+ \(pid \d+\) exited with code 1"):
        run_sweep(_maturity_sweep(0.5, 1.0, 2.0, 3.0), workers=2)
    assert time.monotonic() - start < 10.0
    assert multiprocessing.active_children() == []


def test_a_child_sends_more_than_a_pipe_buffer_of_results(forked, tmp_path):
    # a T = 40 curve at dt 0.02 is 2001 columns, about 100 KB pickled: the
    # sweep must read a child's message before it joins the child
    marker = tmp_path / "started"
    forked(lambda: _wait_for(marker), marker.touch)
    _, sweep = parse_config(cfg_text(
        grid={"dt": 0.02},
        sweep={"name": "maturity", "values": [39.0, 40.0], "outputs": ["threshold_curve"]},
    ))
    pooled = run_sweep(sweep, workers=2)
    assert all(_same_result(a, b) for a, b in zip(pooled, run_sweep(sweep, workers=1)))


def _stat(pid) -> list[str]:
    """Fields of /proc/<pid>/stat after the command name (state first), or
    [] once the process is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def _alive(pid) -> bool:
    return _stat(pid)[:1] not in ([], ["Z"])


def _descendants(pid: int) -> list[int]:
    """Pids of the live processes below ``pid``, at any depth."""
    parent = {}
    for path in Path("/proc").iterdir():
        if path.name.isdigit() and _alive(path.name):
            parent[int(path.name)] = int((_stat(path.name)[1:2] or ["0"])[0])
    found, todo = [], [pid]
    while todo:
        top = todo.pop()
        below = [child for child, up in parent.items() if up == top]
        found += below
        todo += below
    return found


def _sweep_children(pid: int) -> list[int]:
    """The live sweep children below ``pid``: the descendants with no child
    of their own, less multiprocessing's resource tracker (a fork server
    has the children below it)."""
    tree = _descendants(pid)

    def is_child(p):
        try:
            cmdline = Path(f"/proc/{p}/cmdline").read_bytes()
        except OSError:
            return False
        return b"resource_tracker" not in cmdline and not _descendants(p)

    return [p for p in tree if is_child(p)]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.skipif(experiments._usable_cpus() < 2, reason="a sweep starts no child on one CPU")
@pytest.mark.parametrize("method", _START_METHODS)
def test_killed_sweep_leaves_no_worker(tmp_path, method):
    # four T = 40 points at the paper's step, each its own lattice: seconds
    # of work per process, so the sweep is still running when it is killed;
    # on 2 workers the sweep process forks one child
    doc = {
        "project": {"rho": 0.5},
        "option": {"gamma": 1.0, "maturity": 40.0},
        "sweep": {"name": "rho", "values": [0.2, 0.4, 0.6, 0.8]},
    }
    config, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    config.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["sweep", "--config", str(config), "--workers", "2", "--out", str(out)]
    cli = (
        "import multiprocessing, sys; multiprocessing.set_start_method(sys.argv[1]); "
        "from reopt.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", cli, method, *argv], env=dict(os.environ, PYTHONPATH=path)
    )
    children, started = [], []
    try:
        deadline = time.monotonic() + 60.0
        while not children and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            children = _sweep_children(proc.pid)
        started = _descendants(proc.pid)
        assert len(children) == 1 and proc.poll() is None
        deadline = time.monotonic() + 3.0
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, children))
        assert not out.exists()
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in filter(_alive, started + children):
            os.kill(pid, signal.SIGKILL)


def test_run_single_calibrates_once(monkeypatch):
    original = calibration.calibrate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reopt" and getattr(module, "calibrate", None) is original:
            monkeypatch.setattr(module, "calibrate", counting)
    cfg, _ = parse_config(cfg_text(grid={"dt": 0.05}))
    assert not run_single(cfg).error
    assert len(calls) == 1


def test_config_hash_depends_on_parameters():
    cfg_a, _ = parse_config(cfg_text())
    cfg_b, _ = parse_config(cfg_text(option={"gamma": 2.0}))
    assert config_hash(cfg_a) == config_hash(cfg_a)
    assert config_hash(cfg_a) != config_hash(cfg_b)
    # the same resolved numbers, but one holds delta and the other mu2, so
    # their sweeps run different points
    project = {"rho": 0.5, "mu2": 0.06}
    sweep = {"name": "rho", "values": [0.0, 0.9]}
    held_mu2 = parse_config(cfg_text(project=project, grid={"dt": 0.05}, sweep=sweep))
    project["delta"] = 0.010000000000000009
    held_delta = parse_config(cfg_text(project=project, grid={"dt": 0.05}, sweep=sweep))
    assert held_mu2[0].as_dict() == held_delta[0].as_dict()
    assert config_hash(*held_mu2) != config_hash(*held_delta)

    def sweep_hash(values, **outputs):
        sweep = {"name": "gamma", "values": values, **outputs}
        doc = cfg_text(option={"maturity": 1.0}, grid={"dt": 0.1}, sweep=sweep)
        return config_hash(*parse_config(doc))

    # spellings of one run share its hash: the order of the values, the
    # order and repeats of the outputs, and listing the always-reported
    # time-0 threshold or not
    assert sweep_hash([1.0, 2.0]) == sweep_hash([2.0, 1.0])
    assert sweep_hash([1.0, 2.0]) == sweep_hash([1.0, 2.0], outputs=["threshold_at_t0"])
    assert sweep_hash([1.0, 2.0]) == sweep_hash([1.0, 2.0], outputs=[])
    assert sweep_hash([1.0, 2.0], outputs=["value_curve", "value_curve", "threshold_curve"]) == (
        sweep_hash([1.0, 2.0], outputs=["threshold_curve", "value_curve"])
    )
    # runs of different points, or with different curves, do not
    assert sweep_hash([1.0, 2.0]) != sweep_hash([1.0, 3.0])
    assert sweep_hash([1.0, 2.0]) != sweep_hash([1.0, 2.0], outputs=["value_curve"])


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def test_empty_sweep_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_sweep_csv([], path, "deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_sha256=deadbeef"
    assert lines[1].split(",") == SWEEP_COLUMNS
    assert len(lines) == 2


def test_single_row_sweep_roundtrip(tmp_path):
    _, sweep = parse_config(cfg_text(grid={"dt": 0.05}, sweep={"name": "gamma", "values": [1.0]}))
    results = run_sweep(sweep)
    path = tmp_path / "one.csv"
    write_sweep_csv(results, path, config_hash(sweep.base, sweep))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    root, rows = read_sweep_csv(path)
    assert root == config_hash(sweep.base, sweep)
    row = rows[0]
    # full-precision round trip, bit exact
    assert float(row["threshold_spot_t0"]) == results[0].threshold_spot_t0
    assert float(row["option_value_v0"]) == results[0].option_value_v0
    assert float(row["dt"]) == build_grid(sweep.base.market, sweep.base.option, 0.05).dt
    assert float(row["wall_ms"]) == results[0].wall_ms
    assert int(row["M"]) == results[0].m
    assert int(row["N"]) == results[0].n
    assert row["swept_name"] == "gamma"


def test_error_rows_serialize_with_empty_values(tmp_path):
    _, sweep = parse_config(json.dumps({
        "project": {"rho": 0.0, "delta": 0.04},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.01},
        "sweep": {"name": "rho", "values": [0.99]},
    }))
    results = run_sweep(sweep)
    path = tmp_path / "err.csv"
    write_sweep_csv(results, path, "00")
    _, rows = read_sweep_csv(path)
    assert rows[0]["threshold_spot_t0"] == ""
    assert rows[0]["anomaly_flags"].startswith("error:CalibrationInfeasible")


def test_curve_csv_writers(tmp_path):
    cfg, _ = parse_config(cfg_text(grid={"dt": 0.1}, option={"maturity": 1.0}))
    res = run_single(cfg, outputs=("threshold_curve", "value_curve"))
    tpath = tmp_path / "curve.csv"
    write_threshold_curve_csv(res.threshold_curve, tpath, "00")
    lines = tpath.read_text().splitlines()
    assert lines[1] == "n,t,time_to_maturity,threshold_discounted,threshold_spot,resolution_halfwidth"
    assert len(lines) == 2 + res.n + 1
    vpath = tmp_path / "value.csv"
    write_value_curve_csv(res.value_points, vpath, "00")
    lines = vpath.read_text().splitlines()
    assert lines[1] == "V_spot,option_value,exercise_value"
    first = [float(x) for x in lines[2].split(",")]
    assert first[2] == pytest.approx(max(first[0] - 1.0, 0.0))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_all_presets_build():
    for name in preset_names():
        specs = build_preset(name, dt=0.05)
        assert specs
        for spec in specs:
            assert isinstance(spec, SweepSpec)
    with pytest.raises(ConfigError):
        build_preset("fig9")


def test_fig4_preset_carries_value_curves():
    # the rho = 0.99 point needs a step finer than about 1/317
    results = run_preset("fig4", dt=0.003)
    assert [r.swept_value for r in results] == [0.0, 0.99]
    for res in results:
        assert not res.error
        assert res.config.option.gamma == 10.0
        assert res.value_points is not None
        assert res.value_points.shape[1] == 3


def test_fig1_left_minimum_near_zero_correlation_and_above_npv():
    results = run_preset("fig1-left", dt=0.02)
    ok = [r for r in results if not r.error]
    assert len(ok) >= 15
    thresholds = {r.swept_value: r.threshold_spot_t0 for r in ok}
    best = min(thresholds.values())
    near_zero = min(v for k, v in thresholds.items() if abs(k) <= 0.15)
    assert near_zero == best
    assert best > 1.0
