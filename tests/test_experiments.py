"""Config parsing, sweeps, presets, CSV persistence."""

import json
import math
import sys

import pytest

from reopt import build_grid, calibration, experiments
from reopt.experiments import (
    ConfigError,
    SweepSpec,
    build_preset,
    config_hash,
    parse_config,
    preset_names,
    read_sweep_csv,
    run_preset,
    run_single,
    run_sweep,
    write_sweep_csv,
    write_threshold_curve_csv,
    write_value_curve_csv,
    SWEEP_COLUMNS,
)


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
def pools(monkeypatch):
    """Replace the sweep's process pool with an in-process one and record
    the worker count of every pool started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return started


def test_sweep_pool_is_bounded_by_point_count(pools):
    _, sweep = parse_config(cfg_text(grid={"dt": 0.05}, sweep={"name": "gamma", "values": [1.0, 0.5]}))
    assert [r.swept_value for r in run_sweep(sweep, workers=64)] == [0.5, 1.0]
    assert pools == [2]
    run_sweep(SweepSpec("gamma", (1.0,), sweep.base), workers=64)
    assert pools == [2]


def test_preset_runs_on_one_pool(pools):
    sequential = run_preset("fig3", workers=1, dt=0.1)
    pooled = run_preset("fig3", workers=2, dt=0.1)
    assert pools == [2]
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
    res = run_single(cfg, outputs=("threshold_at_t0", "threshold_curve", "value_curve"))
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
