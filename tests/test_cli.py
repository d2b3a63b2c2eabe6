"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

from reopt.cli import main
from reopt.experiments import read_sweep_csv


@pytest.fixture
def config_file(tmp_path):
    def make(doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return make


BASE_DOC = {
    "project": {"rho": 0.5},
    "option": {"gamma": 1.0},
    "grid": {"dt": 0.05},
}


def test_price_prints_value_and_threshold(config_file, capsys):
    assert main(["price", "--config", config_file(BASE_DOC)]) == 0
    out = capsys.readouterr().out
    assert "option_value_v0" in out
    assert "threshold_spot_t0" in out


def test_price_dt_override(config_file, capsys):
    code = main(["price", "--config", config_file(BASE_DOC), "--dt", "0.1"])
    assert code == 0
    assert "N=100" in capsys.readouterr().out


def test_validate_reports_moments(config_file, capsys):
    assert main(["validate", "--config", config_file(BASE_DOC)]) == 0
    out = capsys.readouterr().out
    assert "E[S1/S0]" in out
    assert "Cov" in out


def test_threshold_writes_curve(config_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["threshold", "--config", config_file(BASE_DOC), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].startswith("n,t,")
    assert len(lines) == 2 + 200 + 1


def test_sweep_from_config(config_file, tmp_path):
    doc = dict(BASE_DOC, sweep={"name": "gamma", "values": [0.5, 1.0]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config_file(doc), "--out", str(out)]) == 0
    _, rows = read_sweep_csv(out)
    assert len(rows) == 2
    assert [r["swept_value"] for r in rows] == ["0.5", "1"]


def test_sweep_preset(tmp_path):
    out = tmp_path / "fig2r.csv"
    code = main(["sweep", "--preset", "fig2-right", "--dt", "0.05", "--out", str(out)])
    assert code == 0
    _, rows = read_sweep_csv(out)
    assert [float(r["swept_value"]) for r in rows] == [0.02, 0.04, 0.06, 0.08]
    thresholds = [float(r["threshold_spot_t0"]) for r in rows]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


def test_sweep_preset_fig4_emits_value_curves(tmp_path):
    # rho = 0.99 needs a step finer than about 1/317 to stay feasible
    out = tmp_path / "fig4.csv"
    code = main(["sweep", "--preset", "fig4", "--dt", "0.003", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "fig4_value_rho=0.csv").exists()
    assert (tmp_path / "fig4_value_rho=0.99.csv").exists()


def test_sweep_requires_preset_or_sweep_section(config_file):
    assert main(["sweep", "--config", config_file(BASE_DOC)]) == 2


def test_missing_required_fields_is_config_error(config_file, capsys):
    code = main(["price", "--config", config_file({"project": {}})])
    assert code == 2
    assert "project.rho" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, config_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["price", "--config", str(path)]) == 2
    doc = {"project": 5, "option": {"gamma": 1.0}}
    assert main(["price", "--config", config_file(doc)]) == 2
    assert "project must be a JSON object" in capsys.readouterr().err
    doc = dict(BASE_DOC, option={"gamma": 1.0, "maturty": 2.0})
    assert main(["price", "--config", config_file(doc)]) == 2
    assert "option.maturty" in capsys.readouterr().err
    # the traded asset enters only through its returns, so has no level
    doc = dict(BASE_DOC, market={"s0": 7.5})
    assert main(["price", "--config", config_file(doc)]) == 2
    assert "market.s0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["price", "threshold", "validate"])
@pytest.mark.parametrize("dt", ["nan", "inf", "0", "-1"])
def test_bad_dt_override_is_config_error(config_file, capsys, command, dt):
    assert main([command, "--config", config_file(BASE_DOC), "--dt", dt]) == 2
    assert "grid.dt" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, field", [
    ({"name": "gamma", "values": 5}, "sweep.values"),
    ({"name": "gamma", "values": []}, "sweep.values"),
    ({"name": "gamma", "values": [1.0], "outputs": 5}, "sweep.outputs"),
    ({"name": "gamma", "values": [1.0], "outputs": "value_curve"}, "sweep.outputs"),
    ({"name": "gamma", "values": [1.0], "range": {"start": 1.0, "stop": 2.0, "count": 2}}, "sweep.range"),
    ({"name": "gamma", "range": {"stop": 2.0, "count": 2}}, "missing required fields: sweep.range.start"),
    ({"name": "gamma", "range": {"start": 1.0, "count": 2}}, "missing required fields: sweep.range.stop"),
    ({"name": "gamma", "range": {"start": 1.0, "stop": 2.0}}, "missing required fields: sweep.range.count"),
    ({"name": "gamma", "range": {"start": 1.0, "stop": 2.0, "count": 0}}, "sweep.range.count"),
    ({"values": [1.0]}, "missing required fields: sweep.name"),
    ({"name": "gamma", "values": [1.0, 1.0, 2.0]}, "sweep.values"),
    ({"name": "gamma", "range": {"start": 1.0, "stop": 1.0, "count": 2}}, "sweep.values"),
])
def test_malformed_sweep_section_is_config_error(config_file, tmp_path, capsys, sweep, field):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", config_file(dict(BASE_DOC, sweep=sweep)), "--out", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_is_config_error(config_file, capsys, workers):
    doc = dict(BASE_DOC, sweep={"name": "gamma", "values": [1.0]})
    assert main(["sweep", "--config", config_file(doc), "--workers", workers]) == 2
    assert "workers" in capsys.readouterr().err
    assert main(["sweep", "--preset", "fig4", "--dt", "0.05", "--workers", workers]) == 2
    assert "workers" in capsys.readouterr().err


def test_domain_violation_is_config_error(config_file, capsys):
    doc = {"project": {"rho": 1.5}, "option": {"gamma": 1.0}}
    assert main(["price", "--config", config_file(doc)]) == 2
    assert "rho" in capsys.readouterr().err


def test_infeasible_calibration_exit_code(config_file, capsys):
    doc = {"project": {"rho": 0.99}, "option": {"gamma": 1.0}, "grid": {"dt": 0.01}}
    assert main(["price", "--config", config_file(doc)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_missing_config_file_is_io_error(capsys):
    assert main(["price", "--config", "/nonexistent/cfg.json"]) == 4
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_output_is_io_error(config_file, capsys):
    code = main([
        "threshold",
        "--config", config_file(BASE_DOC),
        "--out", "/nonexistent-dir/curve.csv",
    ])
    assert code == 4
    assert "cannot write" in capsys.readouterr().err


def test_unknown_preset_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig7"])
    assert exc.value.code == 2


def test_sweep_side_files_are_unique_per_point(config_file, tmp_path):
    # the two values agree to six significant digits
    doc = {
        "project": {"rho": 0.5},
        "option": {"gamma": 1.0, "maturity": 1.0},
        "grid": {"dt": 0.1},
        "sweep": {"name": "gamma", "values": [1.0000001, 1.0000002], "outputs": ["threshold_curve"]},
    }
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", config_file(doc), "--out", str(out)]) == 0
    curves = sorted(p.name for p in tmp_path.glob("s_curve_*.csv"))
    assert curves == ["s_curve_gamma=1.0000001.csv", "s_curve_gamma=1.0000002.csv"]


@pytest.mark.parametrize("command", ["price", "validate"])
def test_p_tol_beyond_container_slack_is_infeasible(config_file, capsys, command):
    # p3 = -0.0041 lies within p_tol but beyond the 1e-3 a calibration holds
    doc = {
        "project": {"rho": 0.999},
        "option": {"gamma": 1.0, "maturity": 1.0},
        "grid": {"dt": 0.01, "p_tol": 0.05},
    }
    assert main([command, "--config", config_file(doc)]) == 3
    err = capsys.readouterr().err
    assert err.count("p3") == 1
    assert "CalibrationInfeasible" not in err and "ValueError" not in err


@pytest.mark.parametrize("argv", [
    ["price", "--workers", "2"],
    ["price", "--out", "x.csv"],
    ["validate", "--out", "x.csv"],
    ["validate", "--workers", "2"],
    ["threshold", "--workers", "2"],
])
def test_unread_flags_are_rejected(config_file, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", config_file(BASE_DOC)])
    assert exc.value.code == 2


def test_preset_and_config_are_rejected_together(config_file, capsys):
    argv = ["sweep", "--preset", "fig4", "--config", config_file(BASE_DOC)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--preset" in err and "--config" in err


@pytest.mark.parametrize("cost, threshold", [
    (0.1, "nan"), (0.2, "nan"), (0.3, "nan"), (0.5, "0.726149037074"),
])
def test_exercise_at_the_ladder_bottom_is_flagged(config_file, capsys, cost, threshold):
    doc = {
        "project": {"rho": 0.5},
        "option": {"gamma": 1.0, "maturity": 2.0, "cost": cost},
        "grid": {"dt": 0.01},
    }
    assert main(["price", "--config", config_file(doc)]) == 0
    out = capsys.readouterr().out
    assert f"threshold_spot_t0 = {threshold}\n" in out
    assert ("ladder_bottom_columns=" in out) == (threshold == "nan")


def test_validate_calibrates_at_the_grid_step(config_file, capsys):
    # dt 0.00319 is feasible, but the grid runs at 1/313, where p3 < 0
    doc = {
        "project": {"rho": 0.99},
        "option": {"gamma": 1.0, "maturity": 1.0},
        "grid": {"dt": 0.00319},
    }
    for command in ("validate", "price"):
        assert main([command, "--config", config_file(doc)]) == 3
        assert "p3" in capsys.readouterr().err


@pytest.mark.parametrize("option", [{"cost_growth": 0.5}, {"cost": 20.0}])
def test_ladder_clears_a_strike_above_v0(config_file, capsys, option):
    doc = {"project": {"rho": 0.5}, "option": {"gamma": 1.0, **option}, "grid": {"dt": 0.05}}
    assert main(["price", "--config", config_file(doc)]) == 0
    assert "threshold_spot_t0 = nan" not in capsys.readouterr().out
