"""Command-line interface: subcommands, outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reopt.cli import main, preset_hash

from conftest import read_sweep_csv


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
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    general, error = r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?", r"-?\d\.\d{3}e[+-]\d{2}"
    for label, line in zip(("E[S1/S0]  = ", "E[V1/V0]  = ", "Cov       = "), lines[-3:]):
        shape = rf"{re.escape(label)}({general})  \(target ({general}), error ({error})\)"
        match = re.fullmatch(shape, line)
        assert match, line
        got, want, err = map(float, match.groups())
        assert got == pytest.approx(want, rel=1e-11) and abs(err) < 1e-15, line


def test_threshold_writes_curve(config_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["threshold", "--config", config_file(BASE_DOC), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].startswith("n,t,")
    assert len(lines) == 2 + 200 + 1


def test_sweep_from_config(config_file, tmp_path, capsys):
    doc = dict(BASE_DOC, sweep={"name": "gamma", "values": [0.5, 1.0]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config_file(doc), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
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


# preset hash at the default step and at dt = 0.02; a preset CSV's first
# line, so a change here means a published run no longer names itself
PRESET_HASHES = {
    "fig1-left": (
        "b593aa5755c3c675a8f51fdd628474f664a62284b19b2602d7ad87d5ccb49928",
        "537f26cedeb94d8fc86fae1a0488fa262db5706145d17b266f19e0079a86fbe2",
    ),
    "fig1-right": (
        "40465acbed764b5ea2f308f3760acc330218c93b3199d80e37ad8e05f8dc0332",
        "c18911ff8db2c94406025940c7925ecd946a0e55c1b170e75dd388c78b97a15f",
    ),
    "fig2-left": (
        "abb26bc87fe56fd13f8366b5b2f03eb21a51c420e401debfcb5136dba65e6318",
        "ecf1f0f95d489c57e390cc6629eb83a029d7c427aeddef3381ab3d75c3669f64",
    ),
    "fig2-right": (
        "70447fe0a49fb0de5a3a42d1c66fc7c80435cb735670077afcfef48efb05e477",
        "ee03d747a6f4fe5fb134bb5d6a4d74d2dbe44e0ba8aafc572854bdcc77360c9b",
    ),
    "fig3": (
        "3dceb80c46b9cfbfd5738a096c6190fb93c2ffc924aa4595f8d971c32c80f158",
        "d9f3a06e7e747d1d40d33b719adb428a4c2a8cef7eee28cc8298d130c08f1747",
    ),
    "fig4": (
        "b19cec3b2a66be6058ad4e26052780f1be5fdcf96e163ab0ce8b2cba61f6314b",
        "72f42468afc08ee845dc7df0e86b68ec6257336ab91ff4ae784cd2a4388a5493",
    ),
}


@pytest.mark.parametrize("name", PRESET_HASHES)
def test_preset_hashes_are_pinned(name):
    assert (preset_hash(name), preset_hash(name, 0.02)) == PRESET_HASHES[name]


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
    ({"name": "gamma", "values": [1.0], "outputs": ["spot_curve"]}, "sweep.outputs"),
    # refused before any array is laid out
    ({"name": "gamma", "range": {"start": 1.0, "stop": 2.0, "count": 10**15}}, "sweep.range.count"),
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


# sigma1 so small that the equilibrium return, and so the derived mu2, is infinite
OVERFLOWING_DRIFT = dict(BASE_DOC, market={"sigma1": 1e-310})


def test_derived_drift_that_overflows_is_config_error(config_file, capsys):
    assert main(["price", "--config", config_file(OVERFLOWING_DRIFT)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: project.mu2=inf")
    assert "sigma1=1e-310" in err


def _price_in_subprocess(config, *python_flags, command="price"):
    """``python <flags> -m reopt.cli <command> --config <config>``, run on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "reopt.cli", command, "--config", config],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_exits_with_the_command_code(config_file):
    for doc, code in ((BASE_DOC, 0), (OVERFLOWING_DRIFT, 2)):
        proc = _price_in_subprocess(config_file(doc))
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text, message", [
    ('[{"project": {"rho": 0.5}}]', "top-level config must be a JSON object"),
    ('{"project": {"rho": "0.5"}, "option": {"gamma": 1.0}}', "project.rho must be a number"),
    (
        '{"project": {"rho": 0.5}, "option": {"gamma": 1.0}, "grid": {"p_tol": -1.0}}',
        "grid.p_tol: p_tol must be nonnegative, got -1.0",
    ),
], ids=["top-level-array", "non-number", "negative-p_tol"])
def test_malformed_value_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["price", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_price_without_config_is_config_error(capsys):
    assert main(["price"]) == 2
    assert "--config is required" in capsys.readouterr().err


def test_dt_override_of_a_config_sweep_runs_that_step(config_file, tmp_path):
    sweep = {"name": "gamma", "values": [2.0, 1.0]}
    doc = {"project": {"rho": 0.5}, "option": {"gamma": 1.0, "maturity": 1.0}, "sweep": sweep}
    overridden, written = tmp_path / "overridden.csv", tmp_path / "written.csv"
    argv = ["sweep", "--config", config_file(doc, "a.json"), "--dt", "0.1", "--out"]
    assert main(argv + [str(overridden)]) == 0
    doc["grid"] = {"dt": 0.1}
    assert main(["sweep", "--config", config_file(doc, "b.json"), "--out", str(written)]) == 0
    (hash_a, rows_a), (hash_b, rows_b) = map(read_sweep_csv, (overridden, written))
    assert hash_a == hash_b
    for row in rows_a + rows_b:
        del row["wall_ms"]
    assert rows_a == rows_b
    assert [row["N"] for row in rows_a] == ["10", "10"]


def test_infeasible_calibration_exit_code(config_file, capsys):
    doc = {"project": {"rho": 0.99}, "option": {"gamma": 1.0}, "grid": {"dt": 0.01}}
    assert main(["price", "--config", config_file(doc)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_a_step_too_small_to_move_is_infeasible(config_file, capsys):
    # at dt = 1e-300, exp(sigma sqrt(dt)) rounds to 1: the lattice has no step
    doc = {"project": {"rho": 0.5}, "option": {"gamma": 1.0, "maturity": 1e-300}}
    assert main(["price", "--config", config_file(doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible calibration: ") and "too small" in err
    assert err.count("\n") == 1


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
    for stem, name, values, files in (
        # the two values agree to six significant digits
        ("g", "gamma", [1.0000001, 1.0000002], ["gamma=1.0000001", "gamma=1.0000002"]),
        # 1e-300 written positionally would make a name too long to create
        ("d", "delta", [1e-300, 0.04], ["delta=0.04", "delta=1e-300"]),
    ):
        doc = {
            "project": {"rho": 0.5},
            "option": {"gamma": 1.0, "maturity": 1.0},
            "grid": {"dt": 0.1},
            "sweep": {"name": name, "values": values, "outputs": ["threshold_curve"]},
        }
        out = tmp_path / f"{stem}.csv"
        assert main(["sweep", "--config", config_file(doc), "--out", str(out)]) == 0
        curves = sorted(p.name for p in tmp_path.glob(f"{stem}_curve_*.csv"))
        assert curves == [f"{stem}_curve_{name_value}.csv" for name_value in files]


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


# valid configs whose grid is too large to lay out, and the axis each overflows
UNLAYABLE_GRIDS = {
    "tiny-sigma2": ({"project": {"rho": 0.5, "sigma2": 1e-300}}, "M = "),
    "subnormal-sigma2": ({"project": {"rho": 0.5, "sigma2": 5e-324}}, "M = inf"),
    "huge-maturity": ({"option": {"gamma": 1.0, "maturity": 1e300}, "grid": {"dt": 1e-10}}, "N = "),
}


@pytest.mark.parametrize("command", ["price", "threshold", "validate"])
@pytest.mark.parametrize("case", UNLAYABLE_GRIDS.values(), ids=UNLAYABLE_GRIDS.keys())
def test_grid_too_large_to_lay_out_exits_3(config_file, tmp_path, capsys, command, case):
    overrides, axis = case
    out = tmp_path / "curve.csv"
    argv = [command, "--config", config_file({**BASE_DOC, **overrides})]
    assert main(argv + ["--out", str(out)] * (command == "threshold")) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and axis in err, err
    assert err.startswith("cannot value: ") and "infeasible" not in err, err
    assert not out.exists()


# a feasible calibration with a signed weight (p2 < 0, within p_tol) whose
# certainty equivalent is undefined at gamma 100
SIGNED_WEIGHT_DOC = {
    "market": {"sigma1": 0.8},
    "project": {"rho": 0.99},
    "option": {"gamma": 100.0, "maturity": 2.0},
    "grid": {"dt": 0.02, "p_tol": 1e-3},
}


@pytest.mark.parametrize("command", ["price", "threshold"])
def test_undefined_certainty_equivalent_exits_3_without_infeasible(
    config_file, tmp_path, capsys, command
):
    out = tmp_path / "curve.csv"
    argv = [command, "--config", config_file(SIGNED_WEIGHT_DOC)]
    assert main(argv + ["--out", str(out)] * (command == "threshold")) == 3
    err = capsys.readouterr().err
    assert err == "cannot value: certainty equivalent undefined: " \
        "signed branch weight dominates the mixture\n"
    assert not out.exists()
    # the calibration itself is feasible, with p2 < 0
    assert main(["validate", "--config", config_file(SIGNED_WEIGHT_DOC)]) == 0
    weights = capsys.readouterr().out.split("p         = (")[1].split(")")[0]
    assert float(weights.split(", ")[1]) < 0.0


def test_gamma_too_small_for_g_exits_3(config_file, capsys):
    doc = dict(BASE_DOC, option={"gamma": 1e-10})
    assert main(["price", "--config", config_file(doc)]) == 3
    assert capsys.readouterr().err == (
        "cannot value: gamma * cost = 1e-10 is below 1e-07, where g's rounding "
        "outweighs risk aversion; gamma 0 values the option in its linear limit\n"
    )


# gamma times the payoff g is given overflows: in the window of a
# shortfall-specified project, and on every row when a negative shortfall
# leaves no window
OVERFLOWING_GAMMA = {
    "windowed": {"project": {"rho": 0.5}, "option": {"gamma": 1.7e308}, "grid": {"dt": 0.01}},
    "every-row": {
        "project": {"rho": 0.5, "sigma2": 3.0, "delta": -0.02},
        "option": {"gamma": 1e300, "maturity": 40},
        "grid": {"dt": 0.05},
    },
}


@pytest.mark.parametrize("doc", OVERFLOWING_GAMMA.values(), ids=OVERFLOWING_GAMMA.keys())
def test_gamma_times_payoff_that_overflows_exits_3(config_file, doc):
    proc = _price_in_subprocess(config_file(doc), "-W", "error")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot value: gamma ") and "overflows" in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


# a lattice step, a one-step growth or a ladder whose rows overflow
# float64: exp(sigma sqrt(dt)) itself for the project and for the market,
# the market's exp((mu1 - r) dt), and V0 h^M on a ladder that a large
# sigma2 or a fast-growing cost makes tall
OVERFLOWING_LADDER = {
    "project-step": (
        {"project": {"rho": 0.5, "sigma2": 800}, "option": {"gamma": 1}, "grid": {"dt": 1}},
        "cannot value: the ladder's rows V0 h^(+-M) overflow",
    ),
    "market-step": (
        {"market": {"sigma1": 800}, "project": {"rho": 0.5}, "option": {"gamma": 1},
         "grid": {"dt": 1}},
        "infeasible calibration: dt=1 too large: exp(sigma sqrt(dt)) or exp((mu - r) dt)",
    ),
    "market-drift": (
        {"market": {"mu1": 800}, "project": {"rho": 0.0}, "option": {"gamma": 1},
         "grid": {"dt": 1}},
        "infeasible calibration: dt=1 too large: exp(sigma sqrt(dt)) or exp((mu - r) dt)",
    ),
    "tall-ladder": (
        {"project": {"rho": 0.5, "sigma2": 30}, "option": {"gamma": 1}, "grid": {"dt": 1}},
        "cannot value: the ladder's rows V0 h^(+-M) overflow",
    ),
    "growing-cost": (
        {"project": {"rho": 0.5}, "option": {"gamma": 1, "cost_growth": 100},
         "grid": {"dt": 0.05}},
        "cannot value: the ladder's rows V0 h^(+-M) overflow",
    ),
}


@pytest.mark.parametrize("command", ["price", "validate"])
@pytest.mark.parametrize(
    "doc, message", OVERFLOWING_LADDER.values(), ids=OVERFLOWING_LADDER.keys()
)
def test_step_or_ladder_that_overflows_exits_3(config_file, command, doc, message):
    proc = _price_in_subprocess(config_file(doc), "-W", "error", command=command)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(message), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_point_whose_ladder_overflows_is_an_error_row(
    config_file, tmp_path, capsys, workers
):
    sweep = {"name": "sigma2", "values": [0.2, 800]}
    doc = dict(OVERFLOWING_LADDER["project-step"][0], sweep=sweep)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", config_file(doc), "--out", str(out), "--workers", workers]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote {out} (2 rows, 1 failed)\n"
    _, (good, bad) = read_sweep_csv(out)
    assert good["anomaly_flags"] == "" and float(good["option_value_v0"]) > 0.0
    assert bad["anomaly_flags"] == "error:ValueError" and bad["option_value_v0"] == ""


def test_huge_gamma_within_the_window_is_valued(config_file):
    # the every-row config with a positive shortfall: the window's rows
    # keep gamma times the payoff finite
    doc = {
        "project": {"rho": 0.5, "sigma2": 3.0},
        "option": {"gamma": 1e300, "maturity": 40},
        "grid": {"dt": 0.05},
    }
    proc = _price_in_subprocess(config_file(doc), "-W", "error")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "option_value_v0   = 1.31289013879e-300"
    assert proc.stderr == ""


def test_gamma_stack_with_an_overflowing_gamma_solves_each_point(config_file, tmp_path, capsys):
    doc = dict(BASE_DOC, sweep={"name": "gamma", "values": [1.0, 1.7e308]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config_file(doc), "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.out == f"wrote {out} (2 rows, 1 failed)\n"
    # the CSV keeps the type; stderr names the point and gives the message
    assert re.fullmatch(
        r"gamma=1\.7e\+308: ValueError: gamma 1\.7e\+308 times the payoff \S+ overflows\n",
        printed.err,
    ), printed.err
    _, (good, bad) = read_sweep_csv(out)
    assert bad["anomaly_flags"] == "error:ValueError" and bad["option_value_v0"] == ""
    assert main(["price", "--config", config_file(BASE_DOC)]) == 0
    alone = capsys.readouterr().out.splitlines()[0]
    assert alone == f"option_value_v0   = {float(good['option_value_v0']):.12g}"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_point_whose_grid_cannot_be_laid_out_is_an_error_row(
    config_file, tmp_path, capsys, workers
):
    doc = dict(BASE_DOC, sweep={"name": "sigma2", "values": [1e-300, 0.2]})
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", config_file(doc), "--out", str(out), "--workers", workers]
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert printed.out == f"wrote {out} (2 rows, 1 failed)\n"
    assert printed.err.startswith("sigma2=1e-300: ValueError: the ladder needs M = ")
    assert printed.err.count("\n") == 1, printed.err
    _, (bad, good) = read_sweep_csv(out)
    assert bad["anomaly_flags"] == "error:ValueError"
    assert bad["M"] == bad["N"] == bad["dt"] == bad["threshold_spot_t0"] == ""
    assert good["anomaly_flags"] == "" and float(good["threshold_spot_t0"]) > 1.0
    assert (good["M"], good["N"]) == ("64", "200")
