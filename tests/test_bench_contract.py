"""What the benchmark harness in bench/ relies on from the package.

The tracer wraps functions by their module attribute, and the workloads
swap ``reopt.cli.run_single`` and count ``reopt.experiments.parse_config``
calls, so these names must exist and be looked up at call time.  The
tracer also counts induction nodes from the grid passed as the first
positional argument of ``backward_induce``.  The workloads and gates read
result fields by name, build markets from six keywords and call the
numeric oracle with ``x0`` by keyword.  Pool workers of a traced sweep
must reach the tracer's ``run_single`` wrapper, a closure that does not
pickle.
"""

import dataclasses
import importlib.util
import json
import multiprocessing
from pathlib import Path

import pytest

import reopt.cli
import reopt.experiments
import reopt.lattice
from reopt import GridSpec, MarketParams, PayoffPair, RunResult, UtilityParams, calibrate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _record(monkeypatch, calls, module, name, first_args=None):
    inner = getattr(module, name)

    def recorder(*args, **kwargs):
        calls.append(f"{module.__name__}.{name}")
        if first_args is not None:
            first_args.append(args[0] if args else None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, recorder)


def test_every_traced_function_is_a_module_attribute():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, fn in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"reopt.{mod}"), fn, None)), (mod, fn)


def test_price_calls_cli_run_single(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"project": {"rho": 0.5}, "option": {"gamma": 1.0}, "grid": {"dt": 0.05}}')
    calls = []
    _record(monkeypatch, calls, reopt.cli, "run_single")
    assert reopt.cli.main(["price", "--config", str(cfg)]) == reopt.cli.EXIT_OK
    assert calls == ["reopt.cli.run_single"]


def test_preset_sweep_calls_run_preset_and_parse_config(tmp_path, monkeypatch):
    calls = []
    _record(monkeypatch, calls, reopt.cli, "run_preset")
    _record(monkeypatch, calls, reopt.experiments, "parse_config")
    argv = ["sweep", "--preset", "fig4", "--dt", "0.05", "--out", str(tmp_path / "fig4.csv")]
    assert reopt.cli.main(argv) == reopt.cli.EXIT_OK
    assert "reopt.cli.run_preset" in calls
    assert "reopt.experiments.parse_config" in calls


def test_price_induces_on_a_positional_grid_and_extracts(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"project": {"rho": 0.5}, "option": {"gamma": 1.0}, "grid": {"dt": 0.05}}')
    calls, grids = [], []
    _record(monkeypatch, calls, reopt.lattice, "backward_induce", grids)
    _record(monkeypatch, calls, reopt.lattice, "extract_thresholds")
    assert reopt.cli.main(["price", "--config", str(cfg)]) == reopt.cli.EXIT_OK
    assert calls == ["reopt.lattice.backward_induce", "reopt.lattice.extract_thresholds"]
    assert len(grids) == 1 and isinstance(grids[0], GridSpec)


def test_preset_sweep_calls_value_curve(tmp_path, monkeypatch):
    calls = []
    _record(monkeypatch, calls, reopt.experiments, "value_curve")
    argv = ["sweep", "--preset", "fig4", "--dt", "0.05", "--out", str(tmp_path / "fig4.csv")]
    assert reopt.cli.main(argv) == reopt.cli.EXIT_OK
    assert "reopt.experiments.value_curve" in calls


def test_run_result_has_the_fields_the_bench_reads():
    names = {f.name for f in dataclasses.fields(RunResult)}
    wanted = {"m", "n", "error", "option_value_v0", "threshold_spot_t0", "wall_ms"}
    assert wanted <= names


def test_oracle_claims_market_and_oracle_call():
    # the six keywords of bench/workloads.py oracle_claims, and the oracle
    # call of its workload and of bench/gates.py
    market = MarketParams(mu1=0.1, sigma1=0.3, mu2=0.05, sigma2=0.2, rho=0.4, r=0.03)
    cal = calibrate(market, 0.1)
    pay, util = PayoffPair(0.5, -0.2), UtilityParams(1.0)
    price = reopt.numeric_indifference_price(pay, cal, util, x0=1.5)
    assert abs(price - reopt.g_value(pay, cal, util)) < 1e-7


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the tracer's wrappers only when the pool forks",
)
def test_pool_sweep_reaches_a_patched_run_single(monkeypatch):
    # the tracer swaps a closure into reopt.experiments.run_single; a pool
    # cannot pickle it, so run_sweep must send a module-level function that
    # looks run_single up in the worker
    inner = reopt.experiments.run_single

    def tagged(*args, **kwargs):
        result = inner(*args, **kwargs)
        result.tag = "traced"
        return result

    monkeypatch.setattr(reopt.experiments, "run_single", tagged)
    doc = {
        "project": {"rho": 0.5},
        "option": {"gamma": 1.0},
        "grid": {"dt": 0.05},
        "sweep": {"name": "gamma", "values": [1.0, 2.0]},
    }
    _, sweep = reopt.experiments.parse_config(json.dumps(doc))
    results = reopt.experiments.run_sweep(sweep, workers=2)
    assert [r.swept_value for r in results] == [1.0, 2.0]
    assert [getattr(r, "tag", None) for r in results] == ["traced", "traced"]
