"""Measure g's monotone test once per block against a parent checkout; write BENCH_check.json.

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/bench_check.py --parent /tmp/parent [--change .] [--pairs 10]

Five parts, each skippable with ``--skip``; every timing alternates the
side that runs first, each side in a fresh process:

``column``     g plus the ``np.maximum`` of one base-lattice column (the
               rows below the window top of the time-0 column), as the
               induction calls them: per column µs.
``induce``     ``backward_induce`` of the base lattice (rho 0.5, gamma 1,
               dt = 1/900), per column µs.
``presets``    ``run_preset`` on 1 worker: fig4 and fig1-left at
               dt = 0.003, fig1-left at the default dt 1/900.
``csv``        every preset CSV at the default dt and at 0.02 on 1, 2
               and 3 workers, and at dt = 0.003 on 1 worker (all 71
               points): byte-identical to the parent's, ``wall_ms``
               masked.
``bench``      ``bench/run.py --seconds <s> --trace 0`` on price-base,
               presets-coarse and oracle-1000, ``--pairs`` alternating
               pairs; each side runs its own bench/ and src/.

Timings are wall-clock on whatever machine runs this; the JSON records
its CPU and the numpy version.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_stacks import PRESETS, ROOT, _CSV, _masked, _median, _python, bench_pairs  # noqa: E402

_SETUP = r"""
import inspect, json, sys, time
import numpy as np
import reopt.lattice as lattice
from reopt import build_grid, calibrate, g_values
from reopt.experiments import parse_config
cfg, _ = parse_config('{"project": {"rho": 0.5}, "option": {"gamma": 1.0}}')
grid = build_grid(cfg.market, cfg.option, cfg.dt)
cal = calibrate(cfg.market, grid.dt)
option = cfg.option
"""

_COLUMN = _SETUP + r"""
# the induction's call: with the keyword where this side has it
keyword = {"monotone": True} if "monotone" in inspect.signature(g_values).parameters else {}
t = np.arange(grid.n_steps + 1) * grid.dt
strike = option.cost * np.exp((option.cost_growth - cal.r) * t)
top = lattice._window_top(grid.row_values, cal, strike)
col = lattice.backward_induce(grid, cal, option).values_t0
x_up, x_dn = col[top - 1 : -2].copy(), col[top + 1 :].copy()
ex = np.maximum(grid.row_values[top:-1] - strike[0], 0.0)
out = np.empty_like(ex)
calls, repeats = 20000, int(sys.argv[1])
times = []
for _ in range(repeats):
    start = time.perf_counter()
    for _ in range(calls):
        np.maximum(ex, g_values(x_up, x_dn, cal, option.gamma, **keyword), out=out)
    times.append((time.perf_counter() - start) / calls * 1e6)
print(json.dumps({"us_per_column": times, "rows": int(x_up.size)}))
"""

_INDUCE = _SETUP + r"""
times = []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    lattice.backward_induce(grid, cal, option)
    times.append((time.perf_counter() - start) / grid.n_steps * 1e6)
print(json.dumps({"us_per_column": times, "nodes": grid.n_rows * (grid.n_steps + 1)}))
"""

_PRESET = r"""
import json, sys, time
from reopt.experiments import run_preset
name, dt, timed = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
run_preset(name, 1, dt)  # warm-up
times = []
for _ in range(timed):
    start = time.perf_counter()
    run_preset(name, 1, dt)
    times.append((time.perf_counter() - start) * 1e3)
print(json.dumps(times))
"""

PRESET_CASES = (("fig4", 0.003), ("fig1-left", 0.003), ("fig1-left", 1.0 / 900.0))


def _sides(parent: Path, change: Path, k: int):
    sides = [("parent", parent), ("change", change)]
    return sides if k % 2 == 0 else sides[::-1]


def _compare(parent_runs: list[float], change_runs: list[float]) -> dict:
    a, b = _median(parent_runs), _median(change_runs)
    return {"parent": parent_runs, "change": change_runs, "parent_median": a,
            "change_median": b, "change_over_parent": b / a}


def timed_script(parent: Path, change: Path, code: str, rounds: int, repeats: int) -> dict:
    runs = {"parent": [], "change": []}
    extra = {}
    for k in range(rounds):
        for name, side in _sides(parent, change, k):
            got = json.loads(_python(side, code, str(repeats)))
            runs[name] += got.pop("us_per_column")
            extra = got
    return {**extra, **_compare(runs["parent"], runs["change"])}


def presets(parent: Path, change: Path, rounds: int, timed: int) -> list[dict]:
    rows = []
    for name, dt in PRESET_CASES:
        runs = {"parent": [], "change": []}
        for k in range(rounds):
            for side_name, side in _sides(parent, change, k):
                runs[side_name] += json.loads(_python(side, _PRESET, name, str(dt), str(timed)))
        rows.append({"preset": name, "dt": dt, "workers": 1, "unit": "ms",
                     **_compare(runs["parent"], runs["change"])})
    return rows


def csv_identity(parent: Path, change: Path) -> list[dict]:
    cases = [(dt, w) for dt in (None, 0.02) for w in (1, 2, 3)] + [(0.003, 1)]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for dt, workers in cases:
            for preset in PRESETS:
                csvs = []
                for side, name in ((parent, "parent"), (change, "change")):
                    out = Path(tmp) / f"{name}-{preset}.csv"
                    _python(side, _CSV, preset, str(workers), str(dt), str(out))
                    csvs.append(_masked(out))
                rows.append({"preset": preset, "dt": dt, "workers": workers,
                             "rows": len(csvs[0]) - 2, "same_bytes": csvs[0] == csvs[1]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout (git archive)")
    parser.add_argument("--change", type=Path, default=ROOT, help="this change's checkout")
    parser.add_argument("--pairs", type=int, default=10, help="bench/run.py pairs per workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="bench/run.py --seconds")
    parser.add_argument("--rounds", type=int, default=6, help="alternating rounds of the timings")
    parser.add_argument("--skip", nargs="*", default=(),
                        choices=("column", "induce", "presets", "csv", "bench"))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_check.json")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()

    import platform

    import numpy

    report = {
        "topic": "check",
        "hardware": {"cpu": platform.processor() or platform.machine(),
                     "python": platform.python_version(), "numpy": numpy.__version__},
        "commands": {"script": "python3 tools/bench_check.py " + " ".join(argv or sys.argv[1:])},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        report["hardware"]["cpu"], report["hardware"]["nproc"] = names[0], len(names)
    except (OSError, IndexError):
        pass
    started = time.time()
    if "column" not in args.skip:
        report["column"] = timed_script(parent, change, _COLUMN, args.rounds, 3)
    if "induce" not in args.skip:
        report["induce"] = timed_script(parent, change, _INDUCE, args.rounds, 5)
    if "presets" not in args.skip:
        report["presets"] = presets(parent, change, args.rounds, 2)
    if "csv" not in args.skip:
        report["csv"] = csv_identity(parent, change)
        report["csv_all_same"] = all(row["same_bytes"] for row in report["csv"])
    if "bench" not in args.skip:
        report["bench"] = bench_pairs(parent, change, args.pairs, args.seconds)
    report["elapsed_s"] = time.time() - started
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
