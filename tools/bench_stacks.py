"""Measure stacked sweep inductions against a parent checkout; write BENCH_stacks.json.

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/bench_stacks.py --parent /tmp/parent [--change .] [--pairs 6]

Four parts, each skippable with ``--skip``:

``in_process``  this checkout alone: one ``solve_stack`` of a sweep's
                lattices against one ``solve`` per lattice, for fig1-left,
                fig2-right and fig1-right's rho 0 gamma stack, at dt = 0.02
                and 1/900 (medians of alternating rounds).
``csv``         every preset CSV (``reopt sweep --preset``) at the default
                dt and at 0.02, on 1, 2 and 3 workers: byte-identical to
                the parent's once the ``wall_ms`` column is masked.
``presets``     ``run_preset`` of every preset on 1 and 2 workers at the
                default dt and at 0.02, in a fresh process per side and
                round, the side that runs first alternating.
``bench``       ``bench/run.py --workload <w> --seconds <s> --trace 0`` on
                price-base, presets-coarse and oracle-1000, ``--pairs``
                alternating pairs; each side runs its own bench/ and src/.

Each side is a directory holding ``src/reopt`` and ``bench/``; the parent
is best made with ``git archive``.  Timings are wall-clock on whatever
machine runs this; the JSON records its CPU and the numpy version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("fig1-left", "fig1-right", "fig2-left", "fig2-right", "fig3", "fig4")
WORKLOADS = ("price-base", "presets-coarse", "oracle-1000")
DTS = (None, 0.02)


def _median(xs):
    return statistics.median(xs) if xs else None


def _python(side: Path, code: str, *args: str) -> str:
    """Run ``code`` in a fresh python that imports reopt from ``side``."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=side,
        capture_output=True, text=True, check=True,
    )
    return out.stdout


# ---------------------------------------------------------------------------
# in-process: one stacked induction against one per lattice
# ---------------------------------------------------------------------------

_IN_PROCESS = r"""
import json, sys, time, dataclasses
from reopt import GridStack, build_grid, calibrate, solve, solve_stack
from reopt.experiments import _point_config, build_preset

def lattices(name, dt):
    specs = build_preset(name, dt)
    spec = specs[0]
    found = []
    for value in spec.values:
        cfg = _point_config(spec, value)
        try:
            grid = build_grid(cfg.market, cfg.option, cfg.dt)
            found.append((cfg.market, grid, calibrate(cfg.market, grid.dt), cfg.option))
        except ValueError:
            pass
    return found

rounds = int(sys.argv[1])
out = []
for dt in (0.02, 1.0 / 900.0):
    for name in ("fig1-left", "fig2-right", "fig1-right"):
        found = lattices(name, dt)
        markets, grids, cals, options = zip(*found)
        stack = GridStack(grids)
        stacked, separate = [], []
        for r in range(rounds):
            for which in ((0, 1) if r % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                if which == 0:
                    solve_stack(stack, cals, options)
                else:
                    for market, grid, option in zip(markets, grids, options):
                        solve(market, option, grid)
                (stacked if which == 0 else separate).append((time.perf_counter() - start) * 1e3)
        out.append({
            "case": name if name != "fig1-right" else "fig1-right rho 0 (gamma stack)",
            "dt": dt, "lattices": len(grids),
            "half_heights": [min(g.half_height for g in grids), max(g.half_height for g in grids)],
            "stacked_ms": stacked, "separate_ms": separate,
        })
print(json.dumps(out))
"""


def in_process(change: Path, rounds: int) -> list[dict]:
    rows = json.loads(_python(change, _IN_PROCESS, str(rounds)))
    for row in rows:
        row["stacked_median_ms"] = _median(row["stacked_ms"])
        row["separate_median_ms"] = _median(row["separate_ms"])
        row["ratio"] = row["stacked_median_ms"] / row["separate_median_ms"]
    return rows


# ---------------------------------------------------------------------------
# CSV identity and run_preset timings, parent against change
# ---------------------------------------------------------------------------

_CSV = r"""
import sys
from reopt.cli import main
preset, workers, dt, out = sys.argv[1:5]
argv = ["sweep", "--preset", preset, "--workers", workers, "--out", out]
sys.exit(main(argv + (["--dt", dt] if dt != "None" else [])))
"""


def _masked(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    wall = header.index("wall_ms")
    return lines[:2] + [",".join(v for i, v in enumerate(line.split(",")) if i != wall)
                        for line in lines[2:]]


def csv_identity(parent: Path, change: Path) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for dt in DTS:
            for workers in (1, 2, 3):
                for preset in PRESETS:
                    csvs = []
                    for side, name in ((parent, "parent"), (change, "change")):
                        out = Path(tmp) / f"{name}-{preset}.csv"
                        _python(side, _CSV, preset, str(workers), str(dt), str(out))
                        csvs.append(_masked(out))
                    rows.append({"preset": preset, "dt": dt, "workers": workers,
                                 "rows": len(csvs[0]) - 2, "same_bytes": csvs[0] == csvs[1]})
    return rows


_PRESET = r"""
import json, sys, time
from reopt.experiments import run_preset
workers, dt, timed = int(sys.argv[1]), (None if sys.argv[2] == "None" else float(sys.argv[2])), int(sys.argv[3])
out = {}
for name in sys.argv[4:]:
    run_preset(name, workers, dt)  # warm-up
    times = []
    for _ in range(timed):
        start = time.perf_counter()
        run_preset(name, workers, dt)
        times.append((time.perf_counter() - start) * 1e3)
    out[name] = times
print(json.dumps(out))
"""


def presets(parent: Path, change: Path, rounds: int, timed: int) -> list[dict]:
    rows = []
    for dt in DTS:
        for workers in (1, 2):
            times = {"parent": {p: [] for p in PRESETS}, "change": {p: [] for p in PRESETS}}
            for r in range(rounds):
                sides = [("parent", parent), ("change", change)]
                for name, side in (sides if r % 2 == 0 else sides[::-1]):
                    got = json.loads(_python(side, _PRESET, str(workers), str(dt), str(timed), *PRESETS))
                    for p in PRESETS:
                        times[name][p] += got[p]
            for p in PRESETS:
                a, b = _median(times["parent"][p]), _median(times["change"][p])
                rows.append({"preset": p, "dt": dt, "workers": workers,
                             "parent_ms": times["parent"][p], "change_ms": times["change"][p],
                             "parent_median_ms": a, "change_median_ms": b, "ratio": b / a})
    return rows


# ---------------------------------------------------------------------------
# bench/run.py pairs
# ---------------------------------------------------------------------------


def _bench_run(side: Path, workload: str, seconds: float, seed: int | None = None) -> dict:
    seeded = [] if seed is None else ["--seed", str(seed)]
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--trace", "0", *seeded],
        cwd=side, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], **metrics}


def bench_pairs(parent: Path, change: Path, pairs: int, seconds: float, seeds=(None,)) -> dict:
    """``pairs`` alternating pairs per workload, pairs 2j and 2j + 1 (one
    with each side first) on ``seeds[j % len(seeds)]``."""
    report = {}
    for workload in WORKLOADS:
        runs = []
        for k in range(pairs):
            sides = [("parent", parent), ("change", change)]
            seed = seeds[k // 2 % len(seeds)]
            pair = {"first": sides[k % 2][0], "seed": seed}
            for name, side in (sides if k % 2 == 0 else sides[::-1]):
                pair[name] = _bench_run(side, workload, seconds, seed)
            runs.append(pair)
        summary = {}
        for metric in ("wall_s", "setup_s", "peak_rss_mb", "max_abs_dev"):
            a = [p["parent"].get(metric) for p in runs]
            b = [p["change"].get(metric) for p in runs]
            if None in a or None in b:
                continue
            q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], None, a[0])
            summary[metric] = {
                "parent_median": _median(a), "change_median": _median(b),
                "change_over_parent": _median(b) / _median(a) if _median(a) else None,
                "pairs_lower": sum(y < x for x, y in zip(a, b)),
                "parent_iqr": q3 - q1,
            }
        report[workload] = {"pairs": runs, "summary": summary,
                            "all_correct": all(p[s]["correct"] for p in runs for s in ("parent", "change"))}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout (git archive)")
    parser.add_argument("--change", type=Path, default=ROOT, help="this change's checkout")
    parser.add_argument("--pairs", type=int, default=6, help="bench/run.py pairs per workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="bench/run.py --seconds")
    parser.add_argument("--rounds", type=int, default=4, help="alternating rounds of the timings")
    parser.add_argument("--skip", nargs="*", default=(),
                        choices=("in_process", "csv", "presets", "bench"))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_stacks.json")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()

    import numpy

    report = {
        "topic": "stacks",
        "hardware": {"cpu": platform.processor() or platform.machine(), "nproc": os.cpu_count(),
                     "python": platform.python_version(), "numpy": numpy.__version__},
        "commands": {"script": "python3 tools/bench_stacks.py " + " ".join(argv or sys.argv[1:])},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        report["hardware"]["cpu"] = names[0]
    except (OSError, IndexError):
        pass
    started = time.time()
    if "in_process" not in args.skip:
        report["in_process"] = in_process(change, 2 * args.rounds)
    if "csv" not in args.skip:
        report["csv"] = csv_identity(parent, change)
        report["csv_all_same"] = all(row["same_bytes"] for row in report["csv"])
    if "presets" not in args.skip:
        report["presets"] = presets(parent, change, args.rounds, 2)
    if "bench" not in args.skip:
        report["bench"] = bench_pairs(parent, change, args.pairs, args.seconds)
    report["elapsed_s"] = time.time() - started
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
