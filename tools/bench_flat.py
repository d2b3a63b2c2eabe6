"""Measure flat stacked inductions against a parent checkout; write BENCH_flat.json.

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/bench_flat.py --parent /tmp/parent [--change .] [--pairs 10]

Four parts, each skippable with ``--skip``; every timing alternates the
side that runs first, each side in a fresh process:

``induce``     ``backward_induce`` of the base lattice (rho 0.5, gamma 1,
               dt = 1/900), per column µs: one lattice alone.
``presets``    ``run_preset`` of every preset on 1 and 2 workers, at the
               default dt 1/900 and at 0.02.
``csv``        every file ``reopt sweep --preset`` writes (the preset CSV
               and fig4's value curves) at the default dt and at 0.02 on 1,
               2 and 3 workers, and at dt = 0.003 on 1 worker:
               byte-identical to the parent's, ``wall_ms`` masked.
``bench``      ``bench/run.py --seconds <s> --trace 0`` on price-base,
               presets-coarse and oracle-1000, ``--pairs`` alternating
               pairs per workload, the pairs split between ``--seeds``;
               each side runs its own bench/ and src/.

Timings are wall-clock on whatever machine runs this; the JSON records
its CPU and the numpy version.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_check import _INDUCE, timed_script  # noqa: E402
from bench_stacks import PRESETS, ROOT, _CSV, _masked, _python, bench_pairs, presets  # noqa: E402


def csv_identity(parent: Path, change: Path) -> list[dict]:
    """Every file of each preset's sweep, parent against change."""
    cases = [(dt, w) for dt in (None, 0.02) for w in (1, 2, 3)] + [(0.003, 1)]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for dt, workers in cases:
            for preset in PRESETS:
                files = []
                for side, name in ((parent, "parent"), (change, "change")):
                    folder = Path(tmp) / f"{name}-{preset}-{dt}-{workers}"
                    folder.mkdir()
                    _python(side, _CSV, preset, str(workers), str(dt), str(folder / "sweep.csv"))
                    files.append({
                        path.name: _masked(path) if path.name == "sweep.csv" else path.read_text()
                        for path in sorted(folder.iterdir())
                    })
                rows.append({"preset": preset, "dt": dt, "workers": workers,
                             "files": len(files[0]), "rows": len(files[0]["sweep.csv"]) - 2,
                             "same_bytes": files[0] == files[1]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout (git archive)")
    parser.add_argument("--change", type=Path, default=ROOT, help="this change's checkout")
    parser.add_argument("--pairs", type=int, default=10, help="bench/run.py pairs per workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=[20240601, 1729],
                        help="bench/run.py --seed of the pairs, taken in turn")
    parser.add_argument("--seconds", type=float, default=10.0, help="bench/run.py --seconds")
    parser.add_argument("--rounds", type=int, default=4, help="alternating rounds of the timings")
    parser.add_argument("--skip", nargs="*", default=(),
                        choices=("induce", "presets", "csv", "bench"))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_flat.json")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()

    import numpy

    report = {
        "topic": "flat",
        "hardware": {"cpu": platform.processor() or platform.machine(),
                     "python": platform.python_version(), "numpy": numpy.__version__},
        "commands": {"script": "python3 tools/bench_flat.py " + " ".join(argv or sys.argv[1:])},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        report["hardware"]["cpu"], report["hardware"]["nproc"] = names[0], len(names)
    except (OSError, IndexError):
        pass
    started = time.time()
    if "induce" not in args.skip:
        report["induce"] = timed_script(parent, change, _INDUCE, 2 * args.rounds, 5)
    if "presets" not in args.skip:
        report["presets"] = presets(parent, change, args.rounds, 2)
    if "csv" not in args.skip:
        report["csv"] = csv_identity(parent, change)
        report["csv_all_same"] = all(row["same_bytes"] for row in report["csv"])
    if "bench" not in args.skip:
        report["bench"] = bench_pairs(parent, change, args.pairs, args.seconds, args.seeds)
    report["elapsed_s"] = time.time() - started
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
