"""reopt benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload price-base --seed 20240601 --seconds 30 --trace 0
    python3 bench/run.py --workload all              # every workload, one process
    python3 bench/run.py --trace 1                    # per-layer metrics, all workloads
    python3 bench/run.py --gates                      # acceptance wall-clock margins
    python3 bench/run.py --record-golden              # rewrite golden/ from the engine

Run from the repository root (or anywhere: paths are taken from this
file).  The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with a non-zero code and prints
no result.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
environment fingerprint and trace spans are also written to ``bench_out/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SETUP_PROBES = 11
WORKLOAD_NAMES = ("price-base", "sweep-fig3", "oracle-1000", "presets-coarse")


def _import_program() -> None:
    """Put ``src/`` first on the path and make sure reopt comes from there."""
    if not (SRC / "reopt" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure at {SRC / 'reopt'}")
    sys.path.insert(0, str(SRC))
    import reopt

    if Path(reopt.__file__).resolve().parent != (SRC / "reopt").resolve():
        sys.exit(f"bench: reopt imported from {reopt.__file__}, not {SRC}")


def fingerprint(trace: bool) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "reopt").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "trace": trace,
    }


def _percentile_label(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"p50 {statistics.median(samples):.3f} ms"
    q = math.floor(100 * (1 - 10 / n)) if n >= 20 else 0
    if q > 50:
        text += f", p{q} {statistics.quantiles(samples, n=100)[q - 1]:.3f} ms"
    return text + f" (n={n})"


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest reaped
    child: the pool workers, as the set-up probes have not run yet."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def _setup_probe_s(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports reopt and resolves inputs.

    No timeout: with one, ``Popen.wait`` polls in steps of up to 50 ms,
    which would quantise the measurement.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, object]:
    """Timed run of one workload; returns (metrics, extras, check).

    One untimed, checked warm-up pass, then passes while the next one is
    expected to end within ``seconds`` (at least one pass).  Every segment
    of a pass, and every set-up probe, is scaled to reference speed by the
    reference loops timed on either side of it (speed.py); ``wall_s`` is
    the mean scaled pass time and ``setup_s`` the median scaled probe.  The
    plain times are reported among the extras.
    """
    from speed import NOMINAL_S, Meter
    from workloads import WORKERS, WORKLOADS, Check

    wl = WORKLOADS[name](seed, workdir)
    wl.resolve()
    check = Check(wl.golden())
    check.add(wl.run_pass(0))
    meter = Meter()
    wl.pace = meter.pace
    passes, scaled = [], []
    last = 0.0
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) + last < seconds:
        began = time.perf_counter()
        first = len(meter.refs)
        res = wl.run_pass(len(passes) + 1)
        meter.pace()
        scaled.append(sum(meter.scale(res.segments_s, first)))
        check.add(res)
        passes.append(res)
        last = time.perf_counter() - began
    pooled = any(p.busy_ms for p in passes)
    peak = _peak_rss_mb(WORKERS if pooled else 0)
    first = len(meter.refs)
    meter.pace()
    setup = []
    for _ in range(SETUP_PROBES):
        setup.append(_setup_probe_s(name, seed))
        meter.pace()

    wall = sum(p.wall_s for p in passes)
    ops = sum(p.ops for p in passes)
    samples = [s for p in passes for s in p.samples_ms]
    metrics = {
        "setup_s": (statistics.median(meter.scale(setup, first)), "s"),
        "wall_s": (statistics.fmean(scaled), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    extras = {
        "passes": len(passes),
        "valuations": ops,
        "plain_wall_s": wall / len(passes),
        "plain_setup_s": statistics.median(setup),
        "speed": NOMINAL_S / statistics.median(meter.refs),
        "valuation_mean_ms": statistics.fmean(samples),
        "latency": _percentile_label(samples),
        "valuations_per_s": ops / wall,
        "failed_fraction": check.failed / check.attempted,
        "max_abs_dev": check.max_abs_dev,
        "infeasible_points": check.infeasible,
        "setup_probes_s": setup,
        "seed_changes_inputs": wl.uses_seed,
    }
    nodes = sum(p.nodes for p in passes)
    if nodes:
        extras["lattice_mnodes_per_s"] = nodes / 1e6 / wall
    if pooled:
        busy = sum(p.busy_ms for p in passes) / 1e3
        extras["sweep_utilisation"] = busy / (WORKERS * wall)
    if name == "oracle-1000":
        extras["oracle_claims_per_s"] = ops / wall
        extras["oracle_max_gap"] = check.oracle_gap
    return metrics, extras, check


def trace_all(seed: int, workdir: Path) -> tuple[dict, dict, list]:
    """One untraced and one traced pass of every workload, in one process."""
    import numpy as np

    from layers import layer_metrics
    from tracing import NAMES, SpanStats, Tracer
    from workloads import WORKLOADS, Check

    metrics, extras, checks, spans = {}, {}, [], {}
    tracer = Tracer()
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name](seed, workdir)
        wl.resolve()
        check = Check(wl.golden())
        untraced = wl.run_pass(0)
        tracer.install()
        try:
            traced = wl.run_pass(0)
        finally:
            tracer.uninstall()
        check.add(untraced)
        check.add(traced)
        checks.append(check)
        table = tracer.table()
        metrics.update(layer_metrics(name, SpanStats(table), traced, untraced))
        extras[name] = {"spans": len(table), "worker_spans": tracer.worker_spans,
                        "traced_wall_s": traced.wall_s, "untraced_wall_s": untraced.wall_s}
        spans[name] = table
        tracer.reset()
    np.savez_compressed(OUT / f"trace-seed{seed}.npz", names=np.array(NAMES),
                        **{n.replace("-", "_"): t for n, t in spans.items()})
    return metrics, extras, checks


def _report(metrics: dict, extras: dict, checks: list, fp: dict, tag: str) -> None:
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    correct = failed == 0 and attempted > 0
    for name, (value, unit) in metrics.items():
        print(f"{name:55s} {value:14.6g} {unit}")
    for key, value in extras.items():
        print(f"  {key}: {value}")
    for c in checks:
        for problem in c.problems:
            print(f"  FAIL {problem}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "extras": extras, "fingerprint": fp}, fh, indent=1, default=str)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 20240601; held-out seed 1729)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure each workload for about this long (at least one pass)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: traced run of all workloads, per-layer metrics")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--gates", action="store_true", help="acceptance wall-clock margins")
    mode.add_argument("--record-golden", action="store_true", help="rewrite golden/")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.setup_probe:
            wl = WORKLOADS[args.workload](seed, workdir)
            wl.resolve()
            wl.golden()
            return 0
        if args.gates:
            from gates import run_gates

            return run_gates(fingerprint(False), OUT)
        if args.record_golden:
            from golden import record_all

            record_all(workdir)
            return 0
        if args.trace:
            metrics, extras, checks = trace_all(seed, workdir)
            _report(metrics, extras, checks, fingerprint(True), f"trace-seed{seed}")
            return 0
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        metrics, extras, checks = {}, {}, []
        for name in names:
            m, e, c = measure(name, seed, args.seconds, workdir)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            extras.update({prefix + k: v for k, v in e.items()})
            checks.append(c)
        _report(metrics, extras, checks, fingerprint(False), f"{args.workload}-seed{seed}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
