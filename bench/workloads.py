"""The four benchmark workloads: seeded inputs, one pass of work, output checks.

Each workload resolves its inputs once (``resolve``), then runs passes
(``run_pass``).  A pass returns its wall time, one latency sample per
valuation, the lattice nodes it evaluated and the observations that
``Check`` compares against the golden values recorded in ``golden/``.

All calls go through module attributes (``reopt.cli.main``, ...) so that a
tracer installed between passes sees them.  A pass calls ``pace`` before
each timed segment (one call, one preset or ``ORACLE_PACE`` claims) and
records the segment's time in ``segments_s``.  ``pace`` is a no-op unless
the timed run sets it to take a machine-speed reference (see speed.py).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reopt
import reopt.cli
import reopt.experiments
import reopt.indifference

DEFAULT_SEED = 20240601
WORKERS = 2
TOL = 1e-12          # lattice outputs and g against golden values
ORACLE_TOL = 1e-7    # |g - oracle| per claim, as acceptance criterion 1
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# price-base draws from a fixed pool so that every draw has a golden value.
# The pool is 8 equal-width rho strata x 8 draws, made from DEFAULT_SEED;
# each block of 8 calls takes one config from every stratum, so the mix of
# lattice heights (which grow as rho falls) is the same in every block.
PRICE_STRATA = 8
PRICE_PER_STRATUM = 8
PRICE_BLOCKS = 64

# fixed here rather than read from reopt, so a new preset cannot change the workload
PRESETS = ("fig1-left", "fig1-right", "fig2-left", "fig2-right", "fig3", "fig4")
COARSE_DT = 0.02
ORACLE_CLAIMS = 1000
ORACLE_PASS = 250    # claims per pass; four passes make one round of the 1000
ORACLE_PACE = 10     # claims between speed references


@dataclass
class Point:
    """One valuation outcome: option value at V0, time-0 spot threshold,
    and the error kind ("" when the valuation succeeded)."""

    key: str
    v0: float
    threshold: float
    error: str
    note: str = ""  # a reason the output is wrong regardless of the values


@dataclass
class Claim:
    key: str
    g: float
    oracle: float


@dataclass
class PassResult:
    wall_s: float
    samples_ms: list[float]
    ops: int
    nodes: int = 0
    points: list[Point] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    busy_ms: float = 0.0       # sum of per-point wall_ms on sweeps
    csv_bytes: int = 0
    segments_s: list[float] = field(default_factory=list)  # timed time after each pace


def error_kind(message: str) -> str:
    return message.split(":", 1)[0] if message else ""


def load_golden(name: str) -> dict | None:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def _dev(a: float, b: float | None) -> float:
    b = math.nan if b is None else b
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


class Check:
    """Compares observations with golden values and counts the outcomes.

    An expected-infeasible point (golden error kind set) passes when the
    run raises the same kind of error; it is counted in ``infeasible``,
    not in ``failed``.
    """

    def __init__(self, golden: dict | None) -> None:
        self.golden = {p["key"]: p for p in golden["points"]} if golden else {}
        self.attempted = 0
        self.failed = 0
        self.infeasible = 0
        self.max_abs_dev = 0.0
        self.oracle_gap = 0.0
        self.problems: list[str] = []

    def _fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{key}: {why}")

    def point(self, pt: Point) -> None:
        self.attempted += 1
        gold = self.golden.get(pt.key)
        if gold is None:
            self._fail(pt.key, "no golden value")
            return
        if pt.note:
            self._fail(pt.key, pt.note)
            return
        if gold["error"] or pt.error:
            if pt.error != gold["error"]:
                self._fail(pt.key, f"error {pt.error!r}, golden {gold['error']!r}")
            else:
                self.infeasible += 1
            return
        dev = max(_dev(pt.v0, gold["option_value_v0"]), _dev(pt.threshold, gold["threshold_spot_t0"]))
        self.max_abs_dev = max(self.max_abs_dev, dev)
        if dev > TOL:
            self._fail(pt.key, f"deviates from golden by {dev:.3e}")

    def claim(self, c: Claim) -> None:
        self.attempted += 1
        gap = abs(c.g - c.oracle) if math.isfinite(c.g) and math.isfinite(c.oracle) else math.inf
        self.oracle_gap = max(self.oracle_gap, gap)
        dev = 0.0
        gold = self.golden.get(c.key)
        if gold is not None:
            dev = _dev(c.g, gold["g"])
            self.max_abs_dev = max(self.max_abs_dev, dev)
        if gap >= ORACLE_TOL:
            self._fail(c.key, f"|g - oracle| = {gap:.3e}")
        elif dev > TOL:
            self._fail(c.key, f"g deviates from golden by {dev:.3e}")

    def add(self, res: PassResult) -> None:
        for pt in res.points:
            self.point(pt)
        for c in res.claims:
            self.claim(c)


@contextlib.contextmanager
def captured_run_single():
    """Collect the RunResult of each ``reopt price`` call; the CLI prints
    12 digits, the golden check needs all 17."""
    inner = reopt.cli.run_single
    seen = []

    def capture(*args, **kwargs):
        res = inner(*args, **kwargs)
        seen.append(res)
        return res

    reopt.cli.run_single = capture
    try:
        yield seen
    finally:
        reopt.cli.run_single = inner


def _lattice_nodes(m: int, n: int) -> int:
    return (2 * m + 1) * (n + 1)


class Workload:
    name = ""
    uses_seed = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def golden(self) -> dict | None:
        return load_golden(self.name)

    def pace(self) -> None:
        """Called before each timed segment, outside the timed intervals."""

    def resolve(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# price-base
# ---------------------------------------------------------------------------


def price_pool() -> list[tuple[float, float]]:
    """(rho, gamma) pairs: rho uniform within each of 8 strata of
    [-0.99, 0.99], gamma log-uniform on [0.1, 10]."""
    rng = np.random.default_rng(DEFAULT_SEED)
    edges = np.linspace(-0.99, 0.99, PRICE_STRATA + 1)
    pool = []
    for k in range(PRICE_STRATA):
        for _ in range(PRICE_PER_STRATUM):
            rho = float(rng.uniform(edges[k], edges[k + 1]))
            gamma = float(10.0 ** rng.uniform(-1.0, 1.0))
            pool.append((rho, gamma))
    return pool


def price_blocks(seed: int) -> list[list[int]]:
    """Blocks of pool indices, one per stratum, in seeded order."""
    rng = np.random.default_rng(seed)
    blocks = []
    while len(blocks) < PRICE_BLOCKS:
        perms = [rng.permutation(PRICE_PER_STRATUM) for _ in range(PRICE_STRATA)]
        for b in range(PRICE_PER_STRATUM):
            block = [k * PRICE_PER_STRATUM + int(perms[k][b]) for k in range(PRICE_STRATA)]
            blocks.append([block[i] for i in rng.permutation(PRICE_STRATA)])
    return blocks


class PriceBase(Workload):
    """In-process ``reopt price`` calls on base-market configs at dt = 1/900."""

    name = "price-base"

    def resolve(self) -> None:
        self.pool = price_pool()
        self.blocks = price_blocks(self.seed)
        self.paths = []
        for i, (rho, gamma) in enumerate(self.pool):
            path = self.workdir / f"price-{i}.json"
            path.write_text(json.dumps({"project": {"rho": rho}, "option": {"gamma": gamma}}))
            self.paths.append(str(path))

    def run_indices(self, indices: list[int]) -> PassResult:
        samples, points, nodes, segments = [], [], 0, []
        out, err = io.StringIO(), io.StringIO()
        with captured_run_single() as seen, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            for i in indices:
                self.pace()
                out.seek(0)
                out.truncate()
                before = len(seen)
                start = time.perf_counter()
                code = reopt.cli.main(["price", "--config", self.paths[i]])
                elapsed = time.perf_counter() - start
                segments.append(elapsed)
                if len(seen) == before:
                    points.append(Point(f"pool-{i}", math.nan, math.nan, "",
                                        note=f"exit code {code} before valuation"))
                    continue
                res = seen[-1]
                pt = Point(f"pool-{i}", res.option_value_v0, res.threshold_spot_t0, error_kind(res.error))
                if res.error:
                    if code != reopt.cli.EXIT_INFEASIBLE:
                        pt.note = f"exit code {code} for an infeasible config"
                else:
                    samples.append(elapsed * 1e3)
                    nodes += _lattice_nodes(res.m, res.n)
                    printed = out.getvalue().splitlines()
                    want = [f"option_value_v0   = {res.option_value_v0:.12g}",
                            f"threshold_spot_t0 = {res.threshold_spot_t0:.12g}"]
                    if code != reopt.cli.EXIT_OK or printed[:2] != want:
                        pt.note = f"exit code {code}, printed {printed[:2]}"
                points.append(pt)
        return PassResult(sum(segments), samples, len(indices), nodes, points,
                          segments_s=segments)

    def run_pass(self, index: int) -> PassResult:
        return self.run_indices(self.blocks[index % len(self.blocks)])


# ---------------------------------------------------------------------------
# sweep-fig3
# ---------------------------------------------------------------------------


def _sweep_points(prefix: str, results) -> tuple[list[Point], list[float], int, float]:
    points, samples, nodes, busy = [], [], 0, 0.0
    for i, res in enumerate(results):
        points.append(Point(f"{prefix}/{i}", res.option_value_v0, res.threshold_spot_t0,
                            error_kind(res.error)))
        busy += res.wall_ms
        if not res.error:
            samples.append(res.wall_ms)
            nodes += _lattice_nodes(res.m, res.n)
    return points, samples, nodes, busy


class SweepFig3(Workload):
    """The fig3 preset (threshold vs maturity) at dt = 1/900 on a 2-worker pool.
    Its inputs are the published preset, so the seed does not change them."""

    name = "sweep-fig3"
    uses_seed = False

    def resolve(self) -> None:
        self.n_points = sum(len(s.values) for s in reopt.experiments.build_preset("fig3"))

    def run_pass(self, index: int) -> PassResult:
        self.pace()
        start = time.perf_counter()
        results = reopt.experiments.run_preset("fig3", workers=WORKERS)
        wall = time.perf_counter() - start
        points, samples, nodes, busy = _sweep_points("fig3", results)
        return PassResult(wall, samples, len(results), nodes, points, busy_ms=busy,
                          segments_s=[wall])


# ---------------------------------------------------------------------------
# oracle-1000
# ---------------------------------------------------------------------------


def oracle_claims(seed: int, count: int = ORACLE_CLAIMS) -> list[tuple]:
    """Acceptance criterion 1's sampler: (payoff, calibration, utility, x0)."""
    rng = np.random.default_rng(seed)
    claims = []
    while len(claims) < count:
        market = reopt.MarketParams(
            mu1=float(rng.uniform(-0.05, 0.2)),
            sigma1=float(rng.uniform(0.1, 0.5)),
            mu2=float(rng.uniform(-0.1, 0.2)),
            sigma2=float(rng.uniform(0.1, 0.5)),
            rho=float(rng.uniform(-0.9, 0.9)),
            r=float(rng.uniform(0.0, 0.08)),
        )
        dt = float(rng.uniform(0.02, 1.0))
        try:
            cal = reopt.calibrate(market, dt)
        except reopt.CalibrationInfeasible:
            continue
        util = reopt.UtilityParams(float(10.0 ** rng.uniform(-2.0, 1.5)))
        pay = reopt.PayoffPair(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        x0 = float(rng.uniform(-5.0, 5.0))
        claims.append((pay, cal, util, x0))
    return claims


class Oracle1000(Workload):
    """1000 one-period claims through g_value and the numeric oracle,
    ``ORACLE_PASS`` claims per pass."""

    name = "oracle-1000"

    def golden(self) -> dict | None:
        gold = load_golden(self.name)
        return gold if gold is not None and gold["seed"] == self.seed else None

    def resolve(self) -> None:
        self.claims = oracle_claims(self.seed)

    def run_claims(self, indices) -> PassResult:
        ind = reopt.indifference
        samples, claims, segments = [], [], []
        for n, i in enumerate(indices):
            if n % ORACLE_PACE == 0:
                self.pace()
                segments.append(0.0)
            pay, cal, util, x0 = self.claims[i]
            start = time.perf_counter()
            g = ind.g_value(pay, cal, util)
            oracle = ind.numeric_indifference_price(pay, cal, util, x0=x0)
            elapsed = time.perf_counter() - start
            segments[-1] += elapsed
            samples.append(elapsed * 1e3)
            claims.append(Claim(f"claim-{i}", g, oracle))
        return PassResult(sum(segments), samples, len(claims), claims=claims, segments_s=segments)

    def run_pass(self, index: int) -> PassResult:
        first = index * ORACLE_PASS % len(self.claims)
        return self.run_claims(range(first, first + ORACLE_PASS))


# ---------------------------------------------------------------------------
# presets-coarse
# ---------------------------------------------------------------------------


def read_sweep_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        fh.readline()  # config hash comment
        return list(csv.DictReader(fh))


def _csv_float(text: str) -> float:
    return float(text) if text else math.nan


class PresetsCoarse(Workload):
    """``reopt sweep --preset <each> --dt 0.02 --workers 2``, CSVs to a temp dir.
    The six presets are fixed, so the seed does not change the inputs."""

    name = "presets-coarse"
    uses_seed = False

    def resolve(self) -> None:
        self.outdir = self.workdir / "presets"
        self.outdir.mkdir(exist_ok=True)
        self.argv = {
            p: ["sweep", "--preset", p, "--dt", str(COARSE_DT), "--workers", str(WORKERS),
                "--out", str(self.outdir / f"{p}.csv")]
            for p in PRESETS
        }

    def run_pass(self, index: int) -> PassResult:
        codes, segments = {}, []
        with contextlib.redirect_stdout(io.StringIO()):
            for p in PRESETS:
                self.pace()
                start = time.perf_counter()
                codes[p] = reopt.cli.main(self.argv[p])
                segments.append(time.perf_counter() - start)
        points, samples, nodes, busy = [], [], 0, 0.0
        for p in PRESETS:
            for i, row in enumerate(read_sweep_rows(self.outdir / f"{p}.csv")):
                flags = row["anomaly_flags"]
                err = flags[len("error:"):] if flags.startswith("error:") else ""
                pt = Point(f"{p}/{i}", _csv_float(row["option_value_v0"]),
                           _csv_float(row["threshold_spot_t0"]), err)
                if codes[p] != reopt.cli.EXIT_OK:
                    pt.note = f"exit code {codes[p]}"
                points.append(pt)
                wall_ms = float(row["wall_ms"])
                busy += wall_ms
                if not err:
                    samples.append(wall_ms)
                    nodes += _lattice_nodes(int(row["M"]), int(row["N"]))
        size = sum(os.path.getsize(f) for f in self.outdir.iterdir())
        return PassResult(sum(segments), samples, len(points), nodes, points, busy_ms=busy,
                          csv_bytes=size, segments_s=segments)


WORKLOADS = {w.name: w for w in (PriceBase, SweepFig3, Oracle1000, PresetsCoarse)}
