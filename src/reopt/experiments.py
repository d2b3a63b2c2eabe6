"""Parameter-study harness: configs, sweeps, figure presets, CSV output.

A single JSON document resolves to a full parameter set (market, project,
option, grid).  The project drift ``mu2`` or the rate-of-return shortfall
``delta`` is given (both only if consistent); the other is derived through
the equilibrium relation.  Sweeps vary one parameter at a time and resolve
every point the same way: when the project was specified through
``delta``, or when ``delta`` itself is swept, ``mu2`` is re-derived at
every point so that the shortfall stays fixed.

Named presets rebuild the standard parameter studies (threshold versus
correlation, risk aversion, volatility, shortfall and maturity, plus the
value-curve pair) on the base parameter set I = 1, r = 0.04, T = 10,
mu1 = 0.115, sigma1 = 0.25, V0 = 1, sigma2 = 0.2, delta = 0.04,
dt = 1/900.  The traded asset enters only through its returns, so it has
no initial-level field.

Sweep points are independent pure computations; the points of all sweeps
that share a time step are induced together, and the sweep process and
forked children can share the jobs out, largest first.  The
output is deterministic regardless of the worker count (results are
reassembled in swept-value order).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any

import numpy as np

from .calibration import LatticeCalibration, MarketParams, calibrate, capm_equilibrium_rate
from .lattice import (
    GridSpec,
    GridStack,
    OptionSpec,
    Solution,
    ThresholdCurve,
    build_grid,
    solve,
    solve_stack,
    value_curve,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepSpec",
    "RunResult",
    "parse_config",
    "config_hash",
    "run_single",
    "run_sweep",
    "run_preset",
    "preset_names",
    "build_preset",
    "write_sweep_csv",
]

BASE_DT = 1.0 / 900.0

_SWEEPABLE = ("rho", "gamma", "sigma2", "delta", "maturity")
_OUTPUTS = ("threshold_at_t0", "threshold_curve", "value_curve")

SWEEP_COLUMNS = [
    "swept_name",
    "swept_value",
    "rho",
    "gamma",
    "sigma2",
    "delta",
    "maturity",
    "dt",
    "M",
    "N",
    "threshold_spot_t0",
    "option_value_v0",
    "anomaly_flags",
    "wall_ms",
]

THRESHOLD_CURVE_COLUMNS = [
    "n",
    "t",
    "time_to_maturity",
    "threshold_discounted",
    "threshold_spot",
    "resolution_halfwidth",
]

VALUE_CURVE_COLUMNS = ["V_spot", "option_value", "exercise_value"]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


_REQUIRED = object()

# Every config field as (section, key, default, domain).  The table drives
# parsing, the missing- and unknown-field checks and RunConfig.as_dict;
# check_field enforces the domains for the parser, sweeps and the CLI.
# Keys are unique across sections.
_FIELDS = (
    ("market", "mu1", 0.115, "real"),
    ("market", "sigma1", 0.25, "positive"),
    ("market", "v0", 1.0, "positive"),
    ("market", "r", 0.04, "real"),
    ("project", "rho", _REQUIRED, "correlation"),
    ("project", "sigma2", 0.2, "positive"),
    ("project", "mu2", None, "real"),
    ("project", "delta", 0.04, "real"),
    ("option", "cost", 1.0, "positive"),
    ("option", "cost_growth", 0.0, "real"),
    ("option", "maturity", 10.0, "positive"),
    ("option", "gamma", _REQUIRED, "positive"),
    ("grid", "dt", BASE_DT, "positive"),
    ("grid", "p_tol", 0.0, "nonnegative"),
)
_DOMAIN = {key: domain for _, key, _, domain in _FIELDS}
_SECTION_KEYS = {
    section: tuple(key for s, key, _, _ in _FIELDS if s == section)
    for section in ("market", "project", "option", "grid")
}
_SECTION_KEYS["sweep"] = ("name", "values", "range", "outputs")
_RANGE_KEYS = ("start", "stop", "count")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one valuation."""

    market: MarketParams
    option: OptionSpec
    dt: float
    delta: float
    delta_fixed: bool = True
    p_tol: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        holders = {"market": self.market, "project": self.market, "option": self.option}
        doc: dict[str, Any] = {}
        for section, key, _, _ in _FIELDS:
            holder = self if key == "delta" else holders.get(section, self)
            doc.setdefault(section, {})[key] = getattr(holder, key)
        return doc

    def field_values(self) -> dict[str, Any]:
        """Every config field by key (keys are unique across sections)."""
        return {key: v for section in self.as_dict().values() for key, v in section.items()}


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter study around a resolved base configuration.

    The only check of swept values and outputs, from a config file or from
    code.  Stored canonically, so every spelling of a run hashes alike:
    values ascending; ``threshold_at_t0``, then any named curves, once each.
    """

    name: str
    values: tuple[float, ...]
    base: RunConfig
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.name not in _SWEEPABLE:
            raise ConfigError(f"sweep.name must be one of {_SWEEPABLE}, got {self.name!r}")
        if not isinstance(self.values, (list, tuple)) or not self.values:
            raise ConfigError(f"sweep.values must be a non-empty list, got {self.values!r}")
        if not isinstance(self.outputs, (list, tuple)):
            raise ConfigError(f"sweep.outputs must be a list, got {self.outputs!r}")
        for out in self.outputs:
            if out not in _OUTPUTS:
                raise ConfigError(f"sweep.outputs: {out!r} not in {_OUTPUTS}")
        values = tuple(
            check_field(self.name, v, f"sweep.values[{i}]") for i, v in enumerate(self.values)
        )
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep.values must not repeat a value, got {list(values)!r}")
        object.__setattr__(self, "values", tuple(sorted(values)))
        named = (out for out in _OUTPUTS[1:] if out in self.outputs)
        object.__setattr__(self, "outputs", (_OUTPUTS[0], *named))


@dataclass
class RunResult:
    """Outcome of one valuation: the resolved configuration it ran, and
    the half height ``m`` and step count ``n`` of its grid (NaN when the
    grid could not be laid out).  ``wall_ms`` is the time spent on it.
    The points of a job of :func:`run_sweep` that solves K of them in one
    induction each carry 1/K of that job's time, less what its error
    rows, which keep their own time, took."""

    swept_name: str
    swept_value: float
    config: RunConfig
    m: int | float = math.nan
    n: int | float = math.nan
    threshold_spot_t0: float = math.nan
    option_value_v0: float = math.nan
    anomaly_flags: str = ""
    wall_ms: float = math.nan
    error: str = ""
    threshold_curve: ThresholdCurve | None = None
    value_points: np.ndarray | None = None


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{path} must be finite")
    return float(value)


def check_field(key: str, value, path: str) -> float:
    """Check one value of config field ``key`` against the field's domain
    and return it as a float; ``path`` names the value in the error."""
    domain = _DOMAIN[key]
    v = _number(value, path)
    if domain == "correlation" and not -1.0 <= v <= 1.0:
        raise ConfigError(f"{path}: {key} must lie in [-1, 1], got {v}")
    if domain == "positive" and v <= 0.0:
        raise ConfigError(f"{path}: {key} must be positive, got {v}")
    if domain == "nonnegative" and v < 0.0:
        raise ConfigError(f"{path}: {key} must be nonnegative, got {v}")
    return v


def _section(value, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown field {path}.{key}")
    return value


def _require(missing: list[str]) -> None:
    if missing:
        raise ConfigError("missing required fields: " + ", ".join(missing))


def _resolve(val: dict[str, Any], delta_fixed: bool) -> RunConfig:
    """Build the RunConfig for one flat set of field values (keyed as in
    the field table).

    With ``delta_fixed`` the shortfall ``delta`` is held and ``mu2`` is
    derived from it, unless ``val`` gives a ``mu2``, which must then agree
    with it; otherwise ``mu2`` is held and ``delta`` is derived.
    """
    rate = capm_equilibrium_rate(val["mu1"], val["sigma1"], val["sigma2"], val["rho"], val["r"])
    mu2, delta = val["mu2"], val["delta"]
    if not delta_fixed:
        delta = rate - mu2
    else:
        implied = rate - delta
        if mu2 is None:
            mu2 = implied
        elif abs(implied - mu2) > 1e-12:
            raise ConfigError(
                f"project.mu2={mu2} and project.delta={delta} are inconsistent "
                f"(delta implies mu2={implied})"
            )
    if not (math.isfinite(mu2) and math.isfinite(delta)):
        raise ConfigError(
            f"project.mu2={mu2} and project.delta={delta} must be finite: the equilibrium "
            f"return at mu1={val['mu1']}, sigma1={val['sigma1']}, sigma2={val['sigma2']}, "
            f"rho={val['rho']}, r={val['r']} is {rate}"
        )
    return RunConfig(
        market=MarketParams(
            mu1=val["mu1"], sigma1=val["sigma1"], mu2=mu2, sigma2=val["sigma2"], rho=val["rho"],
            r=val["r"], v0=val["v0"],
        ),
        option=OptionSpec(
            cost=val["cost"], maturity=val["maturity"], gamma=val["gamma"],
            cost_growth=val["cost_growth"],
        ),
        dt=val["dt"],
        delta=delta,
        delta_fixed=delta_fixed,
        p_tol=val["p_tol"],
    )


def parse_config(text: str) -> tuple[RunConfig, SweepSpec | None]:
    """Resolve a JSON configuration into a RunConfig and optional sweep.

    Defaults mirror the base parameter study, so a minimal document needs
    only ``project.rho`` and ``option.gamma``; unknown sections and fields
    are rejected.  ``project.mu2`` or ``project.delta`` may be given, or
    both if consistent; a missing one is derived through the equilibrium
    relation and echoed in the result rows.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    for name, value in raw.items():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown top-level section {name!r}")
        _section(value, name, _SECTION_KEYS[name])

    _require([
        f"{section}.{key}"
        for section, key, default, _ in _FIELDS
        if default is _REQUIRED and key not in raw.get(section, {})
    ])
    val = {}
    for section, key, default, _ in _FIELDS:
        given = raw.get(section, {})
        val[key] = check_field(key, given[key], f"{section}.{key}") if key in given else default
    project = raw.get("project", {})
    base = _resolve(val, delta_fixed="delta" in project or "mu2" not in project)

    if "sweep" not in raw:
        return base, None
    sec = raw["sweep"]
    if "name" not in sec:
        _require(["sweep.name"])
    if ("values" in sec) == ("range" in sec):
        raise ConfigError("sweep needs exactly one of values or range (sweep.values, sweep.range)")
    values = sec.get("values")
    if "range" in sec:
        rng = _section(sec["range"], "sweep.range", _RANGE_KEYS)
        _require([f"sweep.range.{key}" for key in _RANGE_KEYS if key not in rng])
        count = rng["count"]
        if not isinstance(count, int) or isinstance(count, bool) or not 1 <= count <= 10**6:
            raise ConfigError("sweep.range.count must be an integer from 1 to 10**6")
        start = _number(rng["start"], "sweep.range.start")
        values = np.linspace(start, _number(rng["stop"], "sweep.range.stop"), count).tolist()
    return base, SweepSpec(sec["name"], values, base, sec.get("outputs", ()))


def config_hash(cfg: RunConfig, sweep: SweepSpec | None = None) -> str:
    """Stable hash of the fully resolved parameter set."""
    payload = cfg.as_dict()
    if not cfg.delta_fixed:
        # mu2 is held and delta derived from it, so delta is not an input
        payload["project"]["delta"] = None
    if sweep is not None:
        payload["sweep"] = {
            "name": sweep.name,
            "values": list(sweep.values),
            "outputs": list(sweep.outputs),
        }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _point_config(spec: SweepSpec, value: float) -> RunConfig:
    """Resolve the configuration at one swept value.

    A shortfall-specified project, or any ``delta`` sweep, holds delta
    and re-derives mu2 at every point; a drift-specified project holds
    mu2 and lets delta float.
    """
    val = spec.base.field_values()
    val[spec.name] = value
    delta_fixed = spec.base.delta_fixed or spec.name == "delta"
    if delta_fixed:
        val["mu2"] = None
    return _resolve(val, delta_fixed)


class _Stack:
    """The points of one job of :func:`run_sweep`, with the grid and
    calibration that the sweep built for each (either one the ValueError
    it raised, which the point gets when it asks), solved in one induction
    and handed out by point.  A point whose calibration has a zero or
    signed weight is induced alone inside that induction (see
    :func:`backward_induce`).  If the stacked solve fails (where g fails
    at some point only), every point solves on its own and so gets its own
    result or error.
    """

    def __init__(self, built: dict[RunConfig, tuple]):
        self.built = built
        self.solutions: dict[RunConfig, Solution] | None = None

    def grid(self, cfg: RunConfig) -> GridSpec:
        grid, _ = self.built[cfg]
        if isinstance(grid, ValueError):
            raise grid
        return grid

    def solve(self, cfg: RunConfig) -> Solution:
        grid, cal = self.built[cfg]
        if isinstance(cal, ValueError):
            raise cal
        if self.solutions is None:
            lattices = {
                point: (g, c, point.option)
                for point, (g, c) in self.built.items()
                if isinstance(c, LatticeCalibration)
            }
            grids, cals, options = zip(*lattices.values())
            try:
                solved = solve_stack(GridStack(grids), cals, options)
            except ValueError:
                solved = []
            self.solutions = dict(zip(lattices, solved))
        sol = self.solutions.pop(cfg, None)
        return solve(cfg.market, cfg.option, grid, cfg.p_tol) if sol is None else sol


def run_single(
    cfg: RunConfig,
    outputs: tuple[str, ...] = (),
    swept_name: str = "",
    swept_value: float = math.nan,
    stack: _Stack | None = None,
) -> RunResult:
    """Build, solve and summarize one lattice; errors become result rows.
    ``stack`` is set by :func:`run_sweep`: the point's job, which holds
    its grid and calibration and solves the job's points in one
    induction."""
    start = time.perf_counter()
    result = RunResult(swept_name, swept_value, cfg)
    try:
        grid = build_grid(cfg.market, cfg.option, cfg.dt) if stack is None else stack.grid(cfg)
        result.m, result.n = grid.half_height, grid.n_steps
        sol = solve(cfg.market, cfg.option, grid, cfg.p_tol) if stack is None else stack.solve(cfg)
    except ValueError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        result.anomaly_flags = f"error:{type(exc).__name__}"
        return result
    finally:
        result.wall_ms = (time.perf_counter() - start) * 1e3
    curve = sol.curve
    result.threshold_spot_t0 = curve.spot_t0
    result.option_value_v0 = float(sol.values.values_t0[grid.half_height])
    columns = (
        ("anomalous_columns", curve.anomalous),
        ("no_exercise_columns", curve.no_exercise),
        ("ladder_bottom_columns", curve.ladder_bottom),
    )
    result.anomaly_flags = ";".join(f"{flag}={int(c.sum())}" for flag, c in columns if c.any())
    if "threshold_curve" in outputs:
        result.threshold_curve = curve
    if "value_curve" in outputs:
        result.value_points = value_curve(sol.values, grid, cfg.option)
    return result


# A sweep point, (config, outputs, swept name, swept value), and the
# (grid, calibration) the sweep built for it, either one the ValueError it raised
_Point = tuple[RunConfig, tuple[str, ...], str, float, tuple]


def _sweep_job(points: list[_Point]) -> list[RunResult]:
    """Run a job's points in one induction; each error row keeps its own
    time, and the other rows share the rest of the job's time, so a job's
    rows add up to its real time."""
    start = time.perf_counter()
    stack = _Stack({point[0]: point[4] for point in points})
    results = [run_single(*point[:4], stack=stack) for point in points]
    solved = [result for result in results if not result.error]
    if solved:
        spent_ms = (time.perf_counter() - start) * 1e3
        each_ms = (spent_ms - sum(r.wall_ms for r in results if r.error)) / len(solved)
        for result in solved:
            result.wall_ms = each_ms
    return results


def _build(configs: list[RunConfig]) -> list[tuple]:
    """Each point's (grid, calibration), either one the ValueError it
    raised; points that share a market, a step and p_tol share one
    calibration."""
    built, cals = [], {}
    for cfg in configs:
        try:
            grid = build_grid(cfg.market, cfg.option, cfg.dt)
        except ValueError as exc:
            built.append((exc, None))
            continue
        key = (cfg.market, grid.dt, cfg.p_tol)
        if key not in cals:
            try:
                cals[key] = calibrate(*key)
            except ValueError as exc:
                cals[key] = exc
        built.append((grid, cals[key]))
    return built


def _exit_with_parent() -> None:
    """End this sweep child once the sweep process that started it is gone
    (e.g. killed by a signal), not its OS parent, which under "forkserver"
    is the fork server; it outlives the sweep.  Otherwise the child would
    run on to the end of the sweep for nobody."""
    sweep = multiprocessing.parent_process()

    def watch():
        sweep.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


_Done = list[tuple[int, list[RunResult]]]


def _claim_jobs(jobs: list, order: list[int], counter) -> _Done:
    """Run the jobs at the positions of ``order`` that the shared counter
    hands out, until it has handed out all of them; returns each job run
    here with its index in ``jobs``."""
    done = []
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= len(order):
            return done
        done.append((order[k], _sweep_job(jobs[order[k]])))


def _sweep_child(jobs: list, order: list[int], counter, conn) -> None:
    """A sweep child: claim jobs until none is left, then send what it ran
    in one message.  A job that raises ends the claiming in every process
    and is sent instead, with its traceback."""
    _exit_with_parent()
    try:
        reply = _claim_jobs(jobs, order, counter)
    except Exception as exc:
        with counter.get_lock():
            counter.value = len(order)
        reply = (exc, traceback.format_exc())
    conn.send(reply)


def _run_with_children(jobs: list, order: list[int], children: int) -> _Done:
    """Run the jobs on this process and ``children`` child processes, all
    claiming them in ``order`` from one shared counter.  Replies are read,
    child by child, only until every job's rows are in: the counter hands
    out each job once, so a child still running then (e.g. still starting
    under "spawn") has nothing to send, and a failure in its start-up goes
    unreported; a jobless child read before one with a job is waited for.
    Every child is terminated and joined before this returns or raises."""
    ctx = multiprocessing.get_context()
    counter = ctx.Value("i", 0)
    started = []
    try:
        for _ in range(children):
            recv, send = ctx.Pipe(duplex=False)
            try:
                child = ctx.Process(target=_sweep_child, args=(jobs, order, counter, send))
                child.start()
            finally:
                # a later child must not hold this end, or the pipe would
                # not close when this child dies
                send.close()
            started.append((child, recv))
        done = _claim_jobs(jobs, order, counter)
        # receive before joining: a child blocks in send until its whole
        # message is read
        for child, recv in started:
            if len(done) == len(order):
                break
            try:
                reply = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"sweep worker {child.name} (pid {child.pid}) exited with code "
                    f"{child.exitcode} before sending its results"
                ) from None
            if isinstance(reply, tuple):
                exc, trace = reply
                raise exc from RuntimeError(f"in sweep worker {child.name}:\n{trace}")
            done += reply
    finally:
        for child, recv in started:
            child.terminate()  # does nothing to a child that has exited
            child.join()
            recv.close()
    return done


def run_sweep(*specs: SweepSpec, workers: int = 1) -> list[RunResult]:
    """Run every swept value of every spec; per-point failures become
    error rows.

    The sweep process builds every point's grid and calibration, once
    each (see ``_build``), and hands them to the jobs.  The points of all
    specs whose grids share the step, and that share r, the cost and its
    growth, see the same strikes, so they are one job, solved in one
    induction (see :func:`backward_induce`): every preset is one job at
    the default step.  While there are fewer jobs than processes, the
    largest job of several points splits into two halves of consecutive
    points.  A job's size is the sum of its points' lattice nodes, 0 for
    a point whose grid or calibration fails.  With ``workers > 1`` the
    jobs run on the sweep process and on ``workers - 1`` child processes,
    at most one process per job of nonzero size and per usable CPU; every
    process takes the next job, largest first, so that no long job starts
    last.  Results come back spec by spec, each ordered by swept value,
    regardless of scheduling, and the numbers are identical for any worker
    count.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    points = [(_point_config(s, v), s.outputs, s.name, v) for s in specs for v in s.values]
    built = _build([point[0] for point in points])
    groups = {}  # the indices of the points of each job
    for i, ((cfg, *_), (grid, _)) in enumerate(zip(points, built)):
        option = cfg.option
        step = None if isinstance(grid, ValueError) else grid.dt
        groups.setdefault((step, option.cost, option.cost_growth, cfg.market.r), []).append(i)
    indices = list(groups.values())
    nodes = [
        grid.n_rows * (grid.n_steps + 1) if isinstance(cal, LatticeCalibration) else 0
        for grid, cal in built
    ]
    size = lambda job: sum(nodes[i] for i in job)
    processes = min(workers, _usable_cpus())
    while len(indices) < processes and max(map(len, indices), default=0) > 1:
        j = max(range(len(indices)), key=lambda j: (len(indices[j]) > 1, size(indices[j])))
        half = len(indices[j]) // 2
        indices[j : j + 1] = [indices[j][:half], indices[j][half:]]
    jobs = [[(*points[i], built[i]) for i in job] for job in indices]
    if processes > 1:  # a job of error rows alone starts no child
        processes = min(processes, sum(size(job) > 0 for job in indices))
    if processes <= 1:
        done = [_sweep_job(job) for job in jobs]
    else:
        order = sorted(range(len(jobs)), key=lambda j: -size(indices[j]))
        by_job = dict(_run_with_children(jobs, order, processes - 1))
        done = [by_job[j] for j in range(len(jobs))]
    results = [None] * len(points)
    for job, rows in zip(indices, done):
        for i, row in zip(job, rows):
            results[i] = row
    return results


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


# Each preset as (swept field, swept values, (rho, gamma) of each base
# config, outputs beyond the time-0 threshold); every base config is the
# default parameter set at those two values.
_PRESETS = {
    # threshold vs correlation at gamma = 1
    "fig1-left": ("rho", tuple(np.linspace(-0.99, 0.99, 21).tolist()), ((0.0, 1.0),), ()),
    # threshold vs risk aversion at rho in {0, 0.5, 0.9}
    "fig1-right": (
        "gamma", (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0), ((0.0, 1.0), (0.5, 1.0), (0.9, 1.0)), ()
    ),
    # threshold vs project volatility
    "fig2-left": ("sigma2", (0.1, 0.15, 0.2, 0.25, 0.3), ((0.5, 1.0),), ()),
    # threshold vs shortfall rate
    "fig2-right": ("delta", (0.02, 0.04, 0.06, 0.08), ((0.5, 1.0),), ()),
    # threshold vs maturity at three (rho, gamma) pairs
    "fig3": (
        "maturity", (1.0, 2.0, 5.0, 10.0, 20.0, 40.0), ((0.9, 0.01), (0.5, 1.0), (0.0, 10.0)), ()
    ),
    # time-0 value curves and thresholds at rho in {0, 0.99}, gamma = 10
    # (the risk aversion that reproduces the published pair 1.1972 / 1.7507)
    "fig4": ("rho", (0.0, 0.99), ((0.0, 10.0),), ("value_curve",)),
}


def build_preset(name: str, dt: float | None = None) -> list[SweepSpec]:
    """Materialize the named figure preset (see ``_PRESETS``) as sweep
    specs; ``dt`` overrides the default step 1/900, e.g. for quick runs."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    swept, values, bases, extra = _PRESETS[name]
    grid = {"dt": BASE_DT if dt is None else dt}
    specs = []
    for rho, gamma in bases:
        doc = {"project": {"rho": rho}, "option": {"gamma": gamma}, "grid": grid}
        base, _ = parse_config(json.dumps(doc))
        specs.append(SweepSpec(swept, values, base, extra))
    return specs


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def run_preset(name: str, workers: int = 1, dt: float | None = None) -> list[RunResult]:
    return run_sweep(*build_preset(name, dt), workers=workers)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.17g}"


def _write_rows(path, cfg_hash: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write(f"# config_sha256={cfg_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def write_sweep_csv(results: list[RunResult], path, cfg_hash: str) -> None:
    """Write sweep results; numbers carry 17 significant digits so a
    re-parse recovers them bit-exactly."""
    def row(res: RunResult) -> list:
        # the dt column is the grid's step (as build_grid computes it), not
        # the requested one
        grid_dt = res.config.option.maturity / res.n
        values = {**res.config.field_values(), **vars(res), "dt": grid_dt, "M": res.m, "N": res.n}
        return [values[column] for column in SWEEP_COLUMNS]

    _write_rows(path, cfg_hash, SWEEP_COLUMNS, map(row, results))


def write_threshold_curve_csv(curve: ThresholdCurve, path, cfg_hash: str) -> None:
    rows = zip(*(getattr(curve, column) for column in THRESHOLD_CURVE_COLUMNS))
    _write_rows(path, cfg_hash, THRESHOLD_CURVE_COLUMNS, rows)


def write_value_curve_csv(points: np.ndarray, path, cfg_hash: str) -> None:
    """Points are rows of (V_spot, option_value, exercise_value)."""
    _write_rows(path, cfg_hash, VALUE_CURVE_COLUMNS, points)
