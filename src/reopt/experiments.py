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

Sweep points are independent pure computations; they can run on a worker
pool, largest lattice first, and the output is deterministic regardless of
the worker count (results are reassembled in swept-value order).
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .calibration import MarketParams, capm_equilibrium_rate
from .lattice import (
    GridSpec,
    OptionSpec,
    Solution,
    ThresholdCurve,
    build_grid,
    solve,
    solve_gammas,
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
    grid could not be laid out).  ``wall_ms`` is the time spent on it; the
    K points of a gamma sweep, solved as one job, each carry 1/K of that
    job's time."""

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


class _GammaStack:
    """The points of a gamma sweep, which share one grid and one
    calibration: solved together, in one induction, when the first of them
    asks, and handed out one per point in swept order.  If the stacked
    solve fails (a signed-weight g can fail at some gammas only), every
    point solves on its own and so gets its own result or error.
    """

    def __init__(self, gammas: tuple[float, ...]):
        self.gammas = gammas
        self.solutions: list[Solution] | None = None

    def solve(self, cfg: RunConfig, grid: GridSpec) -> Solution:
        if self.solutions is None:
            try:
                self.solutions = solve_gammas(cfg.market, cfg.option, grid, self.gammas, cfg.p_tol)
            except ValueError:
                self.solutions = []
        if self.solutions:
            return self.solutions.pop(0)
        return solve(cfg.market, cfg.option, grid, cfg.p_tol)


def run_single(
    cfg: RunConfig,
    outputs: tuple[str, ...] = (),
    swept_name: str = "",
    swept_value: float = math.nan,
    stack: _GammaStack | None = None,
) -> RunResult:
    """Build, solve and summarize one lattice; errors become result rows.
    ``stack`` is set by :func:`run_sweep` when the point is one of the
    gammas of a gamma sweep, which share one induction."""
    start = time.perf_counter()
    result = RunResult(swept_name, swept_value, cfg)
    try:
        grid = build_grid(cfg.market, cfg.option, cfg.dt)
        result.m, result.n = grid.half_height, grid.n_steps
        if stack is None:
            sol = solve(cfg.market, cfg.option, grid, cfg.p_tol)
        else:
            sol = stack.solve(cfg, grid)
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


_Point = tuple[RunConfig, tuple[str, ...], str, float]


def _sweep_job(job: tuple[list[_Point], _GammaStack | None]) -> list[RunResult]:
    """Run a job's points; the K points of a stack each carry 1/K of the
    job's time, so a job's rows add up to its real time."""
    points, stack = job
    start = time.perf_counter()
    results = [run_single(*point, stack=stack) for point in points]
    if stack is not None:
        each_ms = (time.perf_counter() - start) * 1e3 / len(results)
        for result in results:
            result.wall_ms = each_ms
    return results


def _exit_with_parent() -> None:
    """Pool worker initializer: end the worker once the sweep process that
    started it is gone (e.g. killed by a signal), not its OS parent, which
    under "forkserver" is the fork server; it outlives the sweep while
    workers remain.  Otherwise the worker waits for jobs that never come."""
    sweep = multiprocessing.parent_process()

    def watch():
        sweep.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _lattice_nodes(cfg: RunConfig) -> int:
    try:
        grid = build_grid(cfg.market, cfg.option, cfg.dt)
    except ValueError:  # the point is an error row, quickly
        return 0
    return grid.n_rows * (grid.n_steps + 1)


def run_sweep(*specs: SweepSpec, workers: int = 1) -> list[RunResult]:
    """Run every swept value of every spec; per-point failures become
    error rows.

    The points of a ``gamma`` sweep of more than one value share a grid and
    a calibration, so they are one job, solved in one induction; every
    other point is a job of its own.  With ``workers > 1`` the jobs of all
    specs execute on one process pool of at most one worker per job,
    submitted largest first so that no long job starts last.  Results come
    back spec by spec, each ordered by swept value, regardless of
    scheduling, and the numbers are identical for any worker count.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    jobs = []
    for s in specs:
        points = [(_point_config(s, v), s.outputs, s.name, v) for v in s.values]
        if s.name == "gamma" and len(points) > 1:
            jobs.append((points, _GammaStack(s.values)))
        else:
            jobs.extend(([point], None) for point in points)
    workers = min(workers, len(jobs))
    if workers <= 1:
        done = [_sweep_job(job) for job in jobs]
    else:
        size = [_lattice_nodes(points[0][0]) * len(points) for points, _ in jobs]
        order = sorted(range(len(jobs)), key=lambda j: -size[j])
        with ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent) as pool:
            by_job = dict(zip(order, pool.map(_sweep_job, [jobs[j] for j in order])))
        done = [by_job[j] for j in range(len(jobs))]
    return [result for job_results in done for result in job_results]


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


def read_sweep_csv(path) -> tuple[str, list[dict[str, str]]]:
    """Read back a sweep CSV: (config hash, rows as string dicts)."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# config_sha256="):
            raise ValueError(f"{path}: missing config hash comment")
        root = first.split("=", 1)[1]
        reader = csv.DictReader(fh)
        return root, list(reader)


def write_threshold_curve_csv(curve: ThresholdCurve, path, cfg_hash: str) -> None:
    rows = zip(*(getattr(curve, column) for column in THRESHOLD_CURVE_COLUMNS))
    _write_rows(path, cfg_hash, THRESHOLD_CURVE_COLUMNS, rows)


def write_value_curve_csv(points: np.ndarray, path, cfg_hash: str) -> None:
    """Points are rows of (V_spot, option_value, exercise_value)."""
    _write_rows(path, cfg_hash, VALUE_CURVE_COLUMNS, points)
