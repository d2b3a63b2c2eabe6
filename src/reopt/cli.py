"""Command-line front end.

Subcommands:

    price       single valuation, prints the option value at V0 and the
                time-0 spot exercise threshold
    threshold   full per-time-step threshold curve as CSV
    sweep       a named figure preset or the sweep from the config file
    validate    calibration feasibility and moment report at the grid's step

Exit codes: 0 success, 2 configuration error, 3 not valued (one line,
"infeasible calibration: ..." or, for any other failure, "cannot value:
..."), 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace

from .calibration import CalibrationInfeasible, calibrate, verify_moments
from .experiments import (
    ConfigError,
    RunConfig,
    RunResult,
    build_preset,
    check_field,
    config_hash,
    parse_config,
    preset_names,
    run_preset,
    run_single,
    run_sweep,
    write_sweep_csv,
    write_threshold_curve_csv,
    write_value_curve_csv,
)
from .lattice import build_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reopt",
        description="Utility-indifference valuation of finite-horizon real options",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--dt", type=float, help="override the grid time step")
        return p

    command("price", "value a single configuration", _cmd_price)
    threshold = command("threshold", "emit the full threshold curve", _cmd_threshold)
    sweep = command("sweep", "run a parameter sweep", _cmd_sweep)
    command("validate", "check calibration and moments", _cmd_validate)
    for p in (threshold, sweep):
        p.add_argument("--out", help="output CSV path")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="processes that run the sweep: this one and workers - 1 children, "
        "at most one per job and per usable CPU",
    )
    sweep.add_argument("--preset", choices=preset_names(), help="named figure preset")
    return parser


def _load_config(args) -> tuple[RunConfig, object]:
    if not args.config:
        raise ConfigError("--config is required for this command")
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read config: {exc}") from exc
    cfg, sweep = parse_config(text)
    if args.dt is not None:
        cfg = replace(cfg, dt=check_field("dt", args.dt, "grid.dt"))
        if sweep is not None:
            sweep = replace(sweep, base=cfg)
    return cfg, sweep


class _Failure(Exception):
    """Ends the command with exit code ``code`` and a one-line message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _not_valued(kind: str, reason: str) -> _Failure:
    """Exit 3, labelled by the kind of error, its exception type's name."""
    label = "infeasible calibration" if kind == CalibrationInfeasible.__name__ else "cannot value"
    return _Failure(EXIT_INFEASIBLE, f"{label}: {reason}")


def _run_config(args, outputs=()) -> tuple[RunConfig, RunResult]:
    """Value the loaded configuration once; a failed valuation exits 3
    with the error that ``run_single`` recorded."""
    cfg, _ = _load_config(args)
    res = run_single(cfg, outputs)
    if res.error:
        raise _not_valued(*res.error.split(": ", 1))
    return cfg, res


def _cmd_price(args) -> int:
    _, res = _run_config(args)
    print(f"option_value_v0   = {res.option_value_v0:.12g}")
    print(f"threshold_spot_t0 = {res.threshold_spot_t0:.12g}")
    print(f"grid              = {2 * res.m + 1} x {res.n + 1} (M={res.m}, N={res.n})")
    if res.anomaly_flags:
        print(f"flags             = {res.anomaly_flags}")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    cfg, res = _run_config(args, ("threshold_curve",))
    out = args.out or "threshold_curve.csv"
    _write(write_threshold_curve_csv, res.threshold_curve, out, config_hash(cfg))
    print(f"wrote {out}")
    return EXIT_OK


def _side_path(out: str, kind: str, res: RunResult) -> str:
    """``<out stem>_<kind>_<name>=<value>.csv``, the value in its shortest
    round-trip form so that distinct sweep points never share a file."""
    stem = out[:-4] if out.endswith(".csv") else out
    value = repr(float(res.swept_value)).removesuffix(".0")
    return f"{stem}_{kind}_{res.swept_name}={value}.csv"


def _cmd_sweep(args) -> int:
    if args.preset:
        if args.config:
            raise ConfigError("--preset and --config cannot be combined")
        results = run_preset(args.preset, workers=args.workers, dt=args.dt)
        root = preset_hash(args.preset, args.dt)
        out = args.out or f"{args.preset}.csv"
    else:
        cfg, sweep = _load_config(args)
        if sweep is None:
            raise ConfigError("config has no sweep section and no --preset given")
        results = run_sweep(sweep, workers=args.workers)
        root = config_hash(cfg, sweep)
        out = args.out or "sweep.csv"
    _write(write_sweep_csv, results, out, root)
    for res in results:
        if res.value_points is not None:
            side = _side_path(out, "value", res)
            _write(write_value_curve_csv, res.value_points, side, root)
        if res.threshold_curve is not None:
            side = _side_path(out, "curve", res)
            _write(write_threshold_curve_csv, res.threshold_curve, side, root)
    failed = [res for res in results if res.error]
    for res in failed:
        print(f"{res.swept_name}={float(res.swept_value)!r}: {res.error}", file=sys.stderr)
    print(f"wrote {out} ({len(results)} rows, {len(failed)} failed)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg, _ = _load_config(args)
    try:
        grid = build_grid(cfg.market, cfg.option, cfg.dt)
        cal = calibrate(cfg.market, grid.dt, cfg.p_tol)
    except ValueError as exc:
        raise _not_valued(type(exc).__name__, str(exc)) from exc
    print(f"dt        = {cal.dt:.10g}")
    print(f"u, d      = {cal.u:.10g}, {cal.d:.10g}")
    print(f"h, l      = {cal.h:.10g}, {cal.l:.10g}")
    print(f"q         = {cal.q:.10g}")
    print(f"p         = ({cal.p1:.10g}, {cal.p2:.10g}, {cal.p3:.10g}, {cal.p4:.10g})")
    print(f"sum p - 1 = {cal.p1 + cal.p2 + cal.p3 + cal.p4 - 1.0:.3e}")
    moments = zip(("E[S1/S0]", "E[V1/V0]", "Cov"), verify_moments(cal, cfg.market))
    for name, (got, want) in moments:
        print(f"{name:<9} = {got:.12g}  (target {want:.12g}, error {got - want:.3e})")
    return EXIT_OK


def preset_hash(name: str, dt: float | None = None) -> str:
    """Hash over the config hashes of a preset's sweeps."""
    specs = build_preset(name, dt)
    blob = json.dumps(
        [config_hash(s.base, s) for s in specs], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _write(writer, payload, path, root) -> None:
    try:
        writer(payload, path, root)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _Failure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
