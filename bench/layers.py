"""Per-layer metrics of one traced pass, named ``<workload>.<layer metric>``.

``SPEC`` lists, for each workload, the layer metrics it reports: only those
of layers the workload calls, so no value stands for an unused layer.
"""

from __future__ import annotations

from tracing import SpanStats
from workloads import WORKERS, PassResult

_LATTICE = [
    ("indifference.g.calls", "count", "lower"),
    ("indifference.g.ns_per_node", "ns", "lower"),
    ("indifference.g.share", "share", "lower"),
    ("lattice.induce.ns_per_node", "ns", "lower"),
    ("lattice.induce.us_per_column", "us", "lower"),
    ("lattice.induce.self_share", "share", "lower"),
]
_CALLS = [
    ("calibration.calls_per_lattice", "count", "lower"),
    ("calibration.us_per_call", "us", "lower"),
    ("lattice.build_grid.us", "us", "lower"),
    ("lattice.extract.us", "us", "lower"),
    ("experiments.parse_config.us", "us", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
]
_SWEEP = [
    ("experiments.sweep.utilisation", "share", "higher"),
    ("experiments.sweep.idle_s", "s", "lower"),
    ("experiments.sweep.points", "count", "higher"),
    ("experiments.sweep.infeasible_points", "count", "lower"),
]


def _self(*layers: str) -> list[tuple[str, str, str]]:
    return [(f"{layer}.self_s", "s", "lower") for layer in layers]


_OVERHEAD = [("trace.overhead_s", "s", "lower")]

SPEC: dict[str, list[tuple[str, str, str]]] = {
    "price-base": _CALLS + _LATTICE
    + [("experiments.infeasible_points", "count", "lower")]
    + _self("calibration", "indifference", "lattice", "experiments", "cli") + _OVERHEAD,
    "sweep-fig3": _LATTICE + _SWEEP
    + _self("calibration", "indifference", "lattice", "experiments") + _OVERHEAD,
    "oracle-1000": [
        ("indifference.g_scalar.us_per_call", "us", "lower"),
        ("indifference.oracle.ms_per_claim", "ms", "lower"),
    ] + _self("indifference") + _OVERHEAD,
    "presets-coarse": _CALLS + _LATTICE
    + [
        ("lattice.value_curve.us", "us", "lower"),
        ("experiments.csv.write_ms", "ms", "lower"),
        ("experiments.csv.bytes", "B", "lower"),
    ]
    + _SWEEP + _self("calibration", "indifference", "lattice", "experiments", "cli") + _OVERHEAD,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(st: SpanStats, traced: PassResult, untraced: PassResult) -> dict[str, float]:
    """Every layer metric this pass can define; the caller keeps SPEC's."""
    induce_s = st.total_s("lattice.backward_induce")
    g_in_induce_s = st.total_under_s("indifference.g_values", "lattice.backward_induce")
    columns = st.calls_under("indifference.g_values", "lattice.backward_induce")
    cli_s = st.total_s("cli.main")
    cli_inner_s = (st.total_under_s("experiments.run_single", "cli.main")
                   + st.total_under_s("experiments.run_preset", "cli.main"))
    sweep_s = st.total_s("experiments.run_sweep")
    busy_s = traced.busy_ms / 1e3
    csv_s = sum(st.total_s(f"experiments.write_{kind}_csv")
                for kind in ("sweep", "value_curve", "threshold_curve"))
    infeasible = sum(1 for p in traced.points if p.error)
    values = {
        "calibration.calls_per_lattice": _ratio(st.calls("calibration.calibrate"),
                                                st.calls("lattice.backward_induce")),
        "calibration.us_per_call": st.mean_us("calibration.calibrate"),
        "indifference.g.calls": st.calls("indifference.g_values"),
        "indifference.g.ns_per_node": _ratio(st.total_s("indifference.g_values") * 1e9,
                                             st.work("indifference.g_values")),
        "indifference.g.share": _ratio(g_in_induce_s, induce_s),
        "indifference.g_scalar.us_per_call": st.mean_us("indifference.g_value"),
        "indifference.oracle.ms_per_claim": st.mean_us("indifference.numeric_indifference_price") / 1e3,
        "lattice.build_grid.us": st.mean_us("lattice.build_grid"),
        "lattice.extract.us": st.mean_us("lattice.extract_thresholds"),
        "lattice.value_curve.us": st.mean_us("lattice.value_curve"),
        "lattice.induce.ns_per_node": _ratio(induce_s * 1e9, st.work("lattice.backward_induce")),
        "lattice.induce.us_per_column": _ratio(induce_s * 1e6, columns),
        "lattice.induce.self_share": _ratio(induce_s - g_in_induce_s, induce_s),
        "experiments.parse_config.us": st.mean_us("experiments.parse_config"),
        "experiments.csv.write_ms": csv_s * 1e3,
        "experiments.csv.bytes": traced.csv_bytes,
        "cli.overhead_ms": _ratio((cli_s - cli_inner_s) * 1e3, st.calls("cli.main")),
        "experiments.sweep.utilisation": _ratio(busy_s, WORKERS * sweep_s),
        "experiments.sweep.idle_s": WORKERS * sweep_s - busy_s,
        "experiments.sweep.points": traced.ops,
        "experiments.sweep.infeasible_points": infeasible,
        "experiments.infeasible_points": infeasible,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for layer, seconds in st.layer_self_s().items():
        values[f"{layer}.self_s"] = seconds
    return values


def layer_metrics(workload: str, st: SpanStats, traced: PassResult,
                  untraced: PassResult) -> dict[str, tuple[float, str]]:
    values = layer_values(st, traced, untraced)
    return {f"{workload}.{name}": (float(values[name]), unit) for name, unit, _ in SPEC[workload]}
