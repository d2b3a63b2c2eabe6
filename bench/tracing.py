"""In-memory span tracing around the public calls of the reopt layers.

The tracer replaces each traced function with a wrapper in every ``reopt``
module that holds it (modules import names from one another, so one
function can sit in several namespaces), and puts the originals back on
``uninstall``.  A span is five integers: name index, parent span index
(-1 for a root), start and end in ``time.perf_counter_ns`` (CLOCK_MONOTONIC
on Linux, so comparable across processes), and a work count (nodes for the
g kernel and the induction, 0 otherwise).  Spans stay in a list in memory
and are written out only when the run ends.

Spans from pool workers: the pool forks its workers after the tracer is
installed, so workers inherit the wrapped functions.  In a worker the
``run_single`` wrapper records into a fresh buffer and attaches it to the
returned ``RunResult``; the result pickles back through the pool's own
result pipe, and the ``run_sweep`` wrapper in the parent splices those
spans under its own span.  With a ``spawn`` start method workers would
import reopt unwrapped and no worker spans would come back; the summary
reports the worker span count so that shows.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# (module, function) pairs traced; the span name is "<module>.<function>".
TRACED = (
    ("calibration", "calibrate"),
    ("indifference", "g_values"),
    ("indifference", "g_value"),
    ("indifference", "numeric_indifference_price"),
    ("lattice", "build_grid"),
    ("lattice", "backward_induce"),
    ("lattice", "extract_thresholds"),
    ("lattice", "value_curve"),
    ("experiments", "parse_config"),
    ("experiments", "build_preset"),
    ("experiments", "run_single"),
    ("experiments", "run_sweep"),
    ("experiments", "run_preset"),
    ("experiments", "write_sweep_csv"),
    ("experiments", "write_value_curve_csv"),
    ("experiments", "write_threshold_curve_csv"),
    ("cli", "main"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
LAYERS = ("calibration", "indifference", "lattice", "experiments", "cli")
_SPANS_ATTR = "_bench_spans"


def _g_nodes(args, kwargs) -> int:
    return getattr(args[0] if args else kwargs["x_up"], "size", 1)


def _lattice_nodes(args, kwargs) -> int:
    grid = args[0] if args else kwargs["grid"]
    return grid.n_rows * (grid.n_steps + 1)


_WORK = {"indifference.g_values": _g_nodes, "lattice.backward_induce": _lattice_nodes}


class Tracer:
    """Span recorder; ``install`` wraps the reopt functions, ``uninstall``
    restores them."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # finished spans as (index, name, parent, start_ns, end_ns, work);
        # ``count`` hands out indices when spans open, so parents precede children
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.stack: list[int] = []
        self.count = 0
        self.worker_spans = 0

    # -- recording -------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        tracer = self
        work_of = _WORK.get(NAMES[name_id])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = tracer.count
            tracer.count = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                work = work_of(args, kwargs) if work_of else 0
                tracer.spans.append((idx, name_id, parent, start, end, work))

        return traced

    def _wrap_run_single(self, traced):
        """In a pool worker, record the point into a fresh buffer and ship
        it back attached to the result."""
        tracer = self

        @functools.wraps(traced)
        def run_single(*args, **kwargs):
            if os.getpid() == tracer.owner_pid:
                return traced(*args, **kwargs)
            tracer.reset()
            result = traced(*args, **kwargs)
            setattr(result, _SPANS_ATTR, tracer.spans)
            return result

        return run_single

    def _wrap_run_sweep(self, traced):
        """Splice the spans attached by workers under the run_sweep span."""
        tracer = self

        @functools.wraps(traced)
        def run_sweep(*args, **kwargs):
            sweep_idx = tracer.count  # the index ``traced`` gives its span
            results = traced(*args, **kwargs)
            for res in results:
                shipped = res.__dict__.pop(_SPANS_ATTR, None)
                if shipped is not None:
                    tracer._splice(shipped, sweep_idx)
            return results

        return run_sweep

    def _splice(self, shipped: list[tuple], parent: int) -> None:
        offset = self.count
        self.spans.extend(
            (idx + offset, name, parent if up < 0 else up + offset, start, end, work)
            for idx, name, up, start, end, work in shipped
        )
        self.count += len(shipped)
        self.worker_spans += len(shipped)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "reopt" or n.startswith("reopt.")]
        for name_id, (mod, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"reopt.{mod}"], fn_name)
            wrapper = self._wrap(name_id, original)
            if fn_name == "run_single":
                wrapper = self._wrap_run_single(wrapper)
            elif fn_name == "run_sweep":
                wrapper = self._wrap_run_sweep(wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def table(self) -> np.ndarray:
        """Spans as an (n, 5) int64 array, row i being span i: name, parent,
        start, end, work."""
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 6)
        return rows[np.argsort(rows[:, 0]), 1:]


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def self_times_ns(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children of one span run one after another, except the points of a
    pooled sweep, which overlap; the union of child intervals handles both.
    """
    dur = spans[:, 3] - spans[:, 2]
    out = dur.astype(np.int64).copy()
    has_parent = np.flatnonzero(spans[:, 1] >= 0)
    if has_parent.size == 0:
        return out
    order = has_parent[np.lexsort((spans[has_parent, 2], spans[has_parent, 1]))]
    parents = spans[order, 1]
    starts = spans[order, 2]
    ends = spans[order, 3]
    bounds = np.flatnonzero(np.diff(parents)) + 1
    for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(order)]):
        p = parents[lo]
        p_start, p_end = spans[p, 2], spans[p, 3]
        covered = 0
        reach = p_start
        for s, e in zip(starts[lo:hi].tolist(), ends[lo:hi].tolist()):
            s, e = max(s, reach), min(e, p_end)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


class SpanStats:
    """Per-name counts, inclusive and self times over one traced pass."""

    def __init__(self, spans: np.ndarray) -> None:
        self.spans = spans
        self.self_ns = self_times_ns(spans)
        self.dur = spans[:, 3] - spans[:, 2]

    def _mask(self, name: str) -> np.ndarray:
        return self.spans[:, 0] == NAMES.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_s(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum()) / 1e9

    def work(self, name: str) -> int:
        return int(self.spans[self._mask(name), 4].sum())

    def mean_us(self, name: str) -> float:
        n = self.calls(name)
        return self.total_s(name) / n * 1e6 if n else 0.0

    def _under(self, name: str, parent_name: str) -> np.ndarray:
        """Indices of ``name`` spans whose parent is a ``parent_name`` span."""
        idx = np.flatnonzero(self._mask(name) & (self.spans[:, 1] >= 0))
        parents = self.spans[idx, 1]
        return idx[self.spans[parents, 0] == NAMES.index(parent_name)]

    def calls_under(self, name: str, parent_name: str) -> int:
        return len(self._under(name, parent_name))

    def total_under_s(self, name: str, parent_name: str) -> float:
        return float(self.dur[self._under(name, parent_name)].sum()) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in NAMES])
        per = np.zeros(len(LAYERS))
        np.add.at(per, layer_of[self.spans[:, 0]], self.self_ns)
        return {layer: float(per[i]) / 1e9 for i, layer in enumerate(LAYERS)}
