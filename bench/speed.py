"""Machine-speed reference: a fixed pure-Python loop timed beside the work.

The reference box is a share of a busy host. The same code runs up to
~1.5x slower for anything from a fraction of a second to minutes, and the
quartile spread of plain wall time over ten 15 s runs reaches 0.2-0.3,
which no affordable run length averages away (see README.md, "Noise").

So the timed workloads call ``Meter.pace`` before each timed segment (one
``reopt price`` call, one preset sweep, ten oracle claims), outside the
timed intervals, and the run takes one more reference after the pass.
The set-up probes are scaled the same way, one reference between probes.
Each segment is scaled to reference speed by the references on either
side of it:

    scaled = measured * NOMINAL_S / mean(reference before, reference after)

A slow phase of the host stretches a segment and the reference loops
beside it alike, and cancels. The scaled figure is the time the work would
take on the box when the reference loop takes ``NOMINAL_S``; the plain
wall time is printed beside it.

The loop is interpreter-bound (calls, float arithmetic, list indexing),
like the engine, whose lattice columns are a few hundred rows, so Python
overhead outweighs the numpy work. The program under test never runs
while a reference is timed, so it cannot change the references.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.010   # the reference loop at typical speed on the reference box
_ITERATIONS = 50_000


def _step(x: float, k: int) -> float:
    return (x * 1.000001 + k) % 97.0


def reference_loop() -> float:
    """Run the fixed loop once; return its wall time in seconds."""
    table = [0.5 * k for k in range(64)]
    start = time.perf_counter()
    x = 0.0
    for k in range(_ITERATIONS):
        x = _step(x, k) + table[k & 63]
    elapsed = time.perf_counter() - start
    if x < 0.0:  # keeps the loop's result live
        raise AssertionError(x)
    return elapsed


class Meter:
    """Reference-loop times taken between operations, in order."""

    def __init__(self) -> None:
        self.refs: list[float] = []

    def pace(self) -> None:
        self.refs.append(reference_loop())

    def scale(self, segments: list[float], first: int) -> list[float]:
        """Scale segments, timed after ``refs[first:]``, to reference speed;
        ``pace`` must have run once before each segment and once after the
        last."""
        refs = self.refs[first:]
        if len(refs) != len(segments) + 1:
            raise RuntimeError(f"{len(segments)} segments, {len(refs)} references")
        return [seg * NOMINAL_S / statistics.fmean(refs[k:k + 2])
                for k, seg in enumerate(segments)]
