"""Record the golden outputs in ``golden/`` from the program as it stands.

For each workload's default seed it stores every point's option value at
V0, time-0 spot threshold and error kind (g and oracle values for
oracle-1000).  price-base stores its whole pool, so that every block a
seed can draw has golden values.  Run through ``run.py --record-golden``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    GOLDEN_DIR,
    WORKLOADS,
    PassResult,
)


def _num(x: float):
    return None if math.isnan(x) else x


def _record(name: str, res: PassResult) -> None:
    doc = {"workload": name, "seed": DEFAULT_SEED}
    if res.claims:
        doc["points"] = [{"key": c.key, "g": c.g, "oracle": c.oracle} for c in res.claims]
    else:
        bad = [p.key for p in res.points if p.note]
        if bad:
            raise RuntimeError(f"{name}: outputs not usable as golden values: {bad}")
        doc["points"] = [
            {"key": p.key, "option_value_v0": _num(p.v0), "threshold_spot_t0": _num(p.threshold),
             "error": p.error}
            for p in res.points
        ]
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{name}.json", "w") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    errors = sorted({p.error for p in res.points if p.error})
    infeasible = [p.key for p in res.points if p.error]
    print(f"{name}: {len(doc['points'])} points, error kinds {errors}, infeasible {infeasible}")


def record_all(workdir: Path) -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED, workdir)
        wl.resolve()
        if name == "price-base":
            res = wl.run_indices(list(range(len(wl.pool))))
        elif name == "oracle-1000":
            res = wl.run_claims(range(len(wl.claims)))
        else:
            res = wl.run_pass(0)
        _record(name, res)
