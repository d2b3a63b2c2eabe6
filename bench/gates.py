"""One-shot margins of the acceptance suite's wall-clock gates.

Reruns the timed work of acceptance criteria 1, 3, 6 and 10 (the same
inputs and the same checks as tests/test_acceptance.py) and prints how far
each run is from its bound.  A negative margin means the gate fails on
this machine.  Not part of the repeated timed runs; run through
``run.py --gates``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import reopt
from reopt.experiments import parse_config, run_preset, run_single, run_sweep
from workloads import DEFAULT_SEED, ORACLE_TOL, oracle_claims


def _criterion_01() -> tuple[bool, str]:
    # sampling is timed too, as in the test
    claims = oracle_claims(DEFAULT_SEED)
    worst = max(
        abs(reopt.g_value(pay, cal, util)
            - reopt.numeric_indifference_price(pay, cal, util, x0=x0))
        for pay, cal, util, x0 in claims
    )
    return worst < ORACLE_TOL, f"worst |g - oracle| = {worst:.3e} over {len(claims)} claims"


def _criterion_03() -> tuple[bool, str]:
    cfg, _ = parse_config(json.dumps({
        "project": {"rho": 0.0}, "option": {"gamma": 100.0}, "grid": {"dt": 0.01},
    }))
    res = run_single(cfg)
    h = math.exp(0.2 * math.sqrt(0.01))
    ok = not res.error and 1.0 <= res.threshold_spot_t0 <= h * h + 1e-12
    return ok, f"threshold = {res.threshold_spot_t0:.6f}"


def _criterion_06() -> tuple[bool, str]:
    def thresholds(name, values, rho):
        _, sweep = parse_config(json.dumps({
            "project": {"rho": rho}, "option": {"gamma": 1.0}, "grid": {"dt": 0.01},
            "sweep": {"name": name, "values": list(values)},
        }))
        results = run_sweep(sweep)
        if any(r.error for r in results):
            return None
        return [r.threshold_spot_t0 for r in results]

    gamma = thresholds("gamma", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0], 0.5)
    sigma = thresholds("sigma2", [0.1, 0.15, 0.2, 0.25, 0.3], 0.5)
    delta = thresholds("delta", [0.02, 0.04, 0.06, 0.08], 0.5)
    rhos = np.linspace(-0.95, 0.95, 21)
    rho = thresholds("rho", rhos.tolist(), 0.0)
    if None in (gamma, sigma, delta, rho):
        return False, "a sweep point failed"
    dec = lambda xs: all(a > b for a, b in zip(xs, xs[1:]))
    inc = lambda xs: all(a < b for a, b in zip(xs, xs[1:]))
    best = min(rho)
    near_zero = min(t for r, t in zip(rhos, rho) if abs(r) <= 0.1)
    ok = dec(gamma) and inc(sigma) and dec(delta) and near_zero == best and best > 1.0
    return ok, f"rho minimum {best:.4f}"


def _criterion_10() -> tuple[bool, str]:
    results = run_preset("fig4")
    ok = all(not r.error for r in results) and 460 <= results[0].m <= 500
    return ok, f"M = {results[0].m}"


GATES = (
    (1, 10.0, _criterion_01),
    (3, 30.0, _criterion_03),
    (6, 300.0, _criterion_06),
    (10, 60.0, _criterion_10),
)


def run_gates(fingerprint: dict, out: Path) -> int:
    rows = []
    for number, bound, work in GATES:
        start = time.perf_counter()
        ok, detail = work()
        elapsed = time.perf_counter() - start
        margin = bound - elapsed
        rows.append({"criterion": number, "elapsed_s": elapsed, "bound_s": bound,
                     "margin_s": margin, "margin_share": margin / bound,
                     "check_passed": ok, "detail": detail})
        print(f"criterion {number:2d}: {elapsed:8.2f} s of {bound:5.0f} s, "
              f"margin {margin:+8.2f} s ({margin / bound:+.0%}), "
              f"check {'ok' if ok else 'FAILED'}: {detail}")
    doc = {"gates": rows, "fingerprint": fingerprint}
    with open(out / "gates.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(doc))
    return 0
