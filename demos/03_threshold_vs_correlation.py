"""Investment thresholds across correlation: the incompleteness premium.

The classic complete-market analysis says wait until the project is
worth twice its cost (perpetual benchmark, these parameters); the NPV
rule says invest at cost.  With imperfect correlation the threshold sits
between the two, dipping toward (but never reaching) the NPV rule as the
hedge quality degrades.  This script sweeps correlation at unit risk
aversion and prints the resulting thresholds next to both benchmarks.
"""

import json

import numpy as np

from reopt import perpetual_threshold
from reopt.experiments import config_hash, parse_config, run_sweep, write_sweep_csv

DT = 0.01  # coarse step keeps this demo quick; 1/900 matches the full study

doc = {
    "project": {"rho": 0.0, "delta": 0.04},
    "option": {"gamma": 1.0},
    "grid": {"dt": DT},
    "sweep": {"name": "rho", "values": np.linspace(-0.95, 0.95, 21).tolist()},
}
base, sweep = parse_config(json.dumps(doc))
results = run_sweep(sweep, workers=1)

perpetual = perpetual_threshold(sigma=0.2, r=0.04, delta=0.04, cost=1.0)
npv = 1.0  # the NPV rule invests once the project is worth its cost
print(f"perpetual complete-market benchmark: {perpetual:.4f}")
print(f"NPV benchmark                      : {npv:.4f}")
print()
print("  rho    threshold   value at V0")
for res in results:
    print(f"{res.config.market.rho:+6.3f}   {res.threshold_spot_t0:8.4f}   {res.option_value_v0:10.6f}")

feasible = [r.threshold_spot_t0 for r in results if not r.error]
print()
print(f"minimum threshold {min(feasible):.4f} stays above the NPV rule {npv:.4f}:")
print("time flexibility carries value even when none of the project risk is hedgeable.")

write_sweep_csv(results, "threshold_vs_correlation.csv", config_hash(base, sweep))
print()
print("wrote threshold_vs_correlation.csv (gnuplot: plot ... using 3:11)")
