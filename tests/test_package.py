"""The package's public surface is each module's ``__all__``, stated once."""

import os
import subprocess
import sys
from pathlib import Path

import reopt
from reopt import calibration, experiments, indifference, lattice, reference

MODULES = (calibration, indifference, lattice, reference, experiments)


def test_no_name_is_public_in_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_exports_the_union_of_module_names():
    assert reopt.__all__ == sorted(name for module in MODULES for name in module.__all__)


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(reopt, name) is getattr(module, name), (module.__name__, name)


# The reviewed public surface: adding or removing a name is a one-line diff here.
PUBLIC_NAMES = [
    "BracketFailure",
    "CalibrationInfeasible",
    "ConfigError",
    "GridSpec",
    "GridStack",
    "LatticeCalibration",
    "MarketParams",
    "OptionSpec",
    "PayoffPair",
    "RunConfig",
    "RunResult",
    "Solution",
    "SweepSpec",
    "ThresholdCurve",
    "UtilityParams",
    "ValueGrid",
    "backward_induce",
    "build_grid",
    "build_preset",
    "calibrate",
    "capm_equilibrium_rate",
    "config_hash",
    "extract_thresholds",
    "g_value",
    "g_values",
    "henderson_threshold",
    "linear_limit_values",
    "numeric_indifference_price",
    "parse_config",
    "perpetual_beta",
    "perpetual_threshold",
    "preset_names",
    "run_preset",
    "run_single",
    "run_sweep",
    "solve",
    "solve_stack",
    "value_curve",
    "verify_moments",
    "write_sweep_csv",
]


def test_package_exports_the_reviewed_names():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert reopt.__all__ == PUBLIC_NAMES


def test_import_leaves_concurrent_futures_out():
    # the sweep runs its own children; the executor import alone cost about
    # 9 ms and 1.25 MB at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, reopt; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
