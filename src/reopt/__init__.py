"""Utility-indifference valuation of finite-horizon real options.

The package prices the option to invest in a non-traded project when
only a correlated financial asset can be used for hedging.  The engine
is a correlated two-factor binomial lattice, rolled back with the
exponential-utility certainty equivalent at every node, which yields
option values and early-exercise thresholds in incomplete markets with
the computational profile of a standard binomial valuation.
"""

from .calibration import (
    CalibrationInfeasible,
    LatticeCalibration,
    MarketParams,
    MomentReport,
    calibrate,
    capm_equilibrium_rate,
    mu2_from_shortfall,
    verify_moments,
)
from .indifference import (
    BracketFailure,
    PayoffPair,
    UtilityParams,
    g_value,
    g_values,
    gamma_limits,
    linear_limit_values,
    numeric_indifference_price,
)
from .lattice import (
    GridSpec,
    OptionSpec,
    Solution,
    ThresholdCurve,
    ValueGrid,
    backward_induce,
    build_grid,
    choose_half_height,
    extract_thresholds,
    solve,
    value_curve,
)
from .reference import (
    DivergentThreshold,
    PerpetualParams,
    perpetual_beta,
    perpetual_threshold,
    risk_neutral_idiosyncratic_limit,
)
from .experiments import (
    ConfigError,
    RunConfig,
    RunResult,
    SweepSpec,
    build_preset,
    config_hash,
    parse_config,
    preset_names,
    run_preset,
    run_single,
    run_sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BracketFailure",
    "CalibrationInfeasible",
    "ConfigError",
    "DivergentThreshold",
    "GridSpec",
    "LatticeCalibration",
    "MarketParams",
    "MomentReport",
    "OptionSpec",
    "PayoffPair",
    "PerpetualParams",
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
    "choose_half_height",
    "config_hash",
    "extract_thresholds",
    "g_value",
    "g_values",
    "gamma_limits",
    "linear_limit_values",
    "mu2_from_shortfall",
    "numeric_indifference_price",
    "parse_config",
    "perpetual_beta",
    "perpetual_threshold",
    "preset_names",
    "risk_neutral_idiosyncratic_limit",
    "run_preset",
    "run_single",
    "run_sweep",
    "solve",
    "value_curve",
    "verify_moments",
    "write_sweep_csv",
]
