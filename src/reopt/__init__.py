"""Utility-indifference valuation of finite-horizon real options.

The package prices the option to invest in a non-traded project when
only a correlated financial asset can be used for hedging.  The engine
is a correlated two-factor binomial lattice, rolled back with the
exponential-utility certainty equivalent at every node, which yields
option values and early-exercise thresholds in incomplete markets with
the computational profile of a standard binomial valuation.

The public names are the union of each module's ``__all__``.
"""

from . import calibration, experiments, indifference, lattice, reference
from .calibration import *
from .indifference import *
from .lattice import *
from .reference import *
from .experiments import *

__version__ = "0.1.0"

__all__ = sorted({
    name
    for module in (calibration, indifference, lattice, reference, experiments)
    for name in module.__all__
})
