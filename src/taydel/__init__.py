"""Semi-analytical solver for delay differential equations.

The solver handles systems of n-th order equations whose right-hand sides
reference the state at constant, proportional or time-dependent delayed
arguments, including top-order (neutral) references under proportional
delays.  Constant and time-dependent delayed terms are replaced by the
given history function on the first interval; the remaining system is
turned into an algebraic recurrence on Taylor coefficients and marched to
the requested order.  An independent fixed-step RK4 integrator with dense
output serves as a reference for validation.

The package root exports the pipeline entry points; everything else is
imported from its module.
"""

from .engine import ZeroPivotInconsistent, estimate_error, evaluate_solution, solve, solve_reduced
from .problem import check_compatibility
from .problemfile import load_problem, parse_problem
from .reduce import substitute_history

__version__ = "0.1.0"

__all__ = [
    "ZeroPivotInconsistent",
    "check_compatibility",
    "estimate_error",
    "evaluate_solution",
    "load_problem",
    "parse_problem",
    "solve",
    "solve_reduced",
    "substitute_history",
]
