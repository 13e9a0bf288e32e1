"""Cauchy problem model: delay laws, initial data, derived validity
interval and structural checks.

A problem consists of ``p`` equations of order ``n`` whose right-hand
sides may reference the state at delayed arguments.  Three delay laws are
supported: a constant lag ``t - tau``, a proportional argument ``q*t``
with 0 < q < 1, and a time-dependent lag ``t - lag(t)`` with ``lag`` an
expression in ``t`` that stays positive on the horizon.
"""

from __future__ import annotations

import math
from typing import Union

from . import expr as ex
from .series import Record

SCAN_POINTS = 1000
BISECTION_ITERATIONS = 80
ROOT_TOLERANCE = 1e-10
COMPATIBILITY_TOLERANCE = 1e-9

# The largest system order n, refused before any work.  The march scales
# coefficient k+n by (k+n)!/k!, a history leaf of derivative d its
# coefficient k by (k+d)!/k! up to k = N + 2n + 2, and the compatibility
# check derivative k by k!, each converted to a double.  At N = 500 a
# top-order constant-lag history leaf solved at n = 106 and overflowed at
# 107, a proportional delay alone solved at 115 and overflowed at 118, and
# the compatibility check overflows from n = 172 at any N.
MAX_SYSTEM_ORDER = 100


class ProblemError(ValueError):
    """Invalid problem data or a failed derived-quantity computation."""


# delay laws -------------------------------------------------------------------

class ConstantDelay(Record):
    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ProblemError(f"constant delay must be positive, got {self.tau!r}")
        if math.isinf(self.tau):
            raise ProblemError(f"constant delay must be finite, got {self.tau!r}")


class ProportionalDelay(Record):
    ratio: float

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ProblemError(
                f"proportional delay ratio must lie in (0, 1), got {self.ratio!r}"
            )


class TimeVaryingDelay(Record):
    """Lag given as an expression in t; the delayed argument is t - lag(t)."""

    lag: ex.Expr


DelayLaw = Union[ConstantDelay, ProportionalDelay, TimeVaryingDelay]


class DelaySpec(Record):
    id: str
    law: DelayLaw

    @property
    def proportional(self) -> bool:
        return isinstance(self.law, ProportionalDelay)


# problem ----------------------------------------------------------------------

class CauchyProblem(Record):
    """Full problem statement.

    ``init[j][k]`` is the k-th derivative of variable j at t = 0 (raw
    derivative values, not Taylor coefficients).  ``phi`` gives the
    history of each variable as an expression in t; it is required exactly
    when a non-proportional delay is declared, because only those reach
    back before t = 0.
    """

    order: int
    var_names: tuple[str, ...]
    equations: tuple[ex.Expr, ...]
    delays: tuple[DelaySpec, ...]
    init: tuple[tuple[float, ...], ...]
    horizon: float
    trunc_order: int
    phi: tuple[ex.Expr, ...] | None = None

    def __post_init__(self):
        n, p = self.order, len(self.var_names)
        if n < 1:
            raise ProblemError(f"system order must be at least 1, got {n}")
        if n > MAX_SYSTEM_ORDER:
            raise ProblemError(f"system order must be at most {MAX_SYSTEM_ORDER}, got {n}")
        if p < 1:
            raise ProblemError("at least one variable is required")
        if len(self.equations) != p:
            raise ProblemError(
                f"{p} variables but {len(self.equations)} equations"
            )
        if len(self.init) != p or any(len(row) != n for row in self.init):
            raise ProblemError(
                f"initial data must provide {n} derivative values for each of "
                f"the {p} variables"
            )
        for name, row in zip(self.var_names, self.init):
            for k, value in enumerate(row):
                if not math.isfinite(value):
                    raise ProblemError(
                        f"initial data must be finite, got {value!r} for "
                        f"derivative {k} of {name!r}"
                    )
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ProblemError(f"horizon must be finite and positive, got {self.horizon!r}")
        if self.trunc_order < 1:
            raise ProblemError(
                f"truncation order must be at least 1, got {self.trunc_order}"
            )
        ids = [d.id for d in self.delays]
        if len(set(ids)) != len(ids):
            raise ProblemError("delay names must be unique")
        if any(not d.proportional for d in self.delays) and self.phi is None:
            raise ProblemError(
                "a history function is required when a constant or "
                "time-dependent delay is declared"
            )
        if self.phi is not None and len(self.phi) != p:
            raise ProblemError(
                f"history must cover all {p} variables, got {len(self.phi)}"
            )
        for extra in (self.phi or ()) + tuple(
            d.law.lag for d in self.delays if isinstance(d.law, TimeVaryingDelay)
        ):
            for ref in ex.iter_refs(extra):
                raise ProblemError(
                    "history functions and delay laws must be expressions in "
                    f"t only, found {ex.pretty(ref, self.var_names)}"
                )
        self.structure()

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def delay_map(self) -> dict[str, DelaySpec]:
        return {d.id: d for d in self.delays}

    def structure(self) -> ex.StructureReport:
        return ex.analyze(
            self.equations,
            order=self.order,
            num_vars=self.num_vars,
            delays={d.id: d.proportional for d in self.delays},
        )


# validity interval --------------------------------------------------------------

class ValidityInterval(Record):
    """Where the one-step reduction makes sense.

    ``t_star`` is the earliest time the history is consulted (0 with only
    proportional delays).  ``t_alpha`` is the first time any non-
    proportional delayed argument turns positive; past it the substituted
    history no longer represents the solution.  ``upper`` caps the
    approximation interval at min(t_alpha, horizon).
    """

    t_star: float
    t_alpha: float
    upper: float
    notes: tuple[str, ...] = ()


def _first_positive_root(lag, grid, gaps, delay_id: str) -> float | None:
    """Smallest t in (0, grid[-1]] with t - lag(t) > 0, located by a sign
    scan of its values ``gaps`` on ``grid`` and bisection, ``lag`` being the
    compiled lag.  None when t - lag(t) stays nonpositive on the grid."""
    for i in range(1, len(grid)):
        if gaps[i] > 0.0:
            lo, hi = grid[i - 1], grid[i]
            for _ in range(BISECTION_ITERATIONS):
                mid = 0.5 * (lo + hi)
                if mid - lag(mid, None, None)[0] > 0.0:
                    hi = mid
                else:
                    lo = mid
            residual = abs(hi - lag(hi, None, None)[0])
            if residual > ROOT_TOLERANCE:
                raise ProblemError(
                    f"root search for delay {delay_id!r} did not converge: "
                    f"|residual| = {residual:.3g}"
                )
            return hi
    return None


def compute_validity(problem: CauchyProblem) -> ValidityInterval:
    """Derive the history extent and the activation times of all delays.

    Constant delays activate exactly at their lag.  Proportional delays
    never reach back before 0 and are excluded from the activation
    minimum.  Time-dependent lags are checked for positivity by sampling
    and their activation time is found by scan plus bisection on
    t - lag(t); a lag that is 0 at t = 0 with its argument ahead of 0 right
    after it is refused, since no history leaf can stand for it.
    """
    horizon = problem.horizon
    t_star = 0.0
    activation = []
    notes = []
    for spec in problem.delays:
        law = spec.law
        if isinstance(law, ConstantDelay):
            t_star = min(t_star, -law.tau)
            activation.append(law.tau)
        elif isinstance(law, ProportionalDelay):
            continue
        else:
            lag = ex.compile_numeric([law.lag])
            grid = [horizon * i / SCAN_POINTS for i in range(SCAN_POINTS + 1)]
            try:
                samples = [lag(t, None, None)[0] for t in grid]
                for t, value in zip(grid, samples):
                    if t > 0 and value <= 0.0:
                        raise ProblemError(
                            f"delay {spec.id!r}: lag must stay positive on the "
                            f"horizon, got {value:.3g} at t = {t:.6g}"
                        )
                    if t == 0 and value < 0.0:
                        raise ProblemError(f"delay {spec.id!r}: lag is negative at t = 0")
                gaps = [t - value for t, value in zip(grid, samples)]
                root = _first_positive_root(lag, grid, gaps, spec.id)
            except ex.EvaluationError as exc:
                raise ProblemError(f"delay law evaluation failed: {exc}") from None
            t_star = min(t_star, min(gaps))
            if root is None:
                notes.append(
                    f"delay {spec.id!r} stays in the history over the whole "
                    "horizon"
                )
                activation.append(math.inf)
            elif root <= horizon / SCAN_POINTS and samples[0] == 0.0:
                # the argument reads the unknown solution, not the history,
                # from t = 0+, and substituting the history would be wrong
                raise ProblemError(
                    f"delay {spec.id!r}: lag is 0 at t = 0 and the delayed argument "
                    "is ahead of 0 right after it; write it as a proportional delay"
                )
            else:
                activation.append(root)
    t_alpha = min(activation, default=math.inf)
    upper = min(t_alpha, horizon)
    if not upper > 0:
        raise ProblemError(f"empty validity interval: upper bound {upper!r}")
    return ValidityInterval(
        t_star=t_star, t_alpha=t_alpha, upper=upper, notes=tuple(notes)
    )


# checks --------------------------------------------------------------------------

class CompatibilityEntry(Record):
    var: int
    deriv: int
    history_value: float
    init_value: float

    @property
    def residual(self) -> float:
        return self.history_value - self.init_value

    @property
    def ok(self) -> bool:
        return abs(self.residual) <= COMPATIBILITY_TOLERANCE


class CompatibilityReport(Record):
    entries: tuple[CompatibilityEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def check_compatibility(problem: CauchyProblem) -> CompatibilityReport:
    """Compare the history function's derivatives at 0 against the initial
    data, entry by entry.  Vacuously passes when no history is given."""
    if problem.phi is None:
        return CompatibilityReport(entries=())
    n = problem.order
    entries = []
    t = ex.time_series(max(n - 1, 1))
    for j, phi in enumerate(problem.phi, start=1):
        series = ex.eval_series(phi, t)
        for k in range(n):
            value = math.factorial(k) * series.coeffs[k]
            entries.append(
                CompatibilityEntry(
                    var=j,
                    deriv=k,
                    history_value=value,
                    init_value=problem.init[j - 1][k],
                )
            )
    return CompatibilityReport(entries=tuple(entries))


class H2Violation(Record):
    equation: int
    variable: int
    delay: str


class H2Report(Record):
    violations: tuple[H2Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_h2(problem: CauchyProblem) -> H2Report:
    """Top-order references through a proportional delay must point at the
    equation's own variable; a cross-variable occurrence makes the marching
    recurrence unable to isolate the new coefficient."""
    violations = []
    for eq_index, ref in problem.structure().neutral_proportional_refs:
        if ref.var != eq_index:
            violations.append(
                H2Violation(equation=eq_index, variable=ref.var, delay=ref.delay)
            )
    return H2Report(violations=tuple(violations))
