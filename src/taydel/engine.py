"""Coefficient marching: turn a reduced system into Taylor coefficients.

The initial data fixes coefficients 0..n-1 of every variable.  Marching
index k then determines the coefficients at index k+n for all variables
at once from coefficient k of each right-hand side, where every state
reference reads only already-known coefficients (a reference with d
primes at output order k reads input order at most k+n-1).  The
right-hand sides are lowered once into a tape that extends each
subexpression's coefficients by one per round.

Equations whose own top derivative appears under a proportional delay
need one extra move: that occurrence references the unknown coefficient
itself, scaled by a pivot factor.  When the occurrence is linear with a
state-free coefficient the pivot is extracted and divided out; anything
else is rejected.  A vanishing pivot either contradicts the remaining
terms (no compatible analytic solution) or leaves the coefficient
undetermined, and both cases are reported as distinct errors.  A top-order
reference to another equation's variable (H2) never reaches the march:
``ReducedSystem`` refuses it when built.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import accumulate, repeat
from operator import mul

from . import expr as ex
from .problem import CauchyProblem, ValidityInterval
from .reduce import ReducedSystem, substitute_history
from .series import Record, Series, SeriesError, monomial, non_finite_coefficient, plain_sum

PIVOT_TOLERANCE = 1e-12
RESIDUAL_TOLERANCE = 1e-9


class EngineError(Exception):
    """Base class for marching failures."""


class EvalFailure(EngineError):
    """Series-domain error while expanding a right-hand side."""

    def __init__(self, var: int, k: int, message: str):
        super().__init__(
            f"equation {var}, marching index {k}: {message}"
        )
        self.var = var
        self.k = k


class NonlinearNeutral(EngineError):
    """A top-order proportionally delayed reference occurs outside the
    supported linear pattern."""

    def __init__(self, var: int, detail: str):
        super().__init__(f"equation {var}: {detail}")
        self.var = var


class ZeroPivot(EngineError):
    def __init__(
        self,
        var: int,
        k: int,
        pivot: float,
        residual: float,
        kind: str,
        label: str | None = None,
    ):
        super().__init__(
            f"equation {label or var}, marching index k={k}: zero pivot "
            f"({kind}); pivot = {pivot:.6g}, residual = {residual:.6g}"
        )
        self.var = var
        self.k = k
        self.pivot = pivot
        self.residual = residual
        self.partial_coeffs: tuple[tuple[float, ...], ...] | None = None


class ZeroPivotInconsistent(ZeroPivot):
    """Pivot vanished while the remaining terms do not: the problem admits
    no analytic solution consistent with the data at this order."""

    def __init__(self, var, k, pivot, residual, label=None):
        super().__init__(var, k, pivot, residual, "inconsistent", label)


class ZeroPivotUnderdetermined(ZeroPivot):
    """Pivot and remaining terms both vanished: the recurrence does not
    determine this coefficient."""

    def __init__(self, var, k, pivot, residual, label=None):
        super().__init__(var, k, pivot, residual, "underdetermined", label)


class ValidityError(ValueError):
    """Evaluation outside the validity interval in strict mode."""


class OracleError(Exception):
    """Failure of the reference integrator in ``oracle`` (domain error in the
    right-hand side, a non-finite solution, a step size it cannot use)."""


class ErrorEstimate(Record):
    """Heuristic truncation-error bound on [0, delta].

    Per variable, the first truncated coefficient a = |U(N+1)| is inflated
    by a geometric-tail guard based on the last observed coefficient ratio
    rho = |U(N+1)|/|U(N)|: bound = a * delta**(N+1) / (1 - rho*delta).
    The guard dominates the true tail whenever coefficient ratios keep
    shrinking (factorial-type series).  ``None`` entries mean the ratio
    was unavailable or too large to certify anything.
    """

    trunc_order: int
    delta: float
    bound: tuple[float | None, ...]


class PivotEntry(Record):
    var: int
    k: int
    pivot: float


class TaylorSolution(Record):
    var_names: tuple[str, ...]
    series: tuple[Series, ...]
    tail: tuple[float, ...]
    validity: ValidityInterval
    pivot_log: tuple[PivotEntry, ...] = ()

    @property
    def trunc_order(self) -> int:
        return self.series[0].trunc_order


# equation planning -------------------------------------------------------------

def _additive_terms(node: ex.Expr, sign: float = 1.0):
    if isinstance(node, ex.Add):
        yield from _additive_terms(node.left, sign)
        yield from _additive_terms(node.right, sign)
    elif isinstance(node, ex.Sub):
        yield from _additive_terms(node.left, sign)
        yield from _additive_terms(node.right, -sign)
    elif isinstance(node, ex.Neg):
        yield from _additive_terms(node.operand, -sign)
    else:
        yield sign, node


def _product_factors(node: ex.Expr, sign: float = 1.0):
    """Flatten a product into (sign, numerator factors, denominator factors)."""
    if isinstance(node, ex.Mul):
        s1, num1, den1 = _product_factors(node.left, sign)
        s2, num2, den2 = _product_factors(node.right, 1.0)
        return s1 * s2, num1 + num2, den1 + den2
    if isinstance(node, ex.Div):
        s1, num1, den1 = _product_factors(node.left, sign)
        return s1, num1, den1 + [node.right]
    if isinstance(node, ex.Neg):
        return _product_factors(node.operand, -sign)
    return sign, [node], []


def _plan_equation(reduced: ReducedSystem, var: int) -> tuple[list, list]:
    """Split one right-hand side into ordinary terms (sign, term) and
    linear neutral-proportional terms (sign, state-free coefficient,
    ratio), rejecting unsupported shapes.  The coefficient is Const(1)
    for a bare reference.  A reduced system delays every top-order
    reference proportionally, so each one is neutral."""
    n = reduced.order

    def neutral(node: ex.Expr) -> bool:
        return any(ref.deriv == n for ref in ex.iter_refs(node))

    plain, linear = [], []
    for sign, term in _additive_terms(reduced.equations[var - 1]):
        if not neutral(term):
            plain.append((sign, term))
            continue
        fsign, numerators, denominators = _product_factors(term, sign)
        refs = [f for f in numerators if neutral(f)]
        rest = [f for f in numerators if not neutral(f)]
        if any(map(neutral, denominators)):
            shape = "inside a denominator"
        elif len(refs) != 1 or not isinstance(refs[0], ex.StateRef):
            shape = "in a nonlinear position"
        elif any(next(ex.iter_refs(f), None) for f in rest + denominators):
            shape = "multiplied by a state-dependent factor"
        else:
            shape = None
        if shape:
            raise NonlinearNeutral(
                var,
                f"top-order delayed reference {shape}: {ex.pretty(term, reduced.var_names)}",
            )
        # rebuild the state-free coefficient as a plain product/quotient
        coefficient = reduce(ex.Div, denominators, reduce(ex.Mul, rest, ex.Const(1.0)))
        linear.append((fsign, coefficient, reduced.delay_map()[refs[0].delay].law.ratio))
    return plain, linear


# marching ------------------------------------------------------------------------

def transform_initial_conditions(problem: CauchyProblem | ReducedSystem) -> list[list[float]]:
    """Seed the coefficient table: index k holds the k-th derivative value
    divided by k! for k below the system order."""
    return [
        [value / math.factorial(k) for k, value in enumerate(row)]
        for row in problem.init
    ]


def _lower(reduced: ReducedSystem, table, rounds: int) -> tuple[list[tuple], list[int]]:
    """Plan every equation, then lower each onto an ``expr.SeriesTape``
    whose state references read the coefficient table.  Returns per
    equation (var, tape, plain, neutral, table row), with (sign, coefficients)
    per ordinary term and (sign, coefficients, ratio powers) per neutral
    term, and the scales (k+n)!/k! of rounds 0..rounds-1."""
    plans = [_plan_equation(reduced, var) for var in range(1, reduced.num_vars + 1)]
    time = tuple(1.0 if k == 1 else 0.0 for k in range(rounds))  # t
    perms = cache(lambda d: [math.perm(k + d, d) for k in range(rounds)])  # (k+d)!/k!
    # q**k as a running product per delay; neutral terms use ratio**k, not bit-equal to it
    running = {
        d.id: list(accumulate(repeat(d.law.ratio, rounds - 1), mul, initial=1.0))
        for d in reduced.delays
    }

    def leaf(ref: ex.StateRef):
        """u^(d)(q t): coefficient k is q**k * (k+d)!/k! * table[k+d]."""
        row, d = table[ref.var - 1], ref.deriv
        q = running.get(ref.delay)  # None for an undelayed reference
        if not d:
            return row.__getitem__ if q is None else lambda k: q[k] * row[k]
        p = perms(d)
        if q is None:
            return lambda k: p[k] * row[k + d]
        return lambda k: q[k] * (p[k] * row[k + d])

    lowered = []
    for var, (plain_terms, neutral_terms) in enumerate(plans, start=1):
        tape = ex.SeriesTape(time, leaf)
        plain = [(sign, tape.lower(term)) for sign, term in plain_terms]
        neutral = [
            (sign, tape.lower(coefficient), [ratio**j for j in range(rounds)])
            for sign, coefficient, ratio in neutral_terms
        ]
        lowered.append((var, tape, plain, neutral, table[var - 1]))
    return lowered, perms(reduced.order)


def _march_round(reduced: ReducedSystem, lowered, scales, k: int, pivot_log) -> list[float]:
    """Round k of the march: append coefficient k to every node of every
    equation and return the coefficients at index k+n of all variables,
    each checked to be finite; rounds 0..k-1 must have run.  A neutral
    equation folds in the neutral terms' known part, which reads table
    entries k+n-1 down to n, and divides by their pivot."""
    n = reduced.order
    new = []
    for var, tape, plain, neutral, row in lowered:
        try:
            tape.fill(k)
        except SeriesError as exc:
            raise EvalFailure(var, k, str(exc)) from None
        value = 0.0
        for sign, out in plain:
            value += sign * out[k]
        scale = scales[k]
        if neutral:
            pivot = 1.0
            for sign, coeff, powers in neutral:
                pivot -= sign * coeff[0] * powers[k]
                if k:
                    # sum over l = 1..k of sign * coeff[l] * ratio**(k-l)
                    # * (k-l+n)!/(k-l)! * table[k-l+n], in increasing l
                    terms = map(mul, repeat(sign, k), coeff[1 : k + 1])
                    terms = map(mul, terms, powers[k - 1 :: -1])
                    terms = map(mul, terms, scales[k - 1 :: -1])
                    terms = map(mul, terms, row[k + n - 1 : n - 1 : -1])
                    value = plain_sum(terms, value)
            pivot_log.append(PivotEntry(var=var, k=k, pivot=pivot))
            if abs(pivot) < PIVOT_TOLERANCE:
                inconsistent = abs(value) > RESIDUAL_TOLERANCE
                failure = ZeroPivotInconsistent if inconsistent else ZeroPivotUnderdetermined
                raise failure(var, k, pivot, value, reduced.var_names[var - 1])
            scale = scale * pivot
        value /= scale
        if not math.isfinite(value):
            raise EvalFailure(var, k, str(non_finite_coefficient(value, k + n)))
        new.append(value)
    return new


def solve(problem: CauchyProblem, *, trunc_order: int | None = None) -> TaylorSolution:
    """Full pipeline: structural checks, history substitution, coefficient
    marching, one extra coefficient for error estimation.

    On a marching failure the raised error carries the coefficients
    computed so far.
    """
    return solve_reduced(substitute_history(problem, trunc_order=trunc_order))


def solve_reduced(reduced: ReducedSystem) -> TaylorSolution:
    """March an already-reduced system."""
    n = reduced.order
    target = reduced.trunc_order
    table = transform_initial_conditions(reduced)
    for var, row in enumerate(table, start=1):
        for i, value in enumerate(row):
            if not math.isfinite(value):
                raise EvalFailure(var, 0, str(non_finite_coefficient(value, i)))
    # one extra coefficient beyond the target, for the error estimate
    rounds = target + 2 - n
    lowered, scales = _lower(reduced, table, rounds)
    pivot_log: list[PivotEntry] = []
    try:
        for k in range(rounds):
            for row, value in zip(table, _march_round(reduced, lowered, scales, k, pivot_log)):
                row.append(value)
    except ZeroPivot as exc:
        exc.partial_coeffs = tuple(tuple(row) for row in table)
        raise
    return TaylorSolution(
        var_names=reduced.var_names,
        series=tuple(Series(tuple(row[: target + 1])) for row in table),
        tail=tuple(row[target + 1] for row in table),
        validity=reduced.validity,
        pivot_log=tuple(pivot_log),
    )


def estimate_error(solution: TaylorSolution, delta: float) -> ErrorEstimate:
    """Attachable truncation-error estimate; see ErrorEstimate."""
    if not 0 < delta <= solution.validity.upper:
        raise ValueError(
            f"delta must lie in (0, {solution.validity.upper:g}], got {delta!r}"
        )
    target = solution.trunc_order
    bounds: list[float | None] = []
    for series, tail in zip(solution.series, solution.tail):
        first_truncated, last_kept = abs(tail), abs(series.coeffs[target])
        ratio = first_truncated / last_kept if last_kept else math.inf
        if first_truncated == 0.0:
            bounds.append(0.0)
        elif ratio * delta >= 1.0:
            bounds.append(None)
        else:
            guard = 1.0 / (1.0 - ratio * delta)
            try:
                bounds.append(first_truncated * guard * delta ** (target + 1))
            except OverflowError:  # delta**(N+1) alone is past a double, about e**709.78
                log_bound = math.log(first_truncated * guard) + (target + 1) * math.log(delta)
                bounds.append(math.exp(log_bound) if log_bound < 709.78 else None)
    return ErrorEstimate(trunc_order=target, delta=delta, bound=tuple(bounds))


def evaluate_solution(
    solution: TaylorSolution, t: float, *, unchecked: bool = False
) -> tuple[float, ...]:
    """Value of every variable's truncated polynomial at t.  Strict mode
    refuses points outside [0, validity.upper]."""
    if not unchecked and not 0.0 <= t <= solution.validity.upper:
        raise ValidityError(
            f"t = {t:g} lies outside the validity interval "
            f"[0, {solution.validity.upper:g}]"
        )
    return tuple(s.evaluate(t) for s in solution.series)


def residual_coefficients(
    reduced: ReducedSystem, solution: TaylorSolution
) -> tuple[Series, ...]:
    """Left-hand side minus right-hand side of every equation, expanded
    over series arithmetic with the computed solution substituted.  All
    references (including top-order delayed ones) are served from the
    computed coefficients."""
    n = reduced.order
    target = solution.trunc_order
    if target < n:
        raise ValueError("solution is too short to form a residual")
    order = target - n
    specs = reduced.delay_map()
    t_r = monomial(1, order)

    def resolve(ref: ex.StateRef) -> Series:
        prefix = solution.series[ref.var - 1].truncated(order + ref.deriv)
        out = prefix.differentiate(ref.deriv)
        if ref.delay is not None:
            out = out.scale_arg(specs[ref.delay].law.ratio)
        return out

    return tuple(
        ex.eval_series(ex.Sub(ex.KnownSeries(lhs.differentiate(n)), equation), t_r, resolve)
        for lhs, equation in zip(solution.series, reduced.equations)
    )
