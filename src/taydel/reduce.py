"""History substitution: eliminate constant and time-dependent delays.

On the first interval every state reference whose delayed argument still
points into the history can be replaced by the history function itself.
This module performs that replacement at the series level: each such
reference becomes a known-series leaf holding the expansion of
``phi_j^(d)(alpha(t))`` about 0, leaving a system whose only remaining
delays are proportional.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import expr as ex
from .problem import (
    CauchyProblem,
    ConstantDelay,
    DelaySpec,
    ProblemError,
    TimeVaryingDelay,
    ValidityInterval,
    compute_validity,
)
from .series import Record, Series, compose_powers, non_finite_coefficient, power_table

# The largest truncation order a system is reduced to, refused before any
# work.  History substitution grows as N^3 per time-varying delay whose lag
# is no polynomial: on one core of an x86-64 Xeon (CPython 3.11) the order
# sweep's exp(-t)/2 system took 0.13 s to reduce at N = 250, 0.72 s at 500
# and 3.1 s at 1000; the benchmark's history systems, whose lags are
# polynomials, took at most 0.3 s to reduce at 1000.
MAX_TRUNCATION_ORDER = 500

# The most power-table work history substitution may take, refused before
# any table is built: each time-varying delay the equations reference costs
# one table of L = N + 2n + 3 coefficients and up to about L**3 operations,
# for a lag that is no polynomial; a polynomial lag's table costs O(L**2),
# but the budget counts every table at the worst case.  A lag the parser
# folded to a constant builds no table and is not counted.  The budget is
# two tables of a first-order system at N = 500.  On one core of an x86-64
# Xeon (CPython 3.11) one exp(-t)/k lag took 0.7 s to reduce there and two
# 1.5 s; four at N = 250 took 0.5 s and thirty at N = 100 0.4 s.
MAX_HISTORY_TABLE_WORK = 2 * 505**3


class ReducedSystem(Record):
    """System with proportional delays only; former constant and
    time-dependent delayed terms are known-series leaves built to order
    ``trunc_order + order`` at least, leaving headroom for derivative
    shifts during coefficient marching.  Construction checks every state
    reference once (``expr.analyze``); the march and the oracle rely on it."""

    order: int
    var_names: tuple[str, ...]
    equations: tuple[ex.Expr, ...]
    delays: tuple[DelaySpec, ...]
    init: tuple[tuple[float, ...], ...]
    trunc_order: int
    validity: ValidityInterval

    def __post_init__(self):
        for spec in self.delays:
            if not spec.proportional:
                raise ex.StructureError(
                    f"delay {spec.id!r} is not proportional; a reduced system "
                    "keeps only proportional delays"
                )
        ex.analyze(
            self.equations,
            order=self.order,
            num_vars=self.num_vars,
            delays={spec.id: True for spec in self.delays},
        )

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def delay_map(self) -> dict[str, DelaySpec]:
        return {d.id: d for d in self.delays}


def delay_argument_series(spec: DelaySpec, order: int) -> Series:
    """Expansion of the delayed argument t - lag about 0."""
    if spec.proportional:
        raise ProblemError(f"delay {spec.id!r} is proportional; its argument needs no expansion")
    law = spec.law
    lag = ex.Const(law.tau) if isinstance(law, ConstantDelay) else law.lag
    return ex.eval_series(ex.Sub(ex.TIME, lag), ex.time_series(order))


def history_leaf(phi: ex.Expr, deriv: int, argument: Series, order: int) -> Series:
    """Series of the deriv-th derivative of the history function evaluated
    along the delayed argument, through ``order``; see ``_leaf_builder``."""
    return _leaf_builder(argument.truncated(order).coeffs)(phi, deriv)


def _leaf_builder(argument: Sequence[float]) -> Callable[[ex.Expr, int], Series]:
    """The history leaves along one delayed argument, given by its
    coefficients through the leaf order: ``leaf(phi, deriv)`` is the series
    of phi^(deriv)(argument(t)), and every leaf shares one power table.

    Each leaf is built in two stages: first the history is expanded about
    the argument's value a0 at t = 0 (substituting ``t -> a0 + s``) and
    differentiated there, then ``s`` is substituted by the argument series
    minus ``a0``, whose zero constant term makes the polynomial composition
    exact through the truncation order.  This avoids differentiating user
    expressions symbolically.

    When that inner series is exactly ``t``, as for every constant lag, the
    composition reduces to ``0.0 + c`` per coefficient: every other term it
    adds is a signed zero, and the leading ``0.0 +`` turns ``-0.0`` into
    ``0.0`` as its accumulation does.
    """
    a0, tail = argument[0], tuple(argument[1:])  # subtracting a0 leaves the tail as it is
    order = len(tail)
    table = None if tail == (1.0,) + (0.0,) * (order - 1) else power_table((0.0,) + tail, order + 1)

    def leaf(phi: ex.Expr, deriv: int) -> Series:
        rounds = order + deriv + 1
        tape = ex.SeriesTape((a0, 1.0) + (0.0,) * (rounds - 2))
        expansion = tape.lower(phi)
        tape.run()
        shifted = [math.perm(k + deriv, deriv) * c for k, c in enumerate(expansion[deriv:rounds])]
        for k, c in enumerate(shifted):
            if not math.isfinite(c):
                raise non_finite_coefficient(c, k)
        if table is None:
            return Series(tuple(0.0 + c for c in shifted))
        return Series(tuple(compose_powers(table, shifted)))

    return leaf


def substitute_history(
    problem: CauchyProblem,
    *,
    trunc_order: int | None = None,
    validity: ValidityInterval | None = None,
) -> ReducedSystem:
    """Replace every constant/time-dependent delayed reference by the
    matching history-series leaf.  Proportional references and undelayed
    references pass through unchanged."""
    n = problem.order
    target = trunc_order if trunc_order is not None else problem.trunc_order
    if target < 1:
        raise ProblemError(f"truncation order must be at least 1, got {target}")
    if target > MAX_TRUNCATION_ORDER:
        raise ProblemError(
            f"truncation order must be at most {MAX_TRUNCATION_ORDER}, got {target}"
        )
    leaf_order = target + 2 * n + 2
    specs = problem.delay_map()
    varying = {  # a lag the parser folded to a constant builds no power table
        ref.delay
        for equation in problem.equations
        for ref in ex.iter_refs(equation)
        if ref.delay is not None
        and isinstance(specs[ref.delay].law, TimeVaryingDelay)
        and not isinstance(specs[ref.delay].law.lag, ex.Const)
    }
    allowed = MAX_HISTORY_TABLE_WORK // (leaf_order + 1) ** 3
    if len(varying) > allowed:
        raise ProblemError(
            f"history substitution at truncation order {target} expands at most "
            f"{allowed} time-varying delays, got {len(varying)}"
        )
    validity = validity or compute_validity(problem)
    builders: dict[str, Callable[[ex.Expr, int], Series]] = {}  # delay id -> _leaf_builder
    leaf_cache: dict[tuple[int, int, str], ex.KnownSeries] = {}

    def substitute(ref: ex.StateRef) -> ex.Expr:
        if ref.delay is None or specs[ref.delay].proportional:
            return ref
        key = (ref.var, ref.deriv, ref.delay)
        if key not in leaf_cache:
            if ref.delay not in builders:
                argument = delay_argument_series(specs[ref.delay], leaf_order)
                builders[ref.delay] = _leaf_builder(argument.coeffs)
            leaf_cache[key] = ex.KnownSeries(
                builders[ref.delay](problem.phi[ref.var - 1], ref.deriv)
            )
        return leaf_cache[key]

    return ReducedSystem(
        order=n,
        var_names=problem.var_names,
        equations=tuple(ex.map_refs(eq, substitute) for eq in problem.equations),
        delays=tuple(d for d in problem.delays if d.proportional),
        init=problem.init,
        trunc_order=target,
        validity=validity,
    )
