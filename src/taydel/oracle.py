"""Independent numerical reference: fixed-step RK4 with cubic-Hermite
dense output.

The reduced system is converted to first order; the state vector stacks,
per variable, the value and derivatives up to order n-1.  Proportional
lookups u^(d)(q*t) with d <= n-1 are served from the dense trajectory
already computed (they always point backwards since q < 1), so the
integrator needs no knowledge of the recurrence solver it validates.
Each RK4 step computes them, once per (ratio, component), and the history
leaves, by one generated function, at t0 + h/2 for k2 and k3 and at
t0 + h for k4 and the end-of-step slope.  The right-hand sides and the
derivative shifts of the first-order form run as one function that
``expr.compile_numeric`` generates per system, one call per stage, which
reads those values from a slot array.
Top-order references under a proportional delay are outside this
integrator's scope and are rejected up front.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable

from . import expr as ex
from .engine import OracleError, TaylorSolution
from .reduce import ReducedSystem
from .series import Record, Series


# The most RK4 steps one reference integration may take, refused before it
# starts: a hundred times the steps of ``taydel compare``'s default
# ``--h 1e-3`` on [0, 1].  At this budget the scalar u' = u(t/2) - u took
# 0.7-1.2 s and 23 MiB of resident memory, and fixtures/example1.fde (three
# variables) 1.2-1.7 s and 38 MiB, on one core of an x86-64 Xeon, CPython
# 3.11 (three runs each on a shared host).
MAX_REFERENCE_STEPS = 100_000

# The most grid points one comparison may sample: fifty times ``taydel
# compare``'s default ``--samples 200``.  fixtures/example1.fde compared
# 10,000 samples in 0.03-0.05 s at N = 10 and 0.17-0.29 s at N = 500
# (100,000: 0.31-0.42 s and 1.9-2.2 s; at N = 500 most of it is Horner over
# the three series, which stop at their last nonzero coefficient, 178, 157
# and 225 of 501), on one core of an x86-64 Xeon, CPython 3.11.
MAX_COMPARE_SAMPLES = 10_000


class OracleRestriction(OracleError):
    """The system contains a term the reference integrator cannot handle."""


class DenseTrajectory(Record):
    """Grid solution with enough node data for cubic-Hermite evaluation
    anywhere in [0, T]: state vectors and their time derivatives at the
    nodes.  Immutable once built; sampling is thread-safe."""

    order: int
    var_names: tuple[str, ...]
    step_size: float
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    derivs: tuple[tuple[float, ...], ...]
    extrapolated_lookups: int = 0

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def num_vars(self) -> int:
        return len(self.var_names)


def _hermite_weights(t0, h, t):
    """Weights a, b, c, d of the cubic-Hermite interpolant on [t0, t0 + h]
    at t: the value is a*y0 + b*d0 + c*y1 + d*d1."""
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h, -2 * s3 + 3 * s2, (s3 - s2) * h


def _leaf_evaluator(leaves: list[tuple[int, Series]], size: int) -> Callable[[float], list[float]]:
    """One generated function of t: ``size`` floats, each history leaf's value
    in its slot and 0.0 elsewhere, by ``Series.evaluate``'s Horner steps as
    statements (nested parentheses pass CPython's limit at N = 500)."""
    body = [f"v = [0.0] * {size:d}"]
    for slot, series in leaves:
        top, *rest = series.horner_terms
        body.append(f"a = 0.0 * t + {top!r}")
        body += [f"a = a * t + {c!r}" for c in rest]
        body.append(f"v[{slot:d}] = a")
    scope: dict = {}
    exec("def f(t):\n    " + "\n    ".join(body + ["return v"]), scope)
    return scope["f"]


def check_supported(reduced: ReducedSystem) -> None:
    for var, equation in enumerate(reduced.equations, start=1):
        for ref in ex.iter_refs(equation):
            if ref.deriv >= reduced.order:
                raise OracleRestriction(
                    f"equation {var}: top-order delayed reference "
                    f"{ex.pretty(ref, reduced.var_names)} is outside the "
                    "reference integrator's scope"
                )


def reference_steps(step_size: float, horizon: float) -> int:
    """The RK4 steps that cover [0, horizon] at ``step_size``, the last one
    possibly shorter."""
    if not step_size > 0:
        raise OracleError(f"step size must be positive, got {step_size!r}")
    if step_size == math.inf:
        raise OracleError(f"step size must be finite, got {step_size!r}")
    if not math.isfinite(horizon / step_size):
        raise OracleError(f"step size {step_size!r} cuts [0, {horizon:g}] into too many steps")
    return max(1, math.ceil(round(horizon / step_size, 9)))


def integrate_reference(
    reduced: ReducedSystem, step_size: float, horizon: float
) -> DenseTrajectory:
    """March the first-order form of the system with classical RK4.

    Proportional lookups landing inside the step currently being computed
    use the previous step's Hermite polynomial, extrapolated; this happens
    only for ratios close to 1 and keeps the O(h^4) error budget.  The
    very first step has no predecessor, so it is computed three times,
    feeding each pass's Hermite polynomial to the next (the fixed point of
    that iteration has full order).
    """
    if not 0 < horizon <= reduced.validity.upper + 1e-12:
        raise OracleError(
            f"horizon must lie in (0, {reduced.validity.upper:g}], "
            f"got {horizon!r}"
        )
    steps = reference_steps(step_size, horizon)
    if steps > MAX_REFERENCE_STEPS:
        raise OracleError(
            f"step size {step_size!r} cuts [0, {horizon:g}] into {steps} steps, "
            f"more than the budget of {MAX_REFERENCE_STEPS}"
        )
    check_supported(reduced)
    n = reduced.order
    p = reduced.num_vars
    specs = reduced.delay_map()

    times: list[float] = [0.0]
    states: list[tuple[float, ...]] = [
        tuple(reduced.init[j][d] for j in range(p) for d in range(n))
    ]
    derivs: list[tuple[float, ...]] = []
    extrapolations = 0
    # Hermite data (t0, h, y0, d0, y1, d1) of the step in progress, for
    # lookups beyond the front; only the lookups at t = 0 run without
    data = None
    # one slot per distinct proportional (ratio, component), grouped by
    # ratio, and one per history leaf node; uses[ratio] counts the
    # references that read its slots.  A leaf is keyed by identity: reduce
    # gives one node to the references to one (variable, order, delay), and
    # two equal series can differ in the sign of a zero they evaluate to
    slots: dict[object, int] = {}
    groups: dict[float, list[tuple[int, int]]] = {}
    uses: dict[float, int] = {}
    leaves: list[tuple[int, Series]] = []

    def leaf(ref: ex.StateRef | ex.KnownSeries) -> tuple[str, int]:
        # the generated function reads y, the state, and dv, the other values
        if isinstance(ref, ex.KnownSeries):
            slot = slots.get(id(ref))
            if slot is None:
                slot = slots[id(ref)] = len(slots)
                leaves.append((slot, ref.series))
            return "dv", slot
        component = (ref.var - 1) * n + ref.deriv
        if ref.delay is None:
            return "y", component
        ratio = specs[ref.delay].law.ratio
        slot = slots.get((ratio, component))
        if slot is None:
            slot = slots[ratio, component] = len(slots)
            groups.setdefault(ratio, []).append((slot, component))
        uses[ratio] = uses.get(ratio, 0) + 1
        return "dv", slot

    # per variable, the shifts u^(d)' = u^(d+1) for d < n-1, then its equation
    generated = ex.compile_numeric([
        row for j, equation in enumerate(reduced.equations, start=1)
        for row in [*(ex.StateRef(j, d + 1) for d in range(n - 1)), equation]
    ], leaf)
    leaf_values = _leaf_evaluator(leaves, len(slots))

    def lookups(t: float) -> tuple[list[float], int]:
        # dv at t, and how many references read an extrapolated value: q*t,
        # 0 < q < 1, is past the last node only within the step in progress
        values = leaf_values(t)
        count = 0
        front = times[-1]
        for ratio, members in groups.items():
            s = ratio * t
            if s <= front:
                i = bisect.bisect_right(times, s) - 1
                if i >= len(times) - 1:
                    for slot, component in members:
                        values[slot] = states[-1][component]
                    continue
                t0, h = times[i], times[i + 1] - times[i]
                y0, d0, y1, d1 = states[i], derivs[i], states[i + 1], derivs[i + 1]
            else:
                count += uses[ratio]
                t0, h, y0, d0, y1, d1 = data
            a, b, c, d = _hermite_weights(t0, h, s)
            for slot, k in members:
                values[slot] = a * y0[k] + b * d0[k] + c * y1[k] + d * d1[k]
        return values, count

    def rk4_step(t0: float, y0: tuple[float, ...], h: float, k1):
        # the state at t0 + h and its slope; lookups depend on the time and the
        # step in progress only, and each use counts their extrapolations
        nonlocal extrapolations
        half, sixth = h / 2, h / 6
        mid, count = lookups(t0 + half)
        end, count_end = lookups(t0 + h)
        extrapolations += 2 * (count + count_end)
        k2 = generated(t0 + half, [y + half * k for y, k in zip(y0, k1)], mid)
        k3 = generated(t0 + half, [y + half * k for y, k in zip(y0, k2)], mid)
        k4 = generated(t0 + h, [y + h * k for y, k in zip(y0, k3)], end)
        y1 = tuple([
            y + sixth * (a + 2 * b + 2 * c + d)
            for y, a, b, c, d in zip(y0, k1, k2, k3, k4)
        ])
        return y1, generated(t0 + h, y1, end)

    try:
        for i in range(steps):
            t0 = i * step_size
            h = min(step_size, horizon - t0)  # positive: steps keeps t0 < horizon
            y0 = states[-1]
            if i == 0:
                # no previous step to extrapolate from: iterate the step,
                # feeding each pass's Hermite polynomial to the next (the
                # fixed point of this map has the integrator's full order);
                # nothing extrapolates at t = 0
                d0 = generated(0.0, y0, lookups(0.0)[0])
                y1 = tuple(y + h * d for y, d in zip(y0, d0))  # Euler predictor
                d1 = d0
                for _ in range(3):
                    data = (0.0, h, y0, d0, y1, d1)
                    y1, d1 = rk4_step(0.0, y0, h, d0)
                derivs.append(d0)
            else:
                data = (times[-2], times[-1] - times[-2], states[-2], derivs[-2], y0, derivs[-1])
                y1, d1 = rk4_step(t0, y0, h, derivs[-1])
            times.append(t0 + h)
            states.append(y1)
            derivs.append(d1)
    except ex.EvaluationError as exc:
        what = exc.describe(reduced.var_names)
        raise OracleError(f"equation {exc.index // n + 1}: {what} at t = {exc.t:g}") from None

    # an RK4 update keeps inf and NaN, so a non-finite node leaves the last
    # one non-finite; only then is the first one looked for
    if not all(map(math.isfinite, states[-1] + derivs[-1])):
        first = next(
            t for t, y, d in zip(times, states, derivs) if not all(map(math.isfinite, y + d))
        )
        raise OracleError(f"the reference solution is not finite at t = {first:g}")
    return DenseTrajectory(
        order=n,
        var_names=reduced.var_names,
        step_size=step_size,
        times=tuple(times),
        states=tuple(states),
        derivs=tuple(derivs),
        extrapolated_lookups=extrapolations,
    )


def sample(traj: DenseTrajectory, t: float, deriv: int = 0) -> tuple[float, ...]:
    """Per-variable value of the deriv-th derivative at t, by cubic-Hermite
    interpolation within the enclosing step.  Derivatives up to order n-1
    are state components; their node slopes come from the stored
    right-hand-side evaluations."""
    if deriv < 0 or deriv >= traj.order:
        raise OracleError(
            f"derivative order must lie in 0..{traj.order - 1}, got {deriv}"
        )
    if not 0.0 <= t <= traj.horizon + 1e-12:
        raise OracleError(
            f"t = {t:g} outside the integrated range [0, {traj.horizon:g}]"
        )
    times = traj.times
    i = bisect.bisect_right(times, t) - 1
    if i >= len(times) - 1:
        i = len(times) - 2
    a, b, c, d = _hermite_weights(times[i], times[i + 1] - times[i], t)
    y0, d0, y1, d1 = traj.states[i], traj.derivs[i], traj.states[i + 1], traj.derivs[i + 1]
    out = []
    for k in range(deriv, traj.num_vars * traj.order, traj.order):
        out.append(a * y0[k] + b * d0[k] + c * y1[k] + d * d1[k])
    return tuple(out)


def compare(
    solution: TaylorSolution,
    traj: DenseTrajectory,
    interval: tuple[float, float],
    samples: int,
) -> tuple[float, ...]:
    """Maximum absolute difference per variable between the truncated
    polynomial solution and the dense reference over an equidistant grid."""
    a, b = interval
    if not (0.0 <= a < b <= min(traj.horizon, solution.validity.upper) + 1e-12):
        raise OracleError(
            f"comparison interval [{a:g}, {b:g}] must lie inside "
            f"[0, {min(traj.horizon, solution.validity.upper):g}]"
        )
    if samples < 2:
        raise OracleError(f"need at least 2 samples, got {samples}")
    # evaluate_solution(solution, t, unchecked=True) against sample(traj,
    # t, 0), with the same arithmetic, walked without their per-call work
    times, states, derivs = traj.times, traj.states, traj.derivs
    last, end = len(times) - 2, traj.horizon + 1e-12
    columns = [(j, j * traj.order, s.evaluate) for j, s in enumerate(solution.series)]
    worst = [0.0] * traj.num_vars
    for i in range(samples):
        t = a + (b - a) * i / (samples - 1)
        if not 0.0 <= t <= end:
            raise OracleError(f"t = {t:g} outside the integrated range [0, {traj.horizon:g}]")
        k = bisect.bisect_right(times, t) - 1
        if k > last:
            k = last
        p, q, r, s = _hermite_weights(times[k], times[k + 1] - times[k], t)
        y0, d0, y1, d1 = states[k], derivs[k], states[k + 1], derivs[k + 1]
        for j, c, evaluate in columns:
            v = p * y0[c] + q * d0[c] + r * y1[c] + s * d1[c]
            worst[j] = max(worst[j], abs(evaluate(t) - v))
    return tuple(worst)
