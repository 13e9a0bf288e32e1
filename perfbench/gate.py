"""Correctness gate: decides whether one problem run failed.

A run fails when its exit code or exception class differs from the
expected one, when stderr holds a traceback (or, for an expected error,
is not exactly one line), when a coefficient is non-finite, when a
residual coefficient of the equations with the table substituted back
exceeds ``RESIDUAL_LIMIT``, or when a measured reference error exceeds
``max(bound, ORACLE_NOISE_FLOOR)``.

Failures are labelled ``error`` (the program refused or crashed) or
``wrong`` (it returned numbers that do not satisfy the equations or the
reference); only ``wrong`` makes a run's output incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from taydel.engine import TaylorSolution, residual_coefficients
from taydel.reduce import ReducedSystem
from taydel.series import Series

# the bar tests/test_engine.py applies to marched tables
RESIDUAL_LIMIT = 1e-10
# the floor `taydel compare` applies before blaming the truncation bound
ORACLE_NOISE_FLOOR = 1e-9


@dataclass(frozen=True)
class Failure:
    kind: str  # "error" or "wrong"
    reason: str


def table_failures(reduced: ReducedSystem, rows) -> list[Failure]:
    """Check a coefficient table (one row per variable, ``None`` for a
    value the program could not serialise) against the reduced system."""
    for name, row in zip(reduced.var_names, rows):
        for k, value in enumerate(row):
            if value is None or not math.isfinite(value):
                return [Failure("wrong", f"non-finite coefficient {name}[{k}]")]
    solution = TaylorSolution(
        var_names=reduced.var_names,
        series=tuple(Series(tuple(row)) for row in rows),
        tail=(0.0,) * len(rows),
        validity=reduced.validity,
    )
    worst = 0.0
    for residual in residual_coefficients(reduced, solution):
        # the last index is excluded, as in the engine's own residual tests
        for value in residual.coeffs[: residual.trunc_order]:
            worst = max(worst, abs(value))
    if not worst <= RESIDUAL_LIMIT:
        return [Failure("wrong", f"residual coefficient {worst:.3g} > {RESIDUAL_LIMIT:g}")]
    return []


def compare_failures(var_names, errors, bounds) -> list[Failure]:
    """Reference errors against the truncation bound; a ``None`` bound is
    uncertified and, as in ``taydel compare``, not checked."""
    bad = [
        f"{name}: error {err:.3g} > bound {bound:.3g}"
        for name, err, bound in zip(var_names, errors, bounds)
        if bound is not None and not err <= max(bound, ORACLE_NOISE_FLOOR)
    ]
    return [Failure("wrong", "; ".join(bad))] if bad else []


def exit_failures(expected: int, returncode: int, stderr: str) -> list[Failure]:
    out = []
    if "Traceback (most recent call last)" in stderr:
        out.append(Failure("error", "traceback on stderr"))
    if returncode != expected:
        out.append(Failure("error", f"exit code {returncode}, expected {expected}"))
    elif expected != 0 and len(stderr.strip().splitlines()) != 1:
        out.append(Failure("error", "error message is not one stderr line"))
    return out


def exception_failures(exc: BaseException | None) -> list[Failure]:
    if exc is None:
        return []
    return [Failure("error", f"raised {type(exc).__name__}: {exc}")]


def table_digest(rows) -> str:
    """Coefficients as ``taydel solve`` prints them, 17 significant digits."""
    return ";".join(
        ",".join("null" if c is None else f"{float(c):.17g}" for c in row)
        for row in rows
    )
