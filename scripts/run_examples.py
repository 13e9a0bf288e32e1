#!/usr/bin/env python3
"""Solve the bundled example problems and show coefficient tables next to
the reference integrator's verdict.

Run from the repository root:  python scripts/run_examples.py
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout without installing

from taydel import ZeroPivotInconsistent, solve, solve_reduced, substitute_history  # noqa: E402
from taydel.oracle import OracleRestriction, check_supported, compare, integrate_reference  # noqa: E402
from taydel.problemfile import load_problem  # noqa: E402

FIXTURES = ROOT / "fixtures"


def show(problem_path: Path) -> None:
    print(f"=== {problem_path.name} " + "=" * max(0, 50 - len(problem_path.name)))
    problem = load_problem(problem_path)
    reduced = substitute_history(problem)
    try:
        solution = solve_reduced(reduced)
    except ZeroPivotInconsistent as failure:
        print(f"marching stops: {failure}")
        for name, coeffs in zip(reduced.var_names, failure.partial_coeffs):
            print(f"  partial {name}: " + " ".join(f"{c:.6g}" for c in coeffs))
        print()
        return
    for name, series in zip(solution.var_names, solution.series):
        print(f"  {name}: " + " ".join(f"{c:.6g}" for c in series.coeffs[:9]))
    upper = solution.validity.upper
    print(f"  valid on [0, {upper:g}]  "
          f"(history extent {solution.validity.t_star:g})")
    try:
        check_supported(reduced)
    except OracleRestriction as exc:
        print(f"  reference integrator unavailable: {exc}")
        print()
        return
    horizon = min(upper, 0.5)
    trajectory = integrate_reference(reduced, 1e-3, horizon)
    errors = compare(solution, trajectory, (0.0, horizon), 200)
    for name, err in zip(solution.var_names, errors):
        print(f"  |engine - reference| on [0, {horizon:g}] for {name}: {err:.3e}")
    print()


def main() -> int:
    for name in ("example1.fde", "example2.fde", "example3.fde", "example3_u1.fde"):
        show(FIXTURES / name)
    # closed forms known for the first system: report the true error too
    problem = load_problem(FIXTURES / "example1.fde")
    solution = solve(problem, trunc_order=12)
    closed = (
        lambda t: math.exp(t),
        lambda t: math.exp(t / 2),
        lambda t: t * math.exp(3 * t),
    )
    print("closed-form check for example1 at t = 0.3:")
    for name, series, f in zip(solution.var_names, solution.series, closed):
        print(f"  {name}: |series - closed form| = "
              f"{abs(series.evaluate(0.3) - f(0.3)):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
