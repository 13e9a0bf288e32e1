#!/usr/bin/env python3
"""Truncation-order sweep on the exponential example: measured error on
[0, 0.5] against the attached bound, showing the factorial decay.

Run from the repository root:  python scripts/convergence_study.py
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout without installing

from taydel import estimate_error, solve  # noqa: E402
from taydel.problemfile import load_problem  # noqa: E402

FIXTURES = ROOT / "fixtures"


def main() -> int:
    problem = load_problem(FIXTURES / "example1.fde")
    delta = 0.5
    grid = [delta * i / 400 for i in range(401)]
    print(f"{'N':>3} {'measured':>12} {'bound':>12} {'bound/measured':>15}")
    previous = None
    for order in range(2, 15, 2):
        solution = solve(problem, trunc_order=order)
        estimate = estimate_error(solution, delta)
        measured = max(
            abs(math.exp(t) - solution.series[0].evaluate(t)) for t in grid
        )
        bound = estimate.bound[0]
        ratio = bound / measured if measured else float("inf")
        decay = f"  ({previous / measured:.0f}x down)" if previous else ""
        print(f"{order:>3} {measured:>12.3e} {bound:>12.3e} {ratio:>15.2f}{decay}")
        previous = measured
    return 0


if __name__ == "__main__":
    sys.exit(main())
