"""Print one sha256 over everything the solver and the reference compute
for a fixed set of problems, so that two versions of taydel can be checked
for bit-identical output.

The problems are the fixtures, seeds 1-30 of the benchmark's march,
history and validate families, a few histories that history substitution
must refuse, alone and in sums, so that which failure is reported first
is pinned too, and one march that overflows.  Each is solved at N = 20
and 40 (the coefficient tables, tails, pivot trail and truncation
bounds), and at N = 10 integrated by the RK4 reference at h = 2e-3 and
compared with the reference on 200 samples (the trajectory, its
extrapolation count and the compare errors).  Numbers are hashed as ``float.hex`` and a failure as its
class name and text, so renaming a field or changing a ``repr`` moves no
hash.

    python scripts/differential.py            # one sha256
    python scripts/differential.py --cases    # one sha256 per case, then the total
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import families  # noqa: E402
from taydel.engine import estimate_error, solve_reduced  # noqa: E402
from taydel.oracle import compare, integrate_reference  # noqa: E402
from taydel.problemfile import load_problem, parse_problem  # noqa: E402
from taydel.reduce import substitute_history  # noqa: E402

SEEDS = range(1, 31)
TABLE_ORDERS = (20, 40)
REFERENCE_ORDER, REFERENCE_STEP, REFERENCE_SAMPLES = 10, 2e-3, 200

# Behind a constant lag of 1 the history is expanded about t = -1: there
# the reciprocal's coefficient 34 overflows, and ln fails at index 0.  A
# sum of the two reports the ln failure in either order.  A product by a
# constant overflows at index 0, in a history leaf with the constant on
# the right and in the march with it on the left.
REFUSED = (
    "order = 1\nvars = u\ndelay c = constant(1)\neq u' = u@c\nphi u = {}\n"
    "init u = [1]\nhorizon = 1\ntaylor_order = 20\n"
)
REFUSED_HISTORIES = (
    ("overflow", "1/(t + 1.000000001)"),
    ("ln", "ln(t + 1/2)"),
    ("overflow+ln", "1/(t + 1.000000001) + ln(t + 1/2)"),
    ("ln+overflow", "ln(t + 1/2) + 1/(t + 1.000000001)"),
    ("scaled", "(t + 1e10) * 1e300"),
)
REFUSED_MARCH = (
    "order = 1\nvars = u\ndelay h = proportional(1/2)\neq u' = 1e300 * u@h - u\n"
    "init u = [1e10]\nhorizon = 1\ntaylor_order = 20\n"
)


def problems() -> list[tuple[str, object]]:
    """(name, parsed problem) for every problem, in a fixed order."""
    out = [(path.stem, load_problem(path)) for path in sorted((ROOT / "fixtures").glob("*.fde"))]
    for family in (families.march_family, families.history_family, families.validate_family):
        for seed in SEEDS:
            out += [(f"{p.name}/{seed}", parse_problem(p.text)) for p in family(seed)]
    for name, phi in REFUSED_HISTORIES:
        out.append((f"refused/{name}", parse_problem(REFUSED.format(phi))))
    out.append(("refused/march-scaled", parse_problem(REFUSED_MARCH)))
    return out


def numbers(values) -> str:
    return ",".join(map(float.hex, values))


def table_lines(problem, order: int) -> list[str]:
    reduced = substitute_history(problem, trunc_order=order)
    solution = solve_reduced(reduced)
    lines = [numbers(series.coeffs) for series in solution.series]
    lines.append("tail " + numbers(solution.tail))
    lines += [f"pivot {e.var} {e.k} {e.pivot.hex()}" for e in solution.pivot_log]
    estimate = estimate_error(solution, reduced.validity.upper)
    bounds = ("none" if b is None else b.hex() for b in estimate.bound)
    lines.append(f"bound {estimate.delta.hex()} " + ",".join(bounds))
    return lines


def reference_lines(problem) -> list[str]:
    reduced = substitute_history(problem, trunc_order=REFERENCE_ORDER)
    solution = solve_reduced(reduced)
    upper = reduced.validity.upper
    trajectory = integrate_reference(reduced, REFERENCE_STEP, upper)
    lines = [
        f"{t.hex()}|{numbers(y)}|{numbers(d)}"
        for t, y, d in zip(trajectory.times, trajectory.states, trajectory.derivs)
    ]
    lines.append(f"extrapolated {trajectory.extrapolated_lookups}")
    lines.append("errors " + numbers(compare(solution, trajectory, (0.0, upper), REFERENCE_SAMPLES)))
    return lines


def case_hashes() -> list[tuple[str, str]]:
    """(case name, sha256 of its text) for every case, in a fixed order."""
    cases = []
    for name, problem in problems():
        runs = [(f"{name}@N{order}", table_lines, (problem, order)) for order in TABLE_ORDERS]
        runs.append((f"{name}@ref", reference_lines, (problem,)))
        for case, run, args in runs:
            try:
                lines = run(*args)
            except Exception as exc:  # the failure is part of the output
                lines = [f"{type(exc).__name__}: {exc}"]
            cases.append((case, hashlib.sha256("\n".join(lines).encode()).hexdigest()))
    return cases


def total(cases: list[tuple[str, str]]) -> str:
    return hashlib.sha256("".join(f"{c} {h}\n" for c, h in cases).encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", action="store_true", help="print one hash per case first")
    args = parser.parse_args()
    cases = case_hashes()
    if args.cases:
        for case, digest in cases:
            print(case, digest)
    print(total(cases))


if __name__ == "__main__":
    main()
