"""Metamorphic relations that hold bit for bit.

Renaming: reversing the ``vars`` line and the order of the ``eq``, ``init``
and ``phi`` lines of a problem file describes the same problem.  Every
coefficient table, tail, pivot and RK4 reference trajectory must then be
the same per variable name, bit for bit, with the same count of
extrapolated lookups, and a failure must have the same class (and, for a
marching failure, the same variable and index).  This catches
variable-index slips and order dependence, such as a cache keyed without
the variable.
"""

import sys
from pathlib import Path

import pytest

from taydel.engine import solve_reduced
from taydel.oracle import integrate_reference
from taydel.problemfile import parse_problem
from taydel.reduce import substitute_history

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402

FAMILIES = {
    "march": families.march_family,
    "history": families.history_family,
    "validate": families.validate_family,
}
SEEDS = range(1, 11)
REFERENCE_STEP = 2e-2


def renamed(text: str) -> str:
    """The problem file with its variables and their lines in reverse order."""
    lines = text.splitlines()
    for key in ("eq", "init", "phi"):
        at = [i for i, line in enumerate(lines) if line.split(" ", 1)[0] == key]
        for i, line in zip(at, [lines[i] for i in reversed(at)]):
            lines[i] = line
    for i, line in enumerate(lines):
        if line.split(" ", 1)[0] == "vars":
            names = [name.strip() for name in line.split("=", 1)[1].split(",")]
            lines[i] = "vars = " + ", ".join(reversed(names))
    return "\n".join(lines) + "\n"


def failure(exc: Exception, names) -> tuple:
    # the first of several offending references depends on the equation
    # order, so a failure compares by class, and by variable and index
    # where it names them
    var = getattr(exc, "var", None)
    return (type(exc).__name__, var and names[var - 1], getattr(exc, "k", None))


def outcome(text: str) -> dict:
    """Every result of the pipeline, keyed by variable name."""
    try:
        reduced = substitute_history(parse_problem(text))
    except Exception as exc:
        return {"reduce": failure(exc, ())}
    names, n = reduced.var_names, reduced.order
    out = {}
    try:
        solution = solve_reduced(reduced)
    except Exception as exc:
        out["table"] = failure(exc, names)
    else:
        out["table"] = {
            name: (repr(series.coeffs), repr(tail))
            for name, series, tail in zip(names, solution.series, solution.tail)
        }
        out["pivots"] = sorted(
            (names[entry.var - 1], entry.k, repr(entry.pivot)) for entry in solution.pivot_log
        )
    try:
        trajectory = integrate_reference(reduced, REFERENCE_STEP, reduced.validity.upper)
    except Exception as exc:
        out["reference"] = failure(exc, names)
    else:
        out["reference"] = (
            repr(trajectory.times),
            trajectory.extrapolated_lookups,
            {
                name: (
                    repr([y[j * n:(j + 1) * n] for y in trajectory.states]),
                    repr([d[j * n:(j + 1) * n] for d in trajectory.derivs]),
                )
                for j, name in enumerate(names)
            },
        )
    return out


def test_renaming_reverses_the_lines():
    text = "order = 1\nvars = a, b\neq a' = b\neq b' = a\ninit a = [1]\ninit b = [2]\n"
    assert renamed(text) == (
        "order = 1\nvars = b, a\neq b' = a\neq a' = b\ninit b = [2]\ninit a = [1]\n"
    )


@pytest.mark.parametrize("family", ["fixtures", *FAMILIES])
def test_renamed_problems_give_the_same_results_per_name(fixtures_dir, family):
    if family == "fixtures":
        problems = [(p.stem, p.read_text()) for p in sorted(fixtures_dir.glob("*.fde"))]
    else:
        problems = [
            (f"{p.name}@{seed}", p.text) for seed in SEEDS for p in FAMILIES[family](seed)
        ]
    for name, text in problems:
        assert (name, outcome(renamed(text))) == (name, outcome(text))
