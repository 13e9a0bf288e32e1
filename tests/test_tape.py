"""Pins of the marching output.

The digests below are sha256 sums of the 17-digit coefficient tables,
tails and pivot trails that marching produced by re-expanding every
right-hand side over full series each round, before it ran on a compiled
tape.  The tape performs the same float operations in the same order, so
the tables are bit-identical, signed zeros included; a change to the
arithmetic of the march changes a digest.

Every coefficient sum adds its terms in order with plain float additions
(``series.plain_sum``; ``sum()`` of floats is compensated from CPython
3.12), so the digests hold on CPython 3.10 through 3.13.  The tables are
also compared in full with those printed by every other CPython 3.10 to
3.13 that starts, ``python3.N`` on PATH or else a pyenv build under
``$PYENV_ROOT/versions`` (``~/.pyenv`` by default), and each such
interpreter must print the same ``scripts/differential.py`` hash.
"""

import hashlib
import inspect
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from taydel.engine import EvalFailure, ZeroPivotInconsistent, solve
from taydel.problemfile import load_problem, parse_problem
from test_differential import DIFFERENTIAL_DIGEST, SCRIPT
from test_engine import random_system

FIXTURE_DIGESTS = {
    "example1": "c69197b0c113b670c862f2bfc0bf1c38ead26a6785f7834db6870a382a6517cd",
    "example2": "50c7801b1666fc51217df7fc74480a9ec330cfc0aa542de0b6196efcd33f08df",
    "example3_u1": "db51735c66ad1486430c5bbf34483f1904d6ec7283f5e87ac6b9f2dfbf7dd108",
}
RANDOM_DIGEST = "092b76f1df559eb80b318f3a968081ca0dc35e02282b1ab312030fbe8a60bf2a"


def outcome_text(solution) -> str:
    lines = []
    for name, series, tail in zip(solution.var_names, solution.series, solution.tail):
        lines.append(
            name + ":" + ",".join(f"{c:.17g}" for c in series.coeffs) + f"|{tail:.17g}"
        )
    for entry in solution.pivot_log:
        lines.append(f"pivot {entry.var} {entry.k} {entry.pivot:.17g}")
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_tables_match_recorded_digests(fixtures_dir, name):
    solution = solve(load_problem(fixtures_dir / f"{name}.fde"), trunc_order=60)
    assert sha256(outcome_text(solution)) == FIXTURE_DIGESTS[name]


# prints {path: outcome_text} for the problem files it is given
CHILD = inspect.getsource(outcome_text) + """
import json, sys
from taydel.engine import solve
from taydel.problemfile import load_problem
print(json.dumps({p: outcome_text(solve(load_problem(p), trunc_order=60)) for p in sys.argv[1:]}))
"""
SRC = Path(__file__).resolve().parent.parent / "src"


def interpreter(minor: int, env: dict) -> str | None:
    """The first of ``python3.<minor>`` on PATH and the pyenv builds of
    3.<minor> that starts.  A version manager's shim on PATH fails to start
    for a version it does not select, while the build itself runs."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    builds = sorted(root.glob(f"versions/3.{minor}.*/bin/python3.{minor}"))
    for exe in [shutil.which(f"python3.{minor}"), *map(str, builds)]:
        if exe is not None:
            probe = subprocess.run([exe, "-c", "pass"], capture_output=True, env=env, timeout=60)
            if probe.returncode == 0:
                return exe
    return None


def test_other_interpreters_print_the_same_tables(fixtures_dir):
    paths = [str(fixtures_dir / f"{name}.fde") for name in sorted(FIXTURE_DIGESTS)]
    expected = {path: outcome_text(solve(load_problem(path), trunc_order=60)) for path in paths}
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    ran = []
    for minor in range(10, 14):
        exe = None if minor == sys.version_info.minor else interpreter(minor, env)
        if exe is None:
            continue
        child = subprocess.run(
            [exe, "-c", CHILD, *paths], capture_output=True, text=True, env=env, timeout=300
        )
        assert (exe, child.returncode, child.stderr) == (exe, 0, "")
        tables = json.loads(child.stdout)
        differ = [Path(path).stem for path in paths if tables[path] != expected[path]]
        assert (exe, differ) == (exe, [])
        # every case of the differential; its --cases flag finds the one that moved
        child = subprocess.run(
            [exe, str(SCRIPT)], capture_output=True, text=True, env=env, timeout=300
        )
        assert (exe, child.returncode, child.stderr) == (exe, 0, "")
        assert (exe, child.stdout) == (exe, DIFFERENTIAL_DIGEST + "\n")
        ran.append(exe)
    if not ran:
        pytest.skip("no other CPython 3.10-3.13 on PATH or under pyenv starts")


def test_random_systems_match_recorded_digest():
    rng = random.Random(20261017)
    text = "".join(outcome_text(solve(random_system(rng), trunc_order=30)) for _ in range(30))
    assert sha256(text) == RANDOM_DIGEST


def test_zero_pivot_error_is_unchanged(fixtures_dir):
    with pytest.raises(ZeroPivotInconsistent) as excinfo:
        solve(load_problem(fixtures_dir / "example3.fde"), trunc_order=60)
    failure = excinfo.value
    assert str(failure) == (
        "equation u2, marching index k=0: zero pivot (inconsistent); pivot = 0, residual = -2"
    )
    assert (failure.var, failure.k, failure.pivot, failure.residual) == (2, 0, 0.0, -2.0)
    assert failure.partial_coeffs == ((1.0, 1.0, 0.5), (0.0, 0.0, 1.0))


def test_zero_constant_quotient_error_is_unchanged():
    problem = parse_problem(
        "order = 1\nvars = u1, u2\ndelay half = proportional(1/2)\n"
        "eq u1' = u2\neq u2' = u1 + u2@half / (u1@half - 1)\n"
        "init u1 = [1]\ninit u2 = [0]\nhorizon = 1\ntaylor_order = 8\n"
    )
    with pytest.raises(EvalFailure) as excinfo:
        solve(problem)
    assert (type(excinfo.value), str(excinfo.value), excinfo.value.var, excinfo.value.k) == (
        EvalFailure,
        "equation 2, marching index 0: reciprocal requires a nonzero constant "
        "term, got 0 in u2@half / (u1@half - 1)",
        2,
        0,
    )


PANTOGRAPH = """
order = 1
vars = u
delay q = proportional({q})
eq u' = {a} * u + {b} * u@q
init u = [1]
horizon = 1
taylor_order = 150
"""


@pytest.mark.parametrize(
    "a, b, q", [("1", "1/2", "1/2"), ("-1/2", "2", "1/3"), ("2", "-1", "3/4")]
)
def test_pantograph_matches_exact_product(a, b, q):
    """u' = a u + b u(qt), u(0) = 1 has the Taylor coefficients
    prod_{j<k} (a + b q^j) / k!, evaluated here in exact rationals for the
    double values of a, b and q the parser produces."""
    solution = solve(parse_problem(PANTOGRAPH.format(a=a, b=b, q=q)))
    fa, fb, fq = (Fraction(float(Fraction(x))) for x in (a, b, q))
    exact = Fraction(1)
    for k, got in enumerate(solution.series[0].coeffs):
        if k:
            exact *= (fa + fb * fq ** (k - 1)) / k
        assert math.isclose(got, exact, rel_tol=1e-13), k
