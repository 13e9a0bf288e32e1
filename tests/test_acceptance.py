"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v`` (a per-criterion verdict
table is appended to the terminal summary by conftest).
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from taydel.cli import main as cli_main
from taydel.engine import (
    ZeroPivotInconsistent,
    estimate_error,
    residual_coefficients,
    solve,
    solve_reduced,
)
from taydel.expr import KnownSeries, Mul, eval_series, time_series
from taydel.oracle import compare, integrate_reference
from taydel.problemfile import load_problem, parse_problem
from taydel.reduce import substitute_history
from taydel.series import Series, compose_elementary, exp_linear, monomial

mpmath.mp.dps = 40


def test_criterion_1_proportional_system_coefficients(fixtures_dir):
    started = time.monotonic()
    solution = solve(load_problem(fixtures_dir / "example1.fde"), trunc_order=8)
    u1, u2, u3 = solution.series
    for k in range(9):
        assert abs(u1.coeffs[k] - 1 / math.factorial(k)) <= 1e-12
        assert abs(u2.coeffs[k] - 0.5**k / math.factorial(k)) <= 1e-12
        expected = 0.0 if k == 0 else 3.0 ** (k - 1) / math.factorial(k - 1)
        assert abs(u3.coeffs[k] - expected) <= 1e-12
    assert u3.coeffs[5] == pytest.approx(81 / 24, abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"criterion 1: coupled proportional system reproduced to 1e-12 "
        f"in {elapsed:.3f}s"
    )


def test_criterion_2_polynomial_system_exact_and_oracle_tight(fixtures_dir, capsys):
    started = time.monotonic()
    solution = solve(load_problem(fixtures_dir / "example2.fde"), trunc_order=10)
    u1, u2 = solution.series
    assert abs(u1.coeffs[2] - 2.0) <= 1e-12
    assert abs(u2.coeffs[2] - 1.0) <= 1e-12
    for series in solution.series:
        for k, c in enumerate(series.coeffs):
            if k != 2:
                assert abs(c) <= 1e-12
    code = cli_main(
        ["compare", str(fixtures_dir / "example2.fde"), "--interval", "0,1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    worst = max(
        float(line.split("max_error=")[1].split()[0])
        for line in out.strip().splitlines()
    )
    assert worst <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"criterion 2: polynomial solution exact, reference agreement "
        f"{worst:.2e} in {elapsed:.3f}s"
    )


def test_criterion_3_neutral_system_adjudication(fixtures_dir):
    started = time.monotonic()
    # (a) the single-equation reduction marches and matches the reference
    problem = load_problem(fixtures_dir / "example3_u1.fde")
    reduced = substitute_history(problem, trunc_order=14)
    solution = solve_reduced(reduced)
    computed = solution.series[0].coeffs[3]
    assert computed == pytest.approx(math.exp(-2.0) / 6, abs=1e-12)
    trajectory = integrate_reference(reduced, 1e-4, 0.3)
    worst = max(compare(solution, trajectory, (0.0, 0.3), 100))
    assert worst <= 1e-6
    alternative = (2 + math.exp(-2.0)) / 6
    print(
        "criterion 3a: u1 cubic coefficient = exp(-2)/6 = "
        f"{computed:.10f}; a derivation that carries the linear drive term "
        f"2t into the recurrence at constant index instead of index one "
        f"gives {alternative:.10f}, which the reference integrator rules "
        f"out (max deviation {worst:.2e} over [0, 0.3])"
    )
    # (b) the full system stops immediately: the first marching round has a
    # vanishing pivot with leftover -2
    with pytest.raises(ZeroPivotInconsistent) as excinfo:
        solve(load_problem(fixtures_dir / "example3.fde"))
    failure = excinfo.value
    assert failure.var == 2
    assert failure.k == 0
    assert failure.residual == pytest.approx(-2.0, abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(
        f"criterion 3b: full neutral system reports zero pivot at "
        f"equation u2, k=0, residual -2 in {elapsed:.3f}s total"
    )


def product_series(a: Series, b: Series) -> Series:
    """a * b through the expression lowering that every solve runs."""
    return eval_series(Mul(KnownSeries(a), KnownSeries(b)), time_series(a.trunc_order))


def test_criterion_4_transform_rule_suite():
    # monomial rule
    assert monomial(2, 4).coeffs == (0.0, 0.0, 1.0, 0.0, 0.0)
    # exponential rule
    for lam in (1.0, -1.0, 2.5):
        got = exp_linear(lam, 8)
        for k in range(9):
            assert got.coeffs[k] == lam**k / math.factorial(k)
    # derivative shift
    u = Series((0.5, -1.0, 2.0, 0.25, -0.125, 1.0))
    for m in (1, 2, 3):
        shifted = u.differentiate(m)
        for k, c in enumerate(shifted.coeffs):
            assert c == math.perm(k + m, m) * u.coeffs[k + m]
    # convolution
    a = Series((1.0, 2.0, 3.0, 0.0))
    b = Series((4.0, 5.0, 0.0, 0.0))
    assert product_series(a, b).coeffs == (4.0, 13.0, 22.0, 15.0)
    # q^k argument scaling
    scaled = u.scale_arg(0.5)
    for k, c in enumerate(scaled.coeffs):
        assert c == 0.5**k * u.coeffs[k]
    # two-factor proportional product
    v = Series((1.0, 1.0, 0.5, 1 / 6, 0.0, 0.0))
    w = Series((2.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    product = product_series(v.scale_arg(0.5), w.scale_arg(0.25))
    for k in range(6):
        expected = sum(
            0.5**l * 0.25 ** (k - l) * v.coeffs[l] * w.coeffs[k - l]
            for l in range(k + 1)
        )
        assert product.coeffs[k] == pytest.approx(expected, rel=1e-15, abs=1e-18)
    # derivative under a proportional delay
    for m, q in ((1, 0.5), (2, 0.25), (3, 1 / 3)):
        got = u.differentiate(m).scale_arg(q)
        for k, c in enumerate(got.coeffs):
            assert c == pytest.approx(
                math.perm(k + m, m) * q**k * u.coeffs[k + m], rel=1e-15
            )
    print("criterion 4: all seven coefficient transform rules exact")


def test_criterion_5_nonlinear_component_suite():
    funcs = {
        "exp": mpmath.exp,
        "pow": lambda x: mpmath.power(x, mpmath.mpf(2) / 3),
        "sin": mpmath.sin,
    }
    u = Series((0.9, 1.1, -0.3, 0.4))
    for tag, f in funcs.items():
        got = compose_elementary(tag, u, exponent=2 / 3 if tag == "pow" else None)
        d1, d2, d3 = (float(mpmath.diff(f, u.coeffs[0], k)) for k in (1, 2, 3))
        u0, u1, u2, u3 = u.coeffs
        expected = [
            float(f(mpmath.mpf(u0))),
            u1 * d1,
            u2 * d1 + 0.5 * u1**2 * d2,
            u3 * d1 + u1 * u2 * d2 + u1**3 * d3 / 6,
        ]
        for k in range(4):
            assert got.coeffs[k] == pytest.approx(expected[k], abs=1e-7)
    # component values of the cube-root-of-square nonlinearity seeded with
    # unit data: index 1 from the true quadratic prefix [1, 1, 1/2] is 2/3;
    # the widely quoted companion value 5/9 for index 2 substitutes the raw
    # second derivative u''(0) = 1 where the Taylor coefficient 1/2
    # belongs, so it is reproduced from the prefix [1, 1, 1]; the true
    # index-2 component of [1, 1, 1/2] is 2/9 (finite differences agree)
    true_prefix = compose_elementary("pow", Series((1.0, 1.0, 0.5)), exponent=2 / 3)
    assert true_prefix.coeffs[1] == pytest.approx(2 / 3, abs=1e-12)
    assert true_prefix.coeffs[2] == pytest.approx(2 / 9, abs=1e-12)
    substituted = compose_elementary("pow", Series((1.0, 1.0, 1.0)), exponent=2 / 3)
    assert substituted.coeffs[1] == pytest.approx(2 / 3, abs=1e-12)
    assert substituted.coeffs[2] == pytest.approx(5 / 9, abs=1e-12)
    print(
        "criterion 5: nonlinear components match finite-difference "
        "formulas to 1e-7; component values 2/3 and 5/9 reproduced to "
        "1e-12 (5/9 under the documented raw-derivative substitution; the "
        "true index-2 component of the unit-data prefix is 2/9)"
    )


def test_criterion_6_truncation_bound_decay(fixtures_dir):
    problem = load_problem(fixtures_dir / "example1.fde")
    delta = 0.5
    grid = [delta * i / 400 for i in range(401)]
    measured = {}
    bounds = {}
    for order in (4, 6, 8):
        solution = solve(problem, trunc_order=order)
        estimate = estimate_error(solution, delta)
        assert estimate.bound[0] is not None
        bounds[order] = estimate.bound[0]
        measured[order] = max(
            abs(math.exp(t) - solution.series[0].evaluate(t)) for t in grid
        )
        assert measured[order] <= bounds[order]
    for low, high in ((4, 6), (6, 8)):
        assert measured[low] / measured[high] >= 50
        assert bounds[low] / bounds[high] >= 50
    print(
        "criterion 6: bound dominates measured error "
        + ", ".join(
            f"N={o}: {measured[o]:.2e} <= {bounds[o]:.2e}" for o in (4, 6, 8)
        )
    )


def test_criterion_7_property_suites(fixtures_dir):
    started = time.monotonic()
    rng = random.Random(424242)

    # convolution against schoolbook expansion, 500 random pairs
    for _ in range(500):
        degree = rng.randint(0, 8)
        a = [rng.uniform(-3, 3) for _ in range(degree + 1)]
        b = [rng.uniform(-3, 3) for _ in range(degree + 1)]
        exact = [Fraction(0)] * (degree + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j <= degree:
                    exact[i + j] += Fraction(x) * Fraction(y)
        got = product_series(Series(tuple(a)), Series(tuple(b)))
        for g, e in zip(got.coeffs, exact):
            assert abs(g - float(e)) <= 1e-13 * max(1.0, abs(float(e)))

    # residual property on 20 random generated systems
    from test_engine import random_system

    rng2 = random.Random(1717)
    for _ in range(20):
        problem = random_system(rng2)
        reduced = substitute_history(problem)
        solution = solve_reduced(reduced)
        for residual in residual_coefficients(reduced, solution):
            budget = residual.trunc_order
            assert all(abs(c) <= 1e-10 for c in residual.coeffs[:budget])

    # prefix stability: four more marching rounds never change a prefix
    for name in ("example1.fde", "example2.fde", "example3_u1.fde"):
        problem = load_problem(fixtures_dir / name)
        base = solve(problem, trunc_order=8)
        extended = solve(problem, trunc_order=12)
        for short, long in zip(base.series, extended.series):
            assert short.coeffs == long.coeffs[:9]

    # fourth-order convergence of the reference integrator
    exponential = parse_problem(
        "order = 1\nvars = u1\neq u1' = u1\ninit u1 = [1]\n"
        "horizon = 1\ntaylor_order = 4\n"
    )
    reduced = substitute_history(exponential)
    errors = [
        abs(integrate_reference(reduced, h, 1.0).states[-1][0] - math.e)
        for h in (0.02, 0.01)
    ]
    ratio = errors[0] / errors[1]
    assert 12 <= ratio <= 20

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"criterion 7: 500 convolutions, 20 residual systems, prefix "
        f"stability and integrator order ratio {ratio:.1f} in {elapsed:.1f}s"
    )
