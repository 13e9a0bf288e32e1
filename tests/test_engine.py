import math
import random

import pytest

from taydel.engine import (
    EvalFailure,
    NonlinearNeutral,
    ValidityError,
    ZeroPivotInconsistent,
    ZeroPivotUnderdetermined,
    estimate_error,
    evaluate_solution,
    residual_coefficients,
    solve,
    solve_reduced,
    transform_initial_conditions,
)
from taydel.expr import StateRef, parse_expression
from taydel.problem import (
    CauchyProblem,
    DelaySpec,
    ProblemError,
    ProportionalDelay,
    ValidityInterval,
)
from taydel.problemfile import load_problem, parse_problem
from taydel.reduce import ReducedSystem, substitute_history

SCALAR_NEUTRAL = """
order = 1
vars = u1
delay half = proportional(1/2)
eq u1' = {rhs}
init u1 = [{init}]
horizon = 1
taylor_order = {order}
"""


def scalar_neutral(rhs, init=5.0, order=8):
    return parse_problem(SCALAR_NEUTRAL.format(rhs=rhs, init=init, order=order))


class TestTransformInitialConditions:
    def test_first_order_passes_values_through(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example1.fde")
        assert transform_initial_conditions(problem) == [[1.0], [1.0], [0.0]]

    def test_third_order_divides_by_factorials(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example3.fde")
        table = transform_initial_conditions(problem)
        assert table[0] == [1.0, 1.0, 0.5]
        assert table[1] == [0.0, 0.0, 1.0]

    def test_zero_data(self):
        problem = parse_problem(
            "order = 2\nvars = u1\neq u1'' = u1\ninit u1 = [0, 0]\n"
            "horizon = 1\ntaylor_order = 4\n"
        )
        assert transform_initial_conditions(problem) == [[0.0, 0.0]]


class TestRhsCoefficient:
    """Right-hand-side coefficient k of one equation, read back from the
    marched table: coefficient k+n times (k+n)!/k!."""

    def test_square_term_at_start(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example1.fde"))
        solution = solve_reduced(reduced)
        assert solution.series[0].coeffs[1] * 1 == 1.0  # k = 0, n = 1: times 1!/0!
        assert all(entry.var != 1 for entry in solution.pivot_log)

    def test_product_with_history_constant(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example2.fde"))
        solution = solve_reduced(reduced)
        # k = 0, n = 2: coefficient 2 times 2!/0!
        assert solution.series[1].coeffs[2] * 2 == pytest.approx(2.0, abs=1e-14)
        assert all(entry.var != 2 for entry in solution.pivot_log)

    def test_neutral_equation_reports_pivot(self):
        solution = solve_reduced(substitute_history(scalar_neutral("1/2 * u1'@half")))
        assert solution.series[0].coeffs[1] == 0.0
        assert solution.pivot_log[0].k == 0
        assert solution.pivot_log[0].pivot == pytest.approx(0.5)


class TestStep:
    def test_first_two_rounds_of_coupled_system(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example1.fde"))
        table = [s.coeffs for s in solve_reduced(reduced).series]
        assert [row[1] for row in table] == pytest.approx([1.0, 0.5, 1.0])
        assert [row[2] for row in table] == pytest.approx([0.5, 0.125, 3.0])

    def test_polynomial_solution_terminates(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example2.fde"))
        for series in solution.series:
            assert all(abs(c) <= 1e-12 for c in series.coeffs[3:])

    def test_vanishing_pivot_with_leftover_terms(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example3.fde")
        with pytest.raises(ZeroPivotInconsistent) as excinfo:
            solve(problem)
        failure = excinfo.value
        assert failure.var == 2
        assert failure.k == 0
        assert failure.pivot == pytest.approx(0.0, abs=1e-15)
        assert failure.residual == pytest.approx(-2.0, abs=1e-12)
        assert failure.partial_coeffs[0] == (1.0, 1.0, 0.5)
        assert "u2" in str(failure)


class TestSolve:
    def test_coupled_proportional_system(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example1.fde"), trunc_order=5)
        u1, u2, u3 = solution.series
        assert u1.coeffs == pytest.approx(
            tuple(1 / math.factorial(k) for k in range(6)), abs=1e-15
        )
        assert u2.coeffs == pytest.approx(
            tuple(0.5**k / math.factorial(k) for k in range(6)), abs=1e-15
        )
        assert u3.coeffs == pytest.approx((0.0, 1.0, 3.0, 4.5, 4.5, 3.375), abs=1e-13)

    def test_polynomial_system_is_exact(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example2.fde"))
        u1, u2 = solution.series
        assert u1.coeffs[2] == pytest.approx(2.0, abs=1e-14)
        assert u2.coeffs[2] == pytest.approx(1.0, abs=1e-14)
        for series in solution.series:
            for k, c in enumerate(series.coeffs):
                if k != 2:
                    assert abs(c) <= 1e-12

    def test_reduced_neutral_column_coefficient(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example3_u1.fde"))
        assert solution.series[0].coeffs[3] == pytest.approx(
            math.exp(-2.0) / 6, abs=1e-12
        )

    def test_initial_coefficients_embedded_exactly(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example3.fde")
        solution = solve(load_problem(fixtures_dir / "example3_u1.fde"))
        assert solution.series[0].coeffs[:3] == (1.0, 1.0, 0.5)

    def test_prefix_stability_is_bitwise(self, fixtures_dir):
        for name in ("example1.fde", "example2.fde", "example3_u1.fde"):
            problem = load_problem(fixtures_dir / name)
            base = solve(problem, trunc_order=8)
            extended = solve(problem, trunc_order=12)
            for short, long in zip(base.series, extended.series):
                assert short.coeffs == long.coeffs[:9]

    def test_proportional_coefficient_relation(self, fixtures_dir):
        # the middle equation ties each new coefficient to the previous one
        # of the other variable: (k+1) U2(k+1) = (1/2) (1/2)^k U1(k)
        solution = solve(load_problem(fixtures_dir / "example1.fde"))
        u1, u2 = solution.series[0], solution.series[1]
        for k in range(solution.trunc_order):
            lhs = (k + 1) * u2.coeffs[k + 1]
            rhs = 0.5 * 0.5**k * u1.coeffs[k]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_h2_violation_refused(self):
        problem = parse_problem(
            "order = 1\nvars = u1, u2\ndelay half = proportional(1/2)\n"
            "eq u1' = u2'@half\neq u2' = u1\ninit u1 = [1]\ninit u2 = [1]\n"
            "horizon = 1\ntaylor_order = 4\n"
        )
        with pytest.raises(ProblemError):
            solve(problem)

    def test_h2_refusal_reads_as_the_cli_s(self):
        problem = parse_problem(
            "order = 1\nvars = u, v\ndelay half = proportional(1/2)\n"
            "eq u' = v'@half + u\neq v' = u\ninit u = [1]\ninit v = [0]\n"
            "horizon = 1\ntaylor_order = 6\n"
        )
        with pytest.raises(ProblemError) as excinfo:
            solve(problem)
        assert str(excinfo.value) == (
            "equation u references the top derivative of v through proportional delay 'half'"
        )


class TestNeutralHandling:
    def test_contraction_keeps_solution_constant(self):
        solution = solve(scalar_neutral("1/2 * u1'@half"))
        assert solution.series[0].coeffs[0] == 5.0
        assert all(c == 0.0 for c in solution.series[0].coeffs[1:])

    def test_pivot_log_records_every_round(self):
        solution = solve(scalar_neutral("1/2 * u1'@half", order=6))
        assert [entry.k for entry in solution.pivot_log] == list(range(7))
        for entry in solution.pivot_log:
            assert entry.pivot == pytest.approx(1 - 0.5 * 0.5**entry.k)

    def test_time_dependent_coefficient_folds_known_history(self):
        # u' = (1/2 + t) u'(t/2) + 1, u(0) = 0: differentiating shows
        # u'(0) = 2 and u''(0) = 8/3
        solution = solve(scalar_neutral("(1/2 + t) * u1'@half + 1", init=0.0))
        assert solution.series[0].coeffs[1] == pytest.approx(2.0, abs=1e-14)
        assert solution.series[0].coeffs[2] == pytest.approx(4 / 3, abs=1e-14)

    def test_unit_pivot_with_forcing_is_inconsistent(self):
        with pytest.raises(ZeroPivotInconsistent) as excinfo:
            solve(scalar_neutral("u1'@half + 1"))
        assert excinfo.value.k == 0
        assert excinfo.value.residual == pytest.approx(1.0)

    def test_unit_pivot_without_forcing_is_underdetermined(self):
        with pytest.raises(ZeroPivotUnderdetermined) as excinfo:
            solve(scalar_neutral("u1'@half"))
        assert excinfo.value.k == 0

    @pytest.mark.parametrize(
        "rhs",
        [
            "u1 * u1'@half",        # unknown-state coefficient
            "exp(u1'@half)",        # inside an elementary function
            "(u1'@half)^2",         # inside a power
            "1 / u1'@half",         # in a denominator
            "u1'@half * u1'@half",  # product of two unknowns
        ],
    )
    def test_nonlinear_neutral_shapes_are_rejected(self, rhs):
        with pytest.raises(NonlinearNeutral):
            solve(scalar_neutral(rhs))

    def test_negated_neutral_term_flips_pivot_sign(self):
        solution = solve(scalar_neutral("-u1'@half + 1", init=0.0))
        # u'(0) (1 + 1) = 1
        assert solution.series[0].coeffs[1] == pytest.approx(0.5)

    def test_negated_factor_of_a_neutral_product(self):
        # 2*-u1'@half keeps its Neg inside the product; -2*u1'@half folds it
        inner = solve(scalar_neutral("u1 + 2*-u1'@half"))
        folded = solve(scalar_neutral("u1 + -2*u1'@half"))
        assert (inner.series, inner.tail) == (folded.series, folded.tail)
        assert inner.pivot_log == folded.pivot_log


def unit_reduced(equations, init, var_names=("u",)):
    """A hand-built reduced system of order 1 with one delay, half = q*t."""
    return ReducedSystem(
        order=1,
        var_names=var_names,
        equations=equations,
        delays=(DelaySpec("half", ProportionalDelay(0.5)),),
        init=init,
        trunc_order=4,
        validity=ValidityInterval(t_star=0.0, t_alpha=math.inf, upper=1.0),
    )


class TestSolveReduced:
    def test_top_order_reference_to_another_variable_is_refused(self):
        # a hand-built system is refused when built, with the CLI's H2 text
        with pytest.raises(ProblemError) as excinfo:
            unit_reduced(
                (StateRef(2, 1, "half"), StateRef(1, 0)), ((1.0,), (0.0,)), ("u", "v")
            )
        assert str(excinfo.value) == (
            "equation u references the top derivative of v through proportional delay 'half'"
        )

    def test_non_finite_initial_data_is_refused(self):
        reduced = unit_reduced((StateRef(1, 0),), ((math.inf,),))
        with pytest.raises(EvalFailure) as excinfo:
            solve_reduced(reduced)
        assert str(excinfo.value) == (
            "equation 1, marching index 0: non-finite coefficient inf at index 0"
        )


def random_system(rng: random.Random) -> CauchyProblem:
    """Small random non-neutral system with proportional delays; every
    ingredient keeps series coefficients exactly representable or benign."""
    order = rng.choice([1, 1, 2])
    num_vars = rng.choice([1, 2])
    names = tuple(f"u{j + 1}" for j in range(num_vars))
    lines = [f"order = {order}", "vars = " + ", ".join(names)]
    ratios = {"qa": 0.5, "qb": 0.25}
    for delay_id, q in ratios.items():
        lines.append(f"delay {delay_id} = proportional({q})")
    for name in names:
        terms = []
        for _ in range(rng.randint(1, 3)):
            factor = rng.choice(
                [
                    f"{rng.randint(-2, 2)}",
                    "t",
                    "t^2",
                    f"exp({rng.choice([-1, 1])}*t)",
                    f"{rng.choice(names)}",
                    f"{rng.choice(names)}@{rng.choice(list(ratios))}",
                ]
            )
            other = rng.choice(["", f" * {rng.choice(names)}"])
            terms.append(factor + other)
        if order == 2 and rng.random() < 0.5:
            terms.append(f"{rng.choice(names)}'")
        primes = "'" * order
        lines.append(f"eq {name}{primes} = " + " + ".join(terms))
    for name in names:
        values = ", ".join(str(rng.randint(-1, 1)) for _ in range(order))
        lines.append(f"init {name} = [{values}]")
    lines.append("horizon = 1")
    lines.append("taylor_order = 10")
    return parse_problem("\n".join(lines))


class TestResiduals:
    def test_fixture_residuals_vanish(self, fixtures_dir):
        for name in ("example1.fde", "example2.fde", "example3_u1.fde"):
            problem = load_problem(fixtures_dir / name)
            reduced = substitute_history(problem)
            solution = solve_reduced(reduced)
            for residual in residual_coefficients(reduced, solution):
                budget = residual.trunc_order  # indices below N - n
                assert all(abs(c) <= 1e-10 for c in residual.coeffs[:budget])

    def test_random_systems_have_tiny_residuals(self):
        rng = random.Random(20240817)
        for _ in range(20):
            problem = random_system(rng)
            reduced = substitute_history(problem)
            solution = solve_reduced(reduced)
            for residual in residual_coefficients(reduced, solution):
                budget = residual.trunc_order
                assert all(abs(c) <= 1e-10 for c in residual.coeffs[:budget])

    def test_random_systems_have_stable_prefixes(self):
        rng = random.Random(8)
        for _ in range(5):
            problem = random_system(rng)
            base = solve(problem, trunc_order=8)
            extended = solve(problem, trunc_order=12)
            for short, long in zip(base.series, extended.series):
                assert short.coeffs == long.coeffs[:9]


class TestErrorEstimate:
    def test_exponential_bound_dominates_true_remainder(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example1.fde")
        delta = 0.5
        for order in (4, 6, 8):
            solution = solve(problem, trunc_order=order)
            estimate = estimate_error(solution, delta)
            measured = max(
                abs(math.exp(t) - solution.series[0].evaluate(t))
                for t in [delta * i / 200 for i in range(201)]
            )
            assert estimate.bound[0] is not None
            assert measured <= estimate.bound[0]

    def test_zero_solution_has_zero_bound(self):
        problem = parse_problem(
            "order = 1\nvars = u1\neq u1' = u1\ninit u1 = [0]\n"
            "horizon = 1\ntaylor_order = 6\n"
        )
        estimate = estimate_error(solve(problem), 1.0)
        assert estimate.bound == (0.0,)

    def test_polynomial_solution_has_zero_bound(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example2.fde"))
        estimate = estimate_error(solution, 1.0)
        assert estimate.bound == (0.0, 0.0)

    def test_delta_range_enforced(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example2.fde"))
        with pytest.raises(ValueError):
            estimate_error(solution, 0.0)
        with pytest.raises(ValueError):
            estimate_error(solution, 1.5)


class TestEvaluateSolution:
    def test_initial_values(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example1.fde"))
        assert evaluate_solution(solution, 0.0) == (1.0, 1.0, 0.0)

    def test_polynomial_closed_form(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example2.fde"))
        assert evaluate_solution(solution, 0.5) == pytest.approx((0.5, 0.25))

    def test_exponential_closed_forms(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example1.fde")
        solution = solve(problem, trunc_order=12)
        values = evaluate_solution(solution, 0.3)
        expected = (math.exp(0.3), math.exp(0.15), 0.3 * math.exp(0.9))
        assert values == pytest.approx(expected, abs=1e-9)

    def test_strict_mode_rejects_outside_validity(self, fixtures_dir):
        solution = solve(load_problem(fixtures_dir / "example2.fde"))
        with pytest.raises(ValidityError):
            evaluate_solution(solution, 1.5)
        with pytest.raises(ValidityError):
            evaluate_solution(solution, -0.1)
        assert evaluate_solution(solution, 1.5, unchecked=True) == pytest.approx(
            (4.5, 2.25)
        )
