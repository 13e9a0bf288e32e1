import hashlib
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from taydel import oracle
from taydel.engine import estimate_error, evaluate_solution, solve_reduced
from taydel.oracle import (
    MAX_REFERENCE_STEPS,
    OracleError,
    OracleRestriction,
    check_supported,
    compare,
    integrate_reference,
    sample,
)
from taydel.problem import check_compatibility, check_h2, compute_validity
from taydel.problemfile import load_problem, parse_problem
from taydel.reduce import substitute_history
from taydel.series import Series
from test_engine import random_system
from test_reduce import known_leaves
from test_series import SPECIAL_COEFFS, SPECIAL_TIMES

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402

PLAIN = """
order = 1
vars = u1
eq u1' = {rhs}
init u1 = [{init}]
horizon = {horizon}
taylor_order = 8
"""


def plain_reduced(rhs, init=1.0, horizon=1.0):
    return substitute_history(
        parse_problem(PLAIN.format(rhs=rhs, init=init, horizon=horizon))
    )


class TestIntegrate:
    def test_exponential_growth(self):
        trajectory = integrate_reference(plain_reduced("u1"), 1e-3, 1.0)
        assert trajectory.states[-1][0] == pytest.approx(math.e, abs=1e-10)

    def test_coupled_proportional_system(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example1.fde"))
        trajectory = integrate_reference(reduced, 1e-3, 0.5)
        got = sample(trajectory, 0.5, 0)
        expected = (math.exp(0.5), math.exp(0.25), 0.5 * math.exp(1.5))
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-8)

    def test_polynomial_system_on_grid(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example2.fde"))
        trajectory = integrate_reference(reduced, 1e-3, 1.0)
        for t, state in zip(trajectory.times, trajectory.states):
            assert state[0] == pytest.approx(2 * t * t, abs=1e-9)
            assert state[2] == pytest.approx(t * t, abs=1e-9)

    def test_order_four_convergence(self):
        errors = []
        for h in (0.02, 0.01):
            trajectory = integrate_reference(plain_reduced("u1"), h, 1.0)
            errors.append(abs(trajectory.states[-1][0] - math.e))
        ratio = errors[0] / errors[1]
        assert 12 <= ratio <= 20

    def test_rejects_unsupported_top_order_terms(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example3.fde"))
        with pytest.raises(OracleRestriction) as excinfo:
            integrate_reference(reduced, 1e-3, 0.3)
        assert "u2'''@half" in str(excinfo.value)
        with pytest.raises(OracleRestriction):
            check_supported(reduced)

    def test_rejects_bad_step_and_horizon(self):
        reduced = plain_reduced("u1")
        with pytest.raises(OracleError):
            integrate_reference(reduced, 0.0, 1.0)
        with pytest.raises(OracleError, match=r"^step size must be finite, got inf$"):
            integrate_reference(reduced, math.inf, 1.0)
        with pytest.raises(OracleError):
            integrate_reference(reduced, 1e-3, 2.0)

    def test_domain_error_carries_time(self):
        # the final stage evaluates at t = 1 exactly, where ln(1 - t) blows up
        reduced = plain_reduced("ln(1 - t) * u1", horizon=1.0)
        with pytest.raises(OracleError) as excinfo:
            integrate_reference(reduced, 1e-2, 1.0)
        assert "t = 1" in str(excinfo.value)

    def test_blow_up_is_refused_with_its_first_time(self):
        # u' = u^3 from 10 blows up at t = 0.005; RK4 reaches inf two steps later
        reduced = plain_reduced("u1*u1*u1", init=10.0)
        with pytest.raises(OracleError) as excinfo:
            integrate_reference(reduced, 1e-3, 1.0)
        assert str(excinfo.value) == "the reference solution is not finite at t = 0.007"

    def test_bare_leaf_and_constant_equations(self):
        # u1'' = u2 and u2'' = 3 are read straight off the state and the
        # constants; RK4 follows u2 = t + 3t^2/2 exactly
        reduced = substitute_history(parse_problem(
            "order = 2\nvars = u1, u2\neq u1'' = u2\neq u2'' = 3\n"
            "init u1 = [0, 0]\ninit u2 = [0, 1]\nhorizon = 1\ntaylor_order = 8\n"
        ))
        trajectory = integrate_reference(reduced, 0.25, 1.0)
        for t, state, slope in zip(trajectory.times, trajectory.states, trajectory.derivs):
            assert slope == (state[1], state[2], state[3], 3.0)
            assert state[2] == pytest.approx(t + 1.5 * t * t, abs=1e-12)

    def test_error_names_the_equation_among_shift_rows(self):
        reduced = substitute_history(parse_problem(
            "order = 2\nvars = u1, u2\neq u1'' = u2\neq u2'' = 1/(t - 1/2)\n"
            "init u1 = [0, 0]\ninit u2 = [0, 1]\nhorizon = 1\ntaylor_order = 8\n"
        ))
        with pytest.raises(OracleError) as excinfo:
            integrate_reference(reduced, 0.125, 1.0)
        assert str(excinfo.value) == (
            "equation 2: division by zero in 1 / (t - 0.5) at t = 0.5"
        )

    def test_domain_error_in_the_first_evaluation(self):
        # the slope at t = 0, taken before any step data exist, divides by t
        reduced = plain_reduced("1/t + u1")
        with pytest.raises(OracleError) as excinfo:
            integrate_reference(reduced, 0.1, 1.0)
        assert str(excinfo.value) == "equation 1: division by zero in 1 / t at t = 0"

    def test_partial_final_step_lands_on_horizon(self):
        trajectory = integrate_reference(plain_reduced("u1"), 0.3, 1.0)
        assert trajectory.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert trajectory.states[-1][0] == pytest.approx(math.e, abs=1e-3)


class TestSample:
    def test_nodes_are_exact(self):
        trajectory = integrate_reference(plain_reduced("u1"), 0.1, 1.0)
        for i, t in enumerate(trajectory.times):
            assert sample(trajectory, t, 0)[0] == pytest.approx(
                trajectory.states[i][0], rel=1e-15
            )

    def test_cubic_trajectories_interpolate_exactly(self):
        # u' = 3 t^2 integrates to t^3; both the integrator (a cubic
        # quadrature in t) and the interpolant reproduce cubics
        trajectory = integrate_reference(plain_reduced("3*t^2", init=0.0), 0.1, 1.0)
        for i in range(10):
            t = 0.05 + 0.1 * i
            assert sample(trajectory, t, 0)[0] == pytest.approx(t**3, abs=1e-14)

    def test_interior_error_scales_like_fourth_power(self):
        reduced = plain_reduced("cos(t)", init=1.0)  # solution 1 + sin t
        worst = {}
        for h in (2e-2, 1e-2):
            trajectory = integrate_reference(reduced, h, 1.0)
            worst[h] = max(
                abs(sample(trajectory, (i + 0.5) * h, 0)[0] - (1 + math.sin((i + 0.5) * h)))
                for i in range(int(1.0 / h))
            )
        assert worst[1e-2] <= 1e-8
        assert worst[2e-2] / worst[1e-2] == pytest.approx(16, abs=8)

    def test_derivative_orders_within_state(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example2.fde"))
        trajectory = integrate_reference(reduced, 1e-2, 1.0)
        values = sample(trajectory, 0.55, 1)
        assert values[0] == pytest.approx(4 * 0.55, abs=1e-8)
        assert values[1] == pytest.approx(2 * 0.55, abs=1e-8)

    def test_range_and_order_checks(self):
        trajectory = integrate_reference(plain_reduced("u1"), 0.1, 1.0)
        with pytest.raises(OracleError):
            sample(trajectory, 1.2, 0)
        with pytest.raises(OracleError):
            sample(trajectory, 0.5, 1)


class TestCompare:
    def test_polynomial_fixture(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example2.fde"))
        solution = solve_reduced(reduced)
        trajectory = integrate_reference(reduced, 1e-3, 1.0)
        errors = compare(solution, trajectory, (0.0, 1.0), 200)
        assert all(e <= 1e-9 for e in errors)

    def test_exponential_fixture_interval(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example1.fde")
        reduced = substitute_history(problem, trunc_order=12)
        solution = solve_reduced(reduced)
        trajectory = integrate_reference(reduced, 1e-3, 0.3)
        errors = compare(solution, trajectory, (0.0, 0.3), 150)
        assert all(e <= 1e-8 for e in errors)

    def test_self_consistency_on_exact_polynomial(self):
        # cubic right-hand side: engine and integrator are both exact, so
        # the comparison bottoms out at round-off
        reduced = plain_reduced("3*t^2", init=0.0)
        solution = solve_reduced(reduced)
        trajectory = integrate_reference(reduced, 1e-2, 1.0)
        errors = compare(solution, trajectory, (0.0, 1.0), 100)
        assert all(e <= 1e-13 for e in errors)

    def test_interval_must_stay_inside_coverage(self, fixtures_dir):
        reduced = substitute_history(load_problem(fixtures_dir / "example2.fde"))
        solution = solve_reduced(reduced)
        trajectory = integrate_reference(reduced, 1e-2, 0.5)
        with pytest.raises(OracleError):
            compare(solution, trajectory, (0.0, 0.9), 50)
        with pytest.raises(OracleError):
            compare(solution, trajectory, (0.4, 0.5), 1)
        for a, b in ((0.25, 0.25), (0.4, 0.3)):  # inside, but empty
            with pytest.raises(OracleError, match=rf"^comparison interval \[{a:g}, {b:g}\] is empty$"):
                compare(solution, trajectory, (a, b), 50)


def per_sample_compare(solution, traj, interval, samples):
    """compare through the public point evaluators, one call each per sample."""
    a, b = interval
    worst = [0.0] * traj.num_vars
    for i in range(samples):
        t = a + (b - a) * i / (samples - 1)
        engine_values = evaluate_solution(solution, t, unchecked=True)
        for j, (u, v) in enumerate(zip(engine_values, sample(traj, t, 0))):
            worst[j] = max(worst[j], abs(u - v))
    return tuple(worst)


def compare_problems(fixtures_dir):
    names = ("example1", "example2", "example3_u1")
    problems = [(name, load_problem(fixtures_dir / f"{name}.fde")) for name in names]
    for seed in range(1, 11):
        for family in (families.validate_family, families.history_family):
            problems += [(f"{p.name}@{seed}", parse_problem(p.text)) for p in family(seed)]
    return problems


def test_compare_equals_the_per_sample_reference(fixtures_dir):
    for name, problem in compare_problems(fixtures_dir):
        reduced = substitute_history(problem)
        solution = solve_reduced(reduced)
        upper = reduced.validity.upper
        trajectory = integrate_reference(reduced, 1e-2, upper)
        runs = (((0.0, upper), 200), ((upper / 4, upper * 0.6), 37), ((0.0, upper), 2))
        for interval, samples in runs:
            expected = per_sample_compare(solution, trajectory, interval, samples)
            got = compare(solution, trajectory, interval, samples)
            assert (name, repr(got)) == (name, repr(expected))


def test_history_leaves_are_evaluated_once_per_stage_time(fixtures_dir, monkeypatch):
    # example2 has two history leaves; RK4 at h = 2e-3 on [0, 1] evaluates
    # its right-hand side at 1,005 distinct (time, step) pairs: two per step,
    # and seven in the first step, which it iterates three times.  One
    # generated function evaluates both leaves, once per pair
    reduced = substitute_history(load_problem(fixtures_dir / "example2.fde"), trunc_order=20)
    calls, built = [], []
    build = oracle._leaf_evaluator

    def counted(leaves, size):
        built.append(len(leaves))
        evaluate = build(leaves, size)
        return lambda t: calls.append(t) or evaluate(t)

    monkeypatch.setattr(oracle, "_leaf_evaluator", counted)
    integrate_reference(reduced, 2e-3, 1.0)
    assert (built, len(calls)) == ([2], 1005)


def test_generated_leaf_evaluator_matches_series_evaluate():
    # one function for all series of up to three special coefficients, at
    # every special time, bit for bit
    series = [
        Series(coeffs) for length in (1, 2, 3)
        for coeffs in itertools.product(SPECIAL_COEFFS, repeat=length)
    ]
    evaluate = oracle._leaf_evaluator(list(enumerate(series)), len(series))
    for t in SPECIAL_TIMES:
        assert [repr(s.evaluate(t)) for s in series] == list(map(repr, evaluate(t)))


def test_history_leaf_node_shared_by_two_references():
    # substitute_history gives one node to every reference to one (variable,
    # order, delay); the reference keeps one value per node
    generated = next(p for p in families.history_family(1) if p.name == "history_p2n1")
    reduced = substitute_history(parse_problem(generated.text))
    leaves = [leaf for equation in reduced.equations for leaf in known_leaves(equation)]
    assert (len(leaves), len({id(leaf) for leaf in leaves})) == (6, 5)
    trajectory = integrate_reference(reduced, 2e-3, reduced.validity.upper)
    assert sha256(trajectory_text(trajectory)) == (
        "5ecbb632561bdbe2aac054dfbabecc132ad429ce3be1d2ac126be9eb94f546a8"
    )


# u2' reads u1 at q*t alone, so every node slope of u2 is the value one
# lookup gave while the integrator ran
LOOKUP_SLOPE = """
order = 1
vars = u1, u2
delay third = proportional(1/3)
delay half = proportional(1/2)
delay near = proportional(0.99)
eq u1' = -u1 + u1@third/2
eq u2' = u1@{delay}
init u1 = [1]
init u2 = [0]
horizon = 1
taylor_order = 8
"""


@pytest.mark.parametrize("delay", ["half", "near"])
@pytest.mark.parametrize("step", [0.1, 0.03, 2e-3])
def test_lookups_read_the_interpolant_sample_reads(delay, step):
    # each lookup reads one finished step's record: behind the front it is
    # the interpolant sample reads, on the front the node itself, and
    # inside the step in progress the last record extrapolated by
    # _hermite_weights; every node slope of u2 matches, bit for bit
    reduced = substitute_history(parse_problem(LOOKUP_SLOPE.format(delay=delay)))
    q = reduced.delay_map()[delay].law.ratio
    trajectory = integrate_reference(reduced, step, 1.0)
    times, states, derivs = trajectory.times, trajectory.states, trajectory.derivs
    branches = []
    for j in range(2, len(times)):
        s, front = q * times[j], times[j - 1]
        if s < front:
            branches.append("behind")
            expected = sample(trajectory, s)[0]
        elif s == front:
            branches.append("front")
            expected = states[j - 1][0]
        else:
            branches.append("extrapolated")
            a, b, c, d = oracle._hermite_weights(times[j - 2], front - times[j - 2], s)
            y0, d0, y1, d1 = states[j - 2], derivs[j - 2], states[j - 1], derivs[j - 1]
            expected = a * y0[0] + b * d0[0] + c * y1[0] + d * d1[0]
        assert (j, repr(derivs[j][1])) == (j, repr(expected))
    if delay == "half":
        # u1 at times[j] / 2: on the front node times[1] for j = 2, behind after
        assert branches == ["front"] + ["behind"] * (len(times) - 3)
    else:
        assert branches[0] == "extrapolated"
        assert step != 2e-3 or set(branches) == {"extrapolated", "behind", "front"}


# sha256 sums of the 17-digit grid, states, node slopes and extrapolation
# count the reference integrator produced while it walked every right-hand
# side node by node at each evaluation; lowering the equations into one
# generated straight-line function per system (nested closures before it)
# keeps the same float operations in the same order, so a change to the
# integrator's arithmetic changes a digest.
TRAJECTORY_DIGESTS = {
    "example1": "828688cbf7163d09aad758c6060c39716d61aa9aebab725f4a234a6e0fbf23ca",
    "example2": "ec7da2a5a8d0ef669da54ad7f80a5df6d8c304e12c82a4b992a5056bcd391b39",
    "example3_u1": "43a1cdfdefcdc6ae0b185138d897fc2967c89233bb78391873ac859da4a0c0c9",
}
RANDOM_TRAJECTORY_DIGEST = "2af4b1a2de6f1b0239a02bcc9df7618890837fef80a997a9ac8ca732b118025d"


# two systems whose equations read several ratios in interleaved order, one
# of them twice under two delay names (half and mid), repeat a reference
# within an equation and read u'@q; the ratio 0.999 lands lookups inside
# the step in progress, so both extrapolate
INTERLEAVED = {
    "order1": """
order = 1
vars = u1, u2
delay half = proportional(1/2)
delay third = proportional(1/3)
delay near = proportional(0.999)
delay mid = proportional(0.5)
eq u1' = u2@half * u1@third + u1@half - u2@near / 4
eq u2' = u1@third - u2@mid + u1@near * u2@third - u1@near / 8
init u1 = [1]
init u2 = [1/2]
horizon = 1
taylor_order = 8
""",
    "order2": """
order = 2
vars = u1, u2
delay half = proportional(1/2)
delay third = proportional(1/3)
delay near = proportional(0.999)
eq u1'' = u2'@third * u1@half - u1'@half + u2@near - u1'@near * u1'@near
eq u2'' = u1'@near - u2'@third * u2@half + u1@third + sin(u2'@half)
init u1 = [1, 0]
init u2 = [0, 1]
horizon = 1
taylor_order = 8
""",
}
INTERLEAVED_DIGESTS = {
    "order1": "c6811ebad82d3668c3b2438caef2f08f6e98d5133d375da478aa2ea07c3ca318",
    "order2": "eede91ff174dd7dd3775a0c77e01d784489f156d7eae61f39591968377a1b0e7",
}


def trajectory_text(trajectory) -> str:
    lines = [
        f"{t:.17g}|"
        + ",".join(f"{x:.17g}" for x in state)
        + "|"
        + ",".join(f"{x:.17g}" for x in slope)
        for t, state, slope in zip(trajectory.times, trajectory.states, trajectory.derivs)
    ]
    lines.append(f"extrapolated {trajectory.extrapolated_lookups}")
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
    def test_fixture_trajectories_match_recorded_digests(self, fixtures_dir, name):
        reduced = substitute_history(load_problem(fixtures_dir / f"{name}.fde"))
        trajectory = integrate_reference(reduced, 2e-3, reduced.validity.upper)
        assert sha256(trajectory_text(trajectory)) == TRAJECTORY_DIGESTS[name]

    def test_random_systems_match_recorded_digest(self):
        rng = random.Random(20261018)
        text = ""
        for _ in range(20):
            reduced = substitute_history(random_system(rng))
            text += trajectory_text(
                integrate_reference(reduced, 1e-2, reduced.validity.upper)
            )
        assert sha256(text) == RANDOM_TRAJECTORY_DIGEST

    @pytest.mark.parametrize("name", sorted(INTERLEAVED_DIGESTS))
    def test_interleaved_ratios_match_recorded_digest(self, name):
        reduced = substitute_history(parse_problem(INTERLEAVED[name]))
        text = ""
        for step in (5e-2, 1e-2, 2e-3):
            trajectory = integrate_reference(reduced, step, 1.0)
            assert trajectory.extrapolated_lookups > 0
            text += trajectory_text(trajectory)
        assert sha256(text) == INTERLEAVED_DIGESTS[name]

    @pytest.mark.parametrize(
        "rhs, step, message",
        [
            (
                "ln(1 - t) * u1",
                1e-2,
                "equation 1: ln of nonpositive value 0 in ln(1 - t) at t = 1",
            ),
            (
                "u1 / (t - 1/2)",
                0.125,
                "equation 1: division by zero in u1 / (t - 0.5) at t = 0.5",
            ),
            (
                "(t - 1/2)^(-2) * u1",
                0.125,
                "equation 1: 0.0 cannot be raised to a negative power in (t - 0.5)^-2 at t = 0.5",
            ),
            ("u1^2 * 1e300", 1e-2, "equation 1: u1^2 overflows at t = 0.005"),
        ],
    )
    def test_domain_error_message_is_unchanged(self, rhs, step, message):
        # one line: the failed operation as pretty() prints it, and the time once
        with pytest.raises(OracleError) as excinfo:
            integrate_reference(plain_reduced(rhs), step, 1.0)
        assert (type(excinfo.value), str(excinfo.value)) == (OracleError, message)


def test_step_counts_past_two_to_the_53_are_refused():
    # a double counts every step up to 2**53; past it the count is not exact
    assert oracle.reference_steps(1.0, 2.0**53) == 2**53
    for step, horizon in ((1.0, 2.0**53 + 2), (1e-300, 1.0), (5e-324, 1e-300)):
        with pytest.raises(OracleError, match=r"into too many steps$"):
            oracle.reference_steps(step, horizon)


def test_step_budget_covers_the_default_step_on_the_unit_interval():
    reduced = plain_reduced("u1")
    with pytest.raises(OracleError, match=r"into 100001 steps, more than the budget of 100000$"):
        integrate_reference(reduced, 1.0 / (MAX_REFERENCE_STEPS + 1), 1.0)
    assert MAX_REFERENCE_STEPS >= 100 * 1000  # taydel compare's default --h 1e-3 on [0, 1]


# sha256 over the repr of every value the pipeline returns, recorded while
# the value classes were still frozen dataclasses: problem, compatibility
# and H2 reports, validity interval, reduced system, solution, error
# estimate and reference trajectory (or the error a stage raised), for the
# four fixtures and seeds 1-5 of the benchmark's march, history and
# validate families.  The repr of a value class spells every field, nested
# expression trees included, so a change to a class's fields, their order,
# their defaults or the repr itself changes the digest.  Re-recorded once,
# when ErrorEstimate lost its unused k_hat field: the old reprs with their
# 63 "k_hat=(...), " removed give this digest.
REPR_DIGEST = "32f86f289ce163dd9037208521dbd11dcf66b94eae93ff9585141719ab22b66a"


def pipeline_reprs(problem) -> str:
    lines = [repr(problem), repr(check_compatibility(problem)), repr(check_h2(problem))]
    try:
        lines.append(repr(compute_validity(problem)))
        reduced = substitute_history(problem)
        lines.append(repr(reduced))
        solution = solve_reduced(reduced)
        lines.append(repr(solution))
        lines.append(repr(estimate_error(solution, reduced.validity.upper)))
        lines.append(repr(integrate_reference(reduced, 2e-2, reduced.validity.upper)))
    except Exception as exc:  # the error a stage raised is part of the pin
        lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def test_pipeline_value_reprs_match_recorded_digest(fixtures_dir):
    problems = [load_problem(path) for path in sorted(fixtures_dir.glob("*.fde"))]
    for family in (families.march_family, families.history_family, families.validate_family):
        for seed in range(1, 6):
            problems += [parse_problem(p.text) for p in family(seed)]
    assert sha256("".join(pipeline_reprs(problem) for problem in problems)) == REPR_DIGEST
