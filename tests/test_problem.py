import math

import pytest
from scipy.special import lambertw

from taydel.expr import parse_expression
from taydel.problem import (
    CauchyProblem,
    ConstantDelay,
    DelaySpec,
    ProblemError,
    ProportionalDelay,
    TimeVaryingDelay,
    check_compatibility,
    check_h2,
    compute_validity,
)
from taydel.problemfile import load_problem, parse_problem


def vary(expr_text: str) -> TimeVaryingDelay:
    return TimeVaryingDelay(parse_expression(expr_text))


def make_problem(delays, horizon=1.0, phi_text="t^2"):
    """Single trivial equation; only the delay set matters here."""
    needs_phi = any(not d.proportional for d in delays)
    return CauchyProblem(
        order=1,
        var_names=("u1",),
        equations=(parse_expression("u1", variables=("u1",), max_deriv=1),),
        delays=tuple(delays),
        init=((0.0,),),
        horizon=horizon,
        trunc_order=4,
        phi=(parse_expression(phi_text),) if needs_phi else None,
    )


class TestDelaySpecs:
    def test_constant_must_be_positive(self):
        with pytest.raises(ProblemError):
            ConstantDelay(0.0)
        with pytest.raises(ProblemError):
            ConstantDelay(-1.0)

    def test_constant_must_be_finite(self):
        with pytest.raises(ProblemError, match="^constant delay must be finite, got inf$"):
            ConstantDelay(math.inf)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.1])
    def test_proportional_ratio_bounds(self, q):
        with pytest.raises(ProblemError):
            ProportionalDelay(q)

    def test_varying_lag_must_be_time_only(self):
        with pytest.raises(ProblemError):
            make_problem(
                [DelaySpec("d", TimeVaryingDelay(
                    parse_expression("u1", variables=("u1",))
                ))]
            )


class TestComputeValidity:
    def test_mixed_constant_and_proportional(self):
        interval = compute_validity(
            make_problem(
                [
                    DelaySpec("a", ConstantDelay(2.0)),
                    DelaySpec("b", ConstantDelay(1.0)),
                    DelaySpec("c", ProportionalDelay(0.5)),
                    DelaySpec("d", ProportionalDelay(1 / 3)),
                ]
            )
        )
        assert interval.t_star == -2.0
        assert interval.t_alpha == 1.0
        assert interval.upper == 1.0

    def test_pure_proportional(self):
        interval = compute_validity(
            make_problem(
                [DelaySpec("c", ProportionalDelay(0.5)),
                 DelaySpec("d", ProportionalDelay(1 / 3))]
            )
        )
        assert interval.t_star == 0.0
        assert interval.t_alpha == math.inf
        assert interval.upper == 1.0

    def test_time_varying_activation_root(self):
        problem = make_problem([DelaySpec("lag", vary("exp(-t)/2"))])
        interval = compute_validity(problem)
        expected = float(lambertw(0.5).real)
        assert interval.t_alpha == pytest.approx(expected, abs=1e-9)
        assert interval.t_alpha > 0
        g = interval.t_alpha - math.exp(-interval.t_alpha) / 2
        assert abs(g) < 1e-10
        assert interval.t_star == pytest.approx(-0.5, abs=1e-6)

    def test_constant_activation_is_exact(self):
        interval = compute_validity(
            make_problem([DelaySpec("a", ConstantDelay(0.3))])
        )
        assert interval.t_alpha == 0.3

    def test_already_advanced_lag_is_refused(self):
        # lag t/2 vanishes at 0 and the delayed argument t/2 is positive
        # for every t > 0: it reads the solution, never the history
        problem = make_problem(
            [DelaySpec("x", vary("t/2")), DelaySpec("a", ConstantDelay(0.7))]
        )
        with pytest.raises(ProblemError) as excinfo:
            compute_validity(problem)
        assert str(excinfo.value) == (
            "delay 'x': lag is 0 at t = 0 and the delayed argument is ahead of 0 "
            "right after it; write it as a proportional delay"
        )

    def test_lag_exceeding_horizon_never_activates(self):
        problem = make_problem([DelaySpec("x", vary("t + 2"))])
        interval = compute_validity(problem)
        assert interval.t_alpha == math.inf
        assert interval.upper == 1.0
        assert any("whole" in note for note in interval.notes)

    def test_nonpositive_lag_is_rejected(self):
        with pytest.raises(ProblemError):
            compute_validity(make_problem([DelaySpec("x", vary("1 - 2*t"))]))

    @pytest.mark.parametrize(
        "lag, expected",
        [
            ("exp(-t)/2", ("-0.5", "0.35173371124919589", "0.35173371124919589")),
            ("1/2 + t^2/4", ("-0.5", "0.58578643762690508", "0.58578643762690508")),
            ("1 + t/2", ("-1", "inf", "1")),
        ],
    )
    def test_time_varying_interval_is_pinned(self, lag, expected):
        # 17-digit values of the scan and bisection, recorded when the lag
        # was walked as a tree at every point
        interval = compute_validity(make_problem([DelaySpec("lag", vary(lag))]))
        got = (interval.t_star, interval.t_alpha, interval.upper)
        assert tuple(f"{x:.17g}" for x in got) == expected

    @pytest.mark.parametrize(
        "lag, message",
        [
            ("1/(t - 1/2)", "division by zero in 1 / (t - 0.5) at t=0.5"),
            ("exp(1000*t)", "exp overflows at argument 710 in exp(1000 * t) at t=0.71"),
        ],
    )
    def test_lag_evaluation_failure_is_a_problem_error(self, lag, message):
        with pytest.raises(ProblemError) as excinfo:
            compute_validity(make_problem([DelaySpec("lag", vary(lag))]))
        assert str(excinfo.value) == f"delay law evaluation failed: {message}"

    def test_monotone_under_delay_removal(self):
        specs = [
            DelaySpec("a", ConstantDelay(0.4)),
            DelaySpec("b", vary("exp(-t)/2")),
            DelaySpec("c", ProportionalDelay(0.5)),
        ]
        full = compute_validity(make_problem(specs)).t_alpha
        for drop in range(len(specs)):
            remaining = [s for i, s in enumerate(specs) if i != drop]
            assert compute_validity(make_problem(remaining)).t_alpha >= full


class TestCompatibility:
    def test_quadratic_history_matches_zero_data(self, fixtures_dir):
        report = check_compatibility(load_problem(fixtures_dir / "example2.fde"))
        assert report.ok
        assert len(report.entries) == 4

    def test_exponential_history_matches_unit_data(self, fixtures_dir):
        report = check_compatibility(load_problem(fixtures_dir / "example3.fde"))
        assert report.ok

    def test_mismatch_is_reported_entrywise(self):
        problem = CauchyProblem(
            order=2,
            var_names=("u1",),
            equations=(parse_expression("u1' + u1@a", variables=("u1",),
                                        delays=("a",), max_deriv=2),),
            delays=(DelaySpec("a", ConstantDelay(1.0)),),
            init=((1.0, 0.0),),
            horizon=1.0,
            trunc_order=4,
            phi=(parse_expression("t^2"),),
        )
        report = check_compatibility(problem)
        assert not report.ok
        bad = [e for e in report.entries if not e.ok]
        assert len(bad) == 1
        assert bad[0].deriv == 0
        assert bad[0].residual == pytest.approx(-1.0)

    def test_vacuous_without_history(self):
        report = check_compatibility(
            make_problem([DelaySpec("c", ProportionalDelay(0.5))])
        )
        assert report.ok
        assert report.entries == ()


EX3_LIKE = """
order = 3
vars = u1, u2
delay two = constant(2)
delay third = proportional(1/3)
delay half = proportional(1/2)
eq u1''' = u1'''@two * u1@third + (u1^2)^(1/3)
eq u2''' = {rhs}
phi u1 = exp(t)
phi u2 = t^2
init u1 = [1, 1, 1]
init u2 = [0, 0, 2]
horizon = 1
taylor_order = 8
"""


class TestH2:
    def test_own_variable_neutral_term_passes(self):
        problem = parse_problem(EX3_LIKE.format(rhs="u2'''@half + u1@third"))
        assert check_h2(problem).ok

    def test_cross_variable_neutral_term_fails_with_names(self):
        problem = parse_problem(EX3_LIKE.format(rhs="u1'''@half + u1@third"))
        report = check_h2(problem)
        assert not report.ok
        violation = report.violations[0]
        assert violation.equation == 2
        assert violation.variable == 1
        assert violation.delay == "half"

    def test_vacuous_without_neutral_proportional_terms(self):
        problem = parse_problem(EX3_LIKE.format(rhs="u2'@half + u1@third"))
        assert check_h2(problem).ok


class TestProblemInvariants:
    def test_init_shape_enforced(self):
        with pytest.raises(ProblemError):
            CauchyProblem(
                order=2,
                var_names=("u1",),
                equations=(parse_expression("u1", variables=("u1",), max_deriv=2),),
                delays=(),
                init=((1.0,),),
                horizon=1.0,
                trunc_order=4,
            )

    def test_history_required_for_constant_delay(self):
        with pytest.raises(ProblemError):
            CauchyProblem(
                order=1,
                var_names=("u1",),
                equations=(parse_expression("u1@a", variables=("u1",),
                                            delays=("a",), max_deriv=1),),
                delays=(DelaySpec("a", ConstantDelay(1.0)),),
                init=((1.0,),),
                horizon=1.0,
                trunc_order=4,
            )

    def test_duplicate_delay_ids(self):
        with pytest.raises(ProblemError):
            make_problem(
                [DelaySpec("a", ProportionalDelay(0.5)),
                 DelaySpec("a", ProportionalDelay(0.25))]
            )

    def test_structure_computed_at_construction(self):
        with pytest.raises(Exception):
            CauchyProblem(
                order=1,
                var_names=("u1",),
                equations=(parse_expression("u1'", variables=("u1",), max_deriv=1),),
                delays=(),
                init=((1.0,),),
                horizon=1.0,
                trunc_order=4,
            )
