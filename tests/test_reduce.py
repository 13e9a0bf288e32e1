import hashlib
import math
import sys
from pathlib import Path

import mpmath
import pytest

from taydel import expr as ex
from taydel.expr import parse_expression
from taydel.problem import (
    ConstantDelay,
    DelaySpec,
    ProblemError,
    ProportionalDelay,
    TimeVaryingDelay,
    compute_validity,
)
from taydel.reduce import (
    ReducedSystem,
    delay_argument_series,
    history_leaf,
    substitute_history,
)
from taydel.problemfile import load_problem, parse_problem
from taydel.series import PowerTable, Series

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402

mpmath.mp.dps = 40


def known_leaves(node):
    if isinstance(node, ex.KnownSeries):
        yield node
    elif isinstance(node, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        yield from known_leaves(node.left)
        yield from known_leaves(node.right)
    elif isinstance(node, ex.Neg):
        yield from known_leaves(node.operand)
    elif isinstance(node, ex.Pow):
        yield from known_leaves(node.base)
    elif isinstance(node, ex.Func):
        yield from known_leaves(node.arg)


def surviving_delays(system: ReducedSystem):
    ids = set()
    for equation in system.equations:
        for ref in ex.iter_refs(equation):
            if ref.delay is not None:
                ids.add(ref.delay)
    return ids


class TestDelayArgumentSeries:
    def test_constant_lag_one(self):
        got = delay_argument_series(DelaySpec("a", ConstantDelay(1.0)), 4)
        assert got == Series((-1.0, 1.0, 0.0, 0.0, 0.0))

    def test_constant_lag_two(self):
        got = delay_argument_series(DelaySpec("a", ConstantDelay(2.0)), 3)
        assert got == Series((-2.0, 1.0, 0.0, 0.0))

    def test_time_dependent_lag(self):
        spec = DelaySpec("lag", TimeVaryingDelay(parse_expression("exp(-t)/2")))
        got = delay_argument_series(spec, 4)
        assert got.coeffs == pytest.approx((-0.5, 1.5, -0.25, 1 / 12, -1 / 48))

    def test_proportional_is_refused(self):
        with pytest.raises(ProblemError):
            delay_argument_series(DelaySpec("q", ProportionalDelay(0.5)), 3)


class TestHistoryLeaf:
    def test_quadratic_history_with_unit_lag(self):
        # phi = t^2 along t - 1 gives (t-1)^2
        argument = delay_argument_series(DelaySpec("a", ConstantDelay(1.0)), 8)
        leaf = history_leaf(parse_expression("t^2"), 0, argument, 8)
        assert leaf.coeffs == pytest.approx(
            (1.0, -2.0, 1.0) + (0.0,) * 6, abs=1e-15
        )

    def test_exponential_history_third_derivative(self):
        # phi = exp(t), third derivative along t - 2: exp(t - 2)
        argument = delay_argument_series(DelaySpec("a", ConstantDelay(2.0)), 10)
        leaf = history_leaf(parse_expression("exp(t)"), 3, argument, 10)
        for k, c in enumerate(leaf.coeffs):
            assert c == pytest.approx(
                math.exp(-2.0) / math.factorial(k), rel=1e-13
            )

    def test_quadratic_history_derivative_along_varying_lag(self):
        # phi = t^2, first derivative along t - exp(-t)/2: 2t - exp(-t)
        spec = DelaySpec("lag", TimeVaryingDelay(parse_expression("exp(-t)/2")))
        argument = delay_argument_series(spec, 10)
        leaf = history_leaf(parse_expression("t^2"), 1, argument, 10)
        for k, c in enumerate(leaf.coeffs):
            expected = (2.0 if k == 1 else 0.0) - (-1.0) ** k / math.factorial(k)
            assert c == pytest.approx(expected, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize(
        "phi_text, deriv, lag_text",
        [
            ("t^2", 0, None),            # constant lag 1
            ("exp(t)", 3, None),
            ("t^2", 1, "exp(-t)/2"),
            ("exp(t) * t^2 + sin(t)", 2, "exp(-t)/2"),
            ("ln(t + 3)", 1, None),
        ],
    )
    def test_pointwise_agreement_with_numeric_history(self, phi_text, deriv, lag_text):
        if lag_text is None:
            spec = DelaySpec("a", ConstantDelay(1.0))
            lag = lambda t: mpmath.mpf(1)
        else:
            spec = DelaySpec("a", TimeVaryingDelay(parse_expression(lag_text)))
            lag = lambda t: mpmath.exp(-t) / 2
        argument = delay_argument_series(spec, 24)
        leaf = history_leaf(parse_expression(phi_text), deriv, argument, 24)

        phi_mp = {
            "t^2": lambda s: s**2,
            "exp(t)": mpmath.exp,
            "exp(t) * t^2 + sin(t)": lambda s: mpmath.exp(s) * s**2 + mpmath.sin(s),
            "ln(t + 3)": lambda s: mpmath.log(s + 3),
        }[phi_text]
        for i in range(20):
            t = 0.5 * i / 19
            alpha = t - lag(mpmath.mpf(t))
            expected = float(mpmath.diff(phi_mp, alpha, deriv))
            assert leaf.evaluate(t) == pytest.approx(expected, abs=1e-7)


class TestSubstituteHistory:
    def test_polynomial_fixture_leaves(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example2.fde")
        reduced = substitute_history(problem)
        leaves = list(known_leaves(reduced.equations[0]))
        assert len(leaves) == 1
        assert leaves[0].series.coeffs[:4] == pytest.approx((1.0, -2.0, 1.0, 0.0))

    def test_neutral_fixture_leaves(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example3.fde")
        reduced = substitute_history(problem)
        first = list(known_leaves(reduced.equations[0]))
        assert len(first) == 2
        exp_leaf, drive_leaf = first
        for k in range(6):
            assert exp_leaf.series.coeffs[k] == pytest.approx(
                math.exp(-2.0) / math.factorial(k), rel=1e-12
            )
            expected = (2.0 if k == 1 else 0.0) - (-1.0) ** k / math.factorial(k)
            assert drive_leaf.series.coeffs[k] == pytest.approx(expected, abs=1e-13)
        second = list(known_leaves(reduced.equations[1]))
        assert len(second) == 1
        assert second[0].series.coeffs[:3] == pytest.approx((-2.0, 2.0, 0.0))

    def test_no_nonproportional_delay_survives(self, fixtures_dir):
        for name in ("example2.fde", "example3.fde", "example3_u1.fde"):
            problem = load_problem(fixtures_dir / name)
            reduced = substitute_history(problem)
            proportional = {d.id for d in problem.delays if d.proportional}
            assert surviving_delays(reduced) <= proportional

    def test_leaf_headroom(self, fixtures_dir):
        for name in ("example2.fde", "example3.fde"):
            problem = load_problem(fixtures_dir / name)
            reduced = substitute_history(problem)
            minimum = reduced.trunc_order + reduced.order
            for equation in reduced.equations:
                for leaf in known_leaves(equation):
                    assert leaf.series.trunc_order >= minimum

    def test_idempotent_on_reduced_systems(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example2.fde")
        reduced = substitute_history(problem)
        rewrapped = type(problem)(
            order=reduced.order,
            var_names=reduced.var_names,
            equations=reduced.equations,
            delays=reduced.delays,
            init=reduced.init,
            horizon=problem.horizon,
            trunc_order=reduced.trunc_order,
            phi=None,
        )
        again = substitute_history(rewrapped)
        assert again.equations == reduced.equations

    def test_proportional_refs_pass_through(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example1.fde")
        reduced = substitute_history(problem)
        assert reduced.equations == problem.equations

    def test_validity_attached(self, fixtures_dir):
        problem = load_problem(fixtures_dir / "example2.fde")
        reduced = substitute_history(problem)
        assert reduced.validity == compute_validity(problem)


def test_constant_lag_leaf_is_bit_identical_to_the_composition():
    # -t expanded about -1 holds -0.0 coefficients; the composition turns
    # them into 0.0, and the shortcut for an inner series equal to t must too
    argument = delay_argument_series(DelaySpec("a", ConstantDelay(1.0)), 6)
    inner = Series((0.0,) + argument.coeffs[1:])
    for phi_text, deriv in (("-t", 0), ("-t^2 + 0*t", 1), ("exp(-t) - 1", 2)):
        about = Series((-1.0, 1.0) + (0.0,) * (5 + deriv))
        shifted = ex.eval_series(parse_expression(phi_text), about).differentiate(deriv)
        if phi_text == "-t":
            assert "-0.0" in repr(shifted)
        leaf = history_leaf(parse_expression(phi_text), deriv, argument, 6)
        assert repr(leaf) == repr(PowerTable(inner, 7).compose(shifted.coeffs))


class TestReducedSystemChecksItsReferences:
    """A reduced system built by hand is refused at construction when a
    reference could not be marched; the CLI maps the refusal to exit 2."""

    @staticmethod
    def with_first_equation(fixtures_dir, ref, delays=()):
        reduced = substitute_history(load_problem(fixtures_dir / "example1.fde"))
        return reduced._replace(
            equations=(ex.Add(ref, ex.Const(1.0)),) + reduced.equations[1:],
            delays=reduced.delays + tuple(delays),
        )

    def refused(self, fixtures_dir, capsys, ref, delays=()) -> str:
        from taydel.cli import _exit_code

        with pytest.raises(ex.StructureError) as excinfo:
            self.with_first_equation(fixtures_dir, ref, delays)
        assert _exit_code(excinfo.value) == 2
        return capsys.readouterr().err

    def test_variable_index_zero(self, fixtures_dir, capsys):
        # index 0 read the last variable's row through table[-1]
        err = self.refused(fixtures_dir, capsys, ex.StateRef(0, 0))
        assert err == "error: equation 1: variable index 0 out of range 1..3\n"

    def test_undeclared_delay(self, fixtures_dir, capsys):
        err = self.refused(fixtures_dir, capsys, ex.StateRef(2, 0, "quarter"))
        assert err == "error: equation 1: undeclared delay 'quarter'\n"

    def test_unreduced_delay(self, fixtures_dir, capsys):
        lag = DelaySpec("two", ConstantDelay(2.0))
        err = self.refused(fixtures_dir, capsys, ex.StateRef(2, 0, "two"), [lag])
        assert err == (
            "error: delay 'two' is not proportional; a reduced system keeps only "
            "proportional delays\n"
        )

    def test_undelayed_top_order_reference(self, fixtures_dir, capsys):
        err = self.refused(fixtures_dir, capsys, ex.StateRef(1, 1))
        assert err == (
            "error: equation 1: undelayed derivative order must be below the "
            "system order 1\n"
        )



# sha256 over repr(substitute_history(problem, trunc_order=N)) at orders where
# the power tables dominate, recorded before products, recurrences and power
# tables skipped structural zeros: the fixtures, seeds 1-5 of the benchmark's
# history family (lags 1/2 + t^2/4 and 1 + t/2) and EXP_LAG, whose lag
# exp(-t)/2 is no polynomial, so its power table keeps every product.
LARGE_ORDER_DIGESTS = {
    80: "a2dcff433d94cc67c139640dd6470e4d3fcd29d7b1838ef21cb638695583cae4",
    160: "d30bccc4c1bd569effb75fe194ddf47fa7f45499a3fda0e5eb7cd2795cbf5892",
}

EXP_LAG = """\
order = 1
vars = u, v
delay lag = vary(exp(-t)/2)
delay one = constant(1)
eq u' = u@lag*v@one + v'@lag - u
eq v' = -u + sin(u@lag)*v + (1 + v@lag^2)^(-1)
phi u = exp(t) + t^2
phi v = cos(2*t) + 1/(3 + t)
init u = [1]
init v = [1.3333333333333333]
horizon = 1
taylor_order = 10
"""


@pytest.mark.parametrize("order", sorted(LARGE_ORDER_DIGESTS))
def test_reduced_systems_at_large_orders_match_recorded_digest(fixtures_dir, order):
    problems = [load_problem(path) for path in sorted(fixtures_dir.glob("*.fde"))]
    problems += [
        parse_problem(generated.text)
        for seed in range(1, 6)
        for generated in families.history_family(seed)
    ]
    problems.append(parse_problem(EXP_LAG))
    text = "".join(repr(substitute_history(p, trunc_order=order)) + "\n" for p in problems)
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_ORDER_DIGESTS[order]
