import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taydel.expr import (
    TIME,
    Add,
    Const,
    Div,
    EvaluationError,
    Func,
    KnownSeries,
    Mul,
    Neg,
    ParseError,
    Pow,
    StateRef,
    StructureError,
    Sub,
    analyze,
    compile_numeric,
    depth,
    eval_numeric,
    eval_series,
    iter_refs,
    map_refs,
    parse_expression,
    pretty,
    time_series,
)
from taydel.problem import ConstantDelay, ProblemError, ValidityInterval
from taydel.problemfile import MAX_EXPRESSION_DEPTH
from taydel.series import Series, SeriesDomainError, SeriesError, exp_linear, monomial

VARS = ("u1", "u2", "u3")


def parse(text, *, variables=VARS, delays=("a1", "a2"), max_deriv=3):
    return parse_expression(text, variables=variables, delays=delays, max_deriv=max_deriv)


class TestParse:
    def test_square_of_state(self):
        assert parse("u2^2") == Pow(StateRef(2, 0, None), 2.0)

    def test_nested_rational_power(self):
        assert parse("(u1^2)^(1/3)") == Pow(Pow(StateRef(1, 0, None), 2.0), 1 / 3)

    def test_exponential_coefficient_folds_constants(self):
        got = parse("exp(5/2*t)*u2")
        assert got == Mul(Func("exp", Mul(Const(2.5), TIME)), StateRef(2, 0, None))

    def test_left_associativity(self):
        assert parse("t - t - t") == Sub(Sub(TIME, TIME), TIME)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-t^2") == Neg(Pow(TIME, 2.0))

    def test_division_of_power(self):
        assert parse("t^4/18") == Div(Pow(TIME, 4.0), Const(18.0))

    def test_primes_and_delay(self):
        assert parse("u1'''@a1") == StateRef(1, 3, "a1")
        assert parse("u2''") == StateRef(2, 2, None)

    def test_prime_overflow(self):
        with pytest.raises(ParseError) as excinfo:
            parse("u1''''")
        assert "derivative order 4" in str(excinfo.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as excinfo:
            parse("w1 + 1")
        assert "unknown identifier 'w1'" in str(excinfo.value)

    def test_unknown_delay(self):
        with pytest.raises(ParseError) as excinfo:
            parse("u1@zz")
        assert "unknown delay 'zz'" in str(excinfo.value)

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("u1 + * u2")
        assert "column 6" in str(excinfo.value)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("u1 u2")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("u1 $ u2")

    def test_expression_is_one_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse("u1 \n+ u2")
        assert str(excinfo.value) == "unexpected character '\\n' (line 1, column 4)"

    def test_parser_bounds_its_own_parentheses(self):
        with pytest.raises(ParseError) as excinfo:
            parse_expression("(" * 400 + "t" + ")" * 400)
        assert str(excinfo.value) == "parentheses nest deeper than 100 levels (line 1, column 101)"

    def test_time_only_context_rejects_states(self):
        with pytest.raises(ParseError):
            parse_expression("u1 + t")

    def test_time_only_context_accepts_functions(self):
        got = parse_expression("exp(-t)/2")
        assert got == Div(Func("exp", Neg(TIME)), Const(2.0))

    def test_constant_folding_is_finite_only(self):
        got = parse_expression("1/0")
        assert got == Div(Const(1.0), Const(0.0))

    @pytest.mark.parametrize(
        "text, base, exponent", [("0^(-1)", 0.0, -1.0), ("1e300^2", 1e300, 2.0)]
    )
    def test_power_that_raises_is_not_folded(self, text, base, exponent):
        assert parse_expression(text) == Pow(Const(base), exponent)


FIXTURE_EXPRESSIONS = [
    "u2^2",
    "1/2 * u1@a1",
    "exp(5/2*t) * u2 + 9 * exp(2*t) * u3@a2",
    "2 * u1@a1 * u2@a2 + u1' - t^4 + 2*t^3 - t^2 - 4*t + 4",
    "u2@a2 * u1@a1 + u2'@a2 - t^4/18 - 2*t + 6",
    "u1'''@a1 * u1@a2 + (u1^2)^(1/3) + u2'@a2",
    "u2'''@a1 + u2'@a2 * u1@a2",
    "2*t - exp(-t)",
    "sin(t) * cos(u1) - ln(u2 + 3)",
]


class TestPretty:
    @pytest.mark.parametrize("text", FIXTURE_EXPRESSIONS)
    def test_round_trip_on_fixture_corpus(self, text):
        tree = parse(text)
        assert parse(pretty(tree, VARS)) == tree

    def test_default_variable_names(self):
        assert pretty(StateRef(2, 1, "a1")) == "u2'@a1"

    def test_known_series_rendering_is_diagnostic(self):
        text = pretty(KnownSeries(Series((1.0, -2.0, 1.0, 0.0, 0.0))))
        assert text.startswith("<series")


def expr_strategy():
    leaves = st.one_of(
        st.builds(Const, st.floats(min_value=-8, max_value=8, allow_nan=False)),
        st.just(TIME),
        st.builds(
            StateRef,
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=2),
            st.sampled_from([None, "a1", "a2"]),
        ),
    )

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Neg, children),
            st.builds(Pow, children, st.sampled_from([2.0, 3.0, 0.5, 1 / 3])),
            st.builds(Func, st.sampled_from(["exp", "ln", "sin", "cos"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(expr_strategy())
def test_pretty_parse_normalization_is_idempotent(tree):
    once = parse(pretty(tree, VARS))
    twice = parse(pretty(once, VARS))
    assert once == twice


class TestAnalyze:
    def test_proportional_only_system(self):
        eqs = (
            parse("u2^2"),
            parse("1/2 * u1@a1"),
            parse("exp(5/2*t) * u2 + 9 * exp(2*t) * u3@a2"),
        )
        report = analyze(eqs, order=1, num_vars=3, delays={"a1": True, "a2": True})
        assert report.max_deriv_per_delay == {"a1": 0, "a2": 0}
        assert report.max_delayed_deriv == 0
        assert report.total_delayed_derivs == 0
        assert not report.neutral
        assert report.neutral_proportional_refs == ()

    def test_neutral_detection(self):
        eqs = (
            parse("u1'''@a1 * u1@a2 + (u1^2)^(1/3)"),
            parse("u2'''@a2 + u2'@a1 * u1@a2"),
        )
        report = analyze(eqs, order=3, num_vars=3, delays={"a1": False, "a2": True})
        assert report.max_deriv_per_delay == {"a1": 3, "a2": 3}
        assert report.max_delayed_deriv == 3
        assert report.neutral
        assert report.neutral_proportional_refs == ((2, StateRef(2, 3, "a2")),)

    def test_undelayed_system_not_neutral(self):
        report = analyze(
            (parse("u1", max_deriv=1),), order=1, num_vars=1, delays={}
        )
        assert report.max_delayed_deriv == 0
        assert report.total_delayed_derivs == 0
        assert not report.neutral

    def test_total_counts_every_delay(self):
        eqs = (parse("u1'@a1 + u2''@a2 + u1@a1"),)
        report = analyze(eqs, order=3, num_vars=3, delays={"a1": False, "a2": True})
        assert report.total_delayed_derivs == 3
        assert report.ref_count == 3

    def test_is_pure(self):
        eqs = (parse("u1'@a1 + u2*u2"),)
        kwargs = dict(order=2, num_vars=3, delays={"a1": True, "a2": False})
        assert analyze(eqs, **kwargs) == analyze(eqs, **kwargs)

    def test_every_ref_tallied_once(self):
        eqs = tuple(parse(t) for t in FIXTURE_EXPRESSIONS[:5])
        report = analyze(eqs, order=3, num_vars=3, delays={"a1": True, "a2": False})
        assert report.ref_count == sum(len(list(iter_refs(e))) for e in eqs)

    def test_long_sum_is_walked_in_order(self):
        text = " + ".join(f"u{i % 3 + 1}'@a{i % 2 + 1}" for i in range(3000))
        refs = list(iter_refs(parse(text)))
        assert [(r.var, r.delay) for r in refs] == [
            (i % 3 + 1, f"a{i % 2 + 1}") for i in range(3000)
        ]

    def test_rejects_undelayed_top_order(self):
        with pytest.raises(StructureError):
            analyze((parse("u1'''"),), order=3, num_vars=3, delays={})

    def test_accepts_top_order_under_constant_delay(self):
        report = analyze(
            (parse("u1'''@a1"),), order=3, num_vars=3, delays={"a1": False}
        )
        assert report.max_delayed_deriv == 3
        assert report.neutral
        assert report.neutral_proportional_refs == ()

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(StructureError):
            analyze((parse("u3"),), order=1, num_vars=2, delays={})

    def test_rejects_undeclared_delay(self):
        with pytest.raises(StructureError):
            analyze((parse("u1@a1"),), order=1, num_vars=1, delays={"a2": True})


class TestEvalSeries:
    def test_polynomial_in_time(self):
        got = eval_series(parse_expression("2*t^2 - t + 3"), time_series(4))
        assert got == Series((3.0, -1.0, 2.0, 0.0, 0.0))

    def test_exp_of_scaled_time(self):
        got = eval_series(parse_expression("exp(-t)"), time_series(5))
        assert got == exp_linear(-1.0, 5)

    def test_state_refs_need_resolver(self):
        with pytest.raises(EvaluationError):
            eval_series(parse("u1"), time_series(3))

    def test_resolver_is_used(self):
        got = eval_series(
            parse("u1 * t"), time_series(3), lambda ref: exp_linear(1.0, 3)
        )
        assert got.coeffs == pytest.approx((0.0, 1.0, 1.0, 0.5))

    def test_known_series_truncates_to_working_order(self):
        leaf = KnownSeries(exp_linear(1.0, 8))
        got = eval_series(Mul(leaf, Const(2.0)), time_series(3))
        assert got == Series(tuple(2.0 * c for c in exp_linear(1.0, 3).coeffs))

    def test_short_known_series_is_an_error(self):
        leaf = KnownSeries(Series((1.0, 1.0)))
        with pytest.raises(Exception):
            eval_series(leaf, time_series(5))

    def test_division_by_zero_series_names_subexpression(self):
        with pytest.raises(SeriesDomainError) as excinfo:
            eval_series(parse_expression("1/t"), time_series(3))
        assert "1 / t" in str(excinfo.value)

    def test_integer_power_of_time(self):
        got = eval_series(parse_expression("t^3"), time_series(5))
        assert got == monomial(3, 5)

    def test_non_finite_constant_is_refused_at_its_index(self):
        # without the check the product would carry inf * 0 = nan
        with pytest.raises(SeriesError) as excinfo:
            eval_series(Mul(Const(math.inf), TIME), time_series(3))
        assert str(excinfo.value) == "non-finite coefficient inf at index 0"


class TestEvalNumeric:
    def test_polynomial(self):
        assert eval_numeric(parse_expression("2*t^2 - t + 3"), 2.0) == 9.0

    def test_functions(self):
        import math

        got = eval_numeric(parse_expression("exp(-t)/2"), 0.7)
        assert got == pytest.approx(math.exp(-0.7) / 2)

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            eval_numeric(parse_expression("1/(t - 1)"), 1.0)

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            eval_numeric(parse_expression("ln(t)"), 0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationError):
            eval_numeric(parse_expression("(t - 2)^(1/2)"), 1.0)

    def test_state_resolver(self):
        got = eval_numeric(parse("u1' + 1"), 0.0, lambda ref: 41.0)
        assert got == 42.0


class TestCompileNumeric:
    # expected outcomes recorded from the tree-walking evaluator that
    # compile_numeric replaced
    @pytest.mark.parametrize(
        "text, t, expected",
        [
            ("2*t^2 - t + 3", 2.0, 9.0),
            ("exp(-t)/2", 0.7, 0.24829265189570476),
            ("1/(t - 1)", 1.0, "division by zero in 1 / (t - 1) at t=1"),
            ("ln(t)", 0.0, "ln of nonpositive value 0 in ln(t) at t=0"),
            (
                "(t - 2)^(1/2)",
                1.0,
                "fractional power of negative base in (t - 2)^(0.5) at t=1",
            ),
            ("sin(t) * cos(t) - (1 + t)^(1/3)", 0.3, -0.8090716463635883),
            ("u1' + 1", 0.0, 42.0),
            # tests a constant settles: a zero constant denominator still
            # fails, an integral power of a negative base is real
            ("t/0", 1.0, "division by zero in t / 0 at t=1"),
            ("(t - 2)^2", 1.0, 1.0),
            ("(t - 2)^(-2)", 2.0, "0.0 cannot be raised to a negative power in (t - 2)^-2 at t=2"),
            # the left operand fails first
            ("1/(t - 1) + ln(t - 2)", 1.0, "division by zero in 1 / (t - 1) at t=1"),
        ],
    )
    def test_compiled_agrees_with_eval_numeric(self, text, t, expected):
        node = parse(text)
        compiled = compile_numeric([node], lambda ref: ("y", 0))

        def outcome(evaluate):
            try:
                return evaluate()
            except EvaluationError as exc:
                return str(exc)

        assert outcome(lambda: compiled(t, [41.0], None)[0]) == expected
        assert outcome(lambda: eval_numeric(node, t, lambda ref: 41.0)) == expected

    def test_exp_overflow_is_an_evaluation_error(self):
        with pytest.raises(EvaluationError) as excinfo:
            compile_numeric([parse_expression("exp(1000*t)")])(1.0, None, None)
        assert str(excinfo.value) == (
            "exp overflows at argument 1000 in exp(1000 * t) at t=1"
        )

    def test_state_reference_without_leaf_fails_when_evaluated(self):
        compiled = compile_numeric([parse("2 * u1'@a1")])
        with pytest.raises(EvaluationError) as excinfo:
            compiled(0.0, None, None)
        assert str(excinfo.value) == "state reference u1'@a1 not allowed in this context"

    def test_history_leaf_without_callback_fails_when_evaluated(self):
        leaf = KnownSeries(Series((1.0, -2.0, 1.0, 0.0, 0.0)))
        compiled = compile_numeric([Mul(Const(2.0), leaf)])
        with pytest.raises(EvaluationError) as excinfo:
            compiled(0.5, None, None)
        assert str(excinfo.value) == (
            "history leaf <series 1, -2, 1, 0, ...> not allowed in this context"
        )

    def test_history_leaves_are_read_through_the_leaf_callback(self):
        leaf = KnownSeries(Series((1.0, -2.0, 3.0)))
        node = Add(Mul(leaf, parse("u1")), leaf)
        compiled = compile_numeric([node], lambda n: ("dv", 0) if n is leaf else ("y", 0))
        assert compiled(0.5, [4.0], [7.0]) == (35.0,)
        # eval_numeric evaluates the series itself, at t
        assert eval_numeric(node, 0.5, lambda ref: 4.0) == 0.75 * 4.0 + 0.75
        with pytest.raises(EvaluationError, match="^history leaf <series 1, -2, 3> not allowed"):
            eval_numeric(node, 0.5)

    def test_reference_without_leaf_fails_in_evaluation_order(self):
        compiled = compile_numeric([parse("ln(t) * u1 + 1")])
        with pytest.raises(EvaluationError, match=r"^ln of nonpositive value 0 in ln\(t\) at t=0$"):
            compiled(0.0, None, None)
        with pytest.raises(EvaluationError, match="^state reference u1 not allowed"):
            compiled(1.0, None, None)

    def test_bare_leaf_and_constant_trees(self):
        # trees with no operator node emit no statement, only the return
        compiled = compile_numeric(
            [parse("u2"), parse("3"), parse("t"), parse("u1@a1")],
            lambda ref: ("y", ref.var - 1) if ref.delay is None else ("dv", 0),
        )
        assert compiled(0.25, [1.5, 2.5], [7.0]) == (2.5, 3.0, 0.25, 7.0)

    def test_failed_tree_is_named_by_its_position(self):
        compiled = compile_numeric([parse_expression("t"), parse_expression("1/t")])
        with pytest.raises(EvaluationError) as excinfo:
            compiled(0.0, None, None)
        assert excinfo.value.index == 1

    def test_tree_at_the_depth_bound_compiles_and_evaluates(self):
        # a left-deep chain of 124 products and quotients under 125 sums:
        # 250 levels, the most a problem file admits
        factors = "".join(f" / {k + 2}" if k % 2 else f" * {k + 2}" for k in range(124))
        node = parse_expression("t" + factors + " + ln(t)" * 125)
        assert depth(node) == MAX_EXPRESSION_DEPTH
        expected = 2.0
        for k in range(124):
            expected = expected / (k + 2) if k % 2 else expected * (k + 2)
        for _ in range(125):
            expected = expected + math.log(2.0)
        compiled = compile_numeric([node])
        assert compiled(2.0, None, None) == (expected,)
        with pytest.raises(EvaluationError, match=r"^ln of nonpositive value 0 in ln\(t\) at t=0$"):
            compiled(0.0, None, None)


class TestValueClasses:
    """The semantics callers rely on in every immutable value class."""

    def test_equality_needs_the_same_class(self):
        a, b = StateRef(1, 0), Const(2.0)
        assert Add(a, b) == Add(a, b)
        assert Add(a, b) != Sub(a, b)
        assert Const(1.0) != 1.0

    def test_hash_is_the_hash_of_the_field_tuple(self):
        assert hash(StateRef(1, 0, "half")) == hash((1, 0, "half"))
        assert hash(TIME) == hash(())
        assert len({Add(StateRef(1, 0), TIME), Add(StateRef(1, 0), TIME)}) == 1

    def test_fields_cannot_be_assigned(self):
        ref = StateRef(1, 0)
        with pytest.raises(AttributeError):
            ref.var = 2
        with pytest.raises(AttributeError):
            ref.extra = 1
        with pytest.raises(AttributeError):
            del ref.var
        assert ref == StateRef(1, 0)

    def test_keyword_construction_and_defaults(self):
        assert StateRef(deriv=1, var=2) == StateRef(2, 1, None)
        assert ValidityInterval(0.0, 1.0, upper=1.0).notes == ()
        assert Pow(exponent=2.0, base=TIME) == Pow(TIME, 2.0)
        with pytest.raises(TypeError):
            StateRef(1)
        with pytest.raises(TypeError):
            StateRef(1, 0, "half", "extra")
        with pytest.raises(TypeError):
            StateRef(1, 0, dely="half")
        assert StateRef(1, 0)._replace(delay="half") == StateRef(1, 0, "half")
        with pytest.raises(TypeError):
            StateRef(1, 0)._replace(dely="half")

    def test_repr_names_every_field(self):
        assert repr(Add(StateRef(1, 0, "half"), Const(2.0))) == (
            "Add(left=StateRef(var=1, deriv=0, delay='half'), right=Const(value=2.0))"
        )
        assert repr(TIME) == "Time()"

    def test_post_init_still_validates(self):
        with pytest.raises(ProblemError, match="constant delay must be positive"):
            ConstantDelay(-1.0)
        assert Series([1, 2]).coeffs == (1.0, 2.0)

    def test_map_refs_shares_unchanged_subtrees(self):
        kept = parse_expression("exp(t) * 2", variables=VARS)
        tree = Add(kept, Neg(StateRef(1, 0)))
        mapped = map_refs(tree, lambda ref: Const(3.0))
        assert mapped == Add(kept, Neg(Const(3.0)))
        assert mapped.left is kept
        assert map_refs(kept, lambda ref: Const(3.0)) is kept
