import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import add, mul

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taydel.engine import solve
from taydel.problemfile import parse_problem
from taydel.series import (
    Series,
    SeriesDomainError,
    SeriesError,
    Tape,
    compose_elementary,
    compose_powers,
    exp_linear,
    exp_term,
    ln_term,
    monomial,
    non_finite_coefficient,
    pow_term,
    power_table,
    product_term,
    reciprocal_term,
    sincos_term,
)

mpmath.mp.dps = 40


def coeffs(s: Series) -> tuple[float, ...]:
    return s.coeffs


def product(a: Series, b: Series) -> Series:
    """a * b by the tape's Cauchy product, through a's order."""
    tape = Tape(len(a.coeffs))
    out = tape.product(a.coeffs, b.coeffs)
    tape.run()
    return Series(tuple(out))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(SeriesError):
            Series(())

    def test_rejects_nan_and_inf(self):
        with pytest.raises(SeriesError):
            Series((1.0, float("nan")))
        with pytest.raises(SeriesError):
            Series((float("inf"),))

    def test_names_the_first_non_finite_coefficient(self):
        with pytest.raises(SeriesError) as excinfo:
            Series((1.0, math.inf, math.nan))
        assert str(excinfo.value) == "non-finite coefficient inf at index 1"

    def test_equality_is_entrywise(self):
        assert Series((1.0, 2.0)) == Series((1, 2))
        assert Series((1.0, 2.0)) != Series((1.0, 2.0, 0.0))

    def test_truncated_refuses_padding(self):
        s = Series((1.0, 2.0))
        assert s.truncated(0) == Series((1.0,))
        with pytest.raises(SeriesError):
            s.truncated(5)


class TestMonomial:
    def test_degree_zero_is_one(self):
        assert coeffs(monomial(0, 3)) == (1.0, 0.0, 0.0, 0.0)

    def test_degree_two(self):
        assert coeffs(monomial(2, 4)) == (0.0, 0.0, 1.0, 0.0, 0.0)

    def test_degree_beyond_truncation_is_zero(self):
        assert coeffs(monomial(5, 3)) == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(SeriesError):
            monomial(-1, 3)


class TestExpLinear:
    def test_unit_rate(self):
        assert coeffs(exp_linear(1.0, 3)) == (1.0, 1.0, 0.5, 1 / 6)

    def test_zero_rate(self):
        assert coeffs(exp_linear(0.0, 2)) == (1.0, 0.0, 0.0)

    def test_negative_rate(self):
        assert coeffs(exp_linear(-1.0, 3)) == (1.0, -1.0, 0.5, -1 / 6)


class TestMul:
    def test_one_plus_t_times_one_minus_t(self):
        a = Series((1.0, 1.0, 0.0))
        b = Series((1.0, -1.0, 0.0))
        assert coeffs(product(a, b)) == (1.0, 0.0, -1.0)

    def test_exp_squared_doubles_rate(self):
        got = product(exp_linear(1.0, 3), exp_linear(1.0, 3))
        for k, c in enumerate(got.coeffs):
            assert c == pytest.approx(2.0**k / math.factorial(k), abs=1e-15)
        assert got.coeffs[:4] == pytest.approx((1.0, 2.0, 2.0, 4 / 3))

    def test_monomials_add_degrees(self):
        assert product(monomial(2, 6), monomial(3, 6)) == monomial(5, 6)


class TestScaleArg:
    def test_identity_scale(self):
        u = Series((0.5, -1.0, 2.0))
        assert u.scale_arg(1.0) == u

    def test_exp_half(self):
        got = exp_linear(1.0, 6).scale_arg(0.5)
        for k, c in enumerate(got.coeffs):
            assert c == pytest.approx(0.5**k / math.factorial(k), rel=1e-15)

    def test_exp_third_low_order(self):
        got = exp_linear(1.0, 2).scale_arg(1 / 3)
        assert got.coeffs == pytest.approx((1.0, 1 / 3, 1 / 18))

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.2])
    def test_rejects_bad_scale(self, q):
        with pytest.raises(SeriesError):
            monomial(1, 2).scale_arg(q)


class TestDifferentiate:
    def test_zeroth_derivative_is_identity(self):
        u = Series((1.0, 2.0, 3.0))
        assert u.differentiate(0) == u

    def test_exp_is_its_own_derivative(self):
        assert exp_linear(1.0, 3).differentiate(1) == Series((1.0, 1.0, 0.5))

    def test_second_derivative_of_t_squared(self):
        assert Series((0.0, 0.0, 1.0, 0.0)).differentiate(2) == Series((2.0, 0.0))

    def test_order_drops(self):
        assert Series((1.0, 1.0, 1.0)).differentiate(1).trunc_order == 1

    def test_rejects_overdraw(self):
        with pytest.raises(SeriesError):
            Series((1.0, 1.0)).differentiate(2)

    def test_derivative_then_scale_matches_rule(self):
        # w = u^(m) evaluated at q*t: index k must carry (k+m)!/k! q^k u[k+m]
        u = Series((0.3, -1.2, 0.7, 2.0, -0.25, 0.5))
        q, m = 0.5, 2
        got = u.differentiate(m).scale_arg(q)
        for k, c in enumerate(got.coeffs):
            expected = math.perm(k + m, m) * q**k * u.coeffs[k + m]
            assert c == pytest.approx(expected, rel=1e-15)

    def test_scale_then_derivative_gains_chain_factor(self):
        u = Series((0.3, -1.2, 0.7, 2.0, -0.25, 0.5))
        q, m = 0.5, 2
        swapped = u.scale_arg(q).differentiate(m)
        straight = u.differentiate(m).scale_arg(q)
        for a, b in zip(swapped.coeffs, straight.coeffs):
            assert a == pytest.approx(q**m * b, rel=1e-13)


SPECIAL_COEFFS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.5)
SPECIAL_TIMES = (0.0, -0.0, 0.5, -1.0, -3.5, 1e308, math.inf, -math.inf, math.nan, 5e-324, -5e-324)


def full_horner(coeffs, t):
    """Horner's rule over every coefficient, the reference for
    ``Series.evaluate``, which starts at the highest nonzero one."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class TestEvaluate:
    def test_at_zero_returns_constant_term(self):
        assert Series((1.0, 1.0, 0.5, 1 / 6)).evaluate(0.0) == 1.0

    def test_direct_sum(self):
        assert Series((1.0, 1.0, 0.5, 1 / 6)).evaluate(1.0) == pytest.approx(8 / 3)

    def test_monomial(self):
        assert monomial(2, 4).evaluate(3.0) == 9.0

    def test_trimmed_horner_equals_the_full_loop_on_every_small_series(self):
        # every series of up to three special coefficients (all-zero ones and
        # tops of +0.0 and -0.0 among them) at every special time
        for length in (1, 2, 3):
            for coeffs in itertools.product(SPECIAL_COEFFS, repeat=length):
                for t in SPECIAL_TIMES:
                    got, expected = Series(coeffs).evaluate(t), full_horner(coeffs, t)
                    assert (coeffs, t, repr(got)) == (coeffs, t, repr(expected))

    @given(
        st.lists(st.sampled_from(SPECIAL_COEFFS) | st.floats(allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=8),
        st.lists(st.sampled_from((0.0, -0.0)), max_size=4),
        st.sampled_from(SPECIAL_TIMES) | st.floats(),
    )
    def test_trimmed_horner_equals_the_full_loop(self, head, zeros, t):
        coeffs = tuple(head + zeros)
        assert repr(Series(coeffs).evaluate(t)) == repr(full_horner(coeffs, t))


# independent oracles ---------------------------------------------------------

def mp_taylor(func, order):
    """High-precision Taylor coefficients of a scalar function at 0,
    computed by mpmath's finite-difference differentiation."""
    return [float(c) for c in mpmath.taylor(func, 0, order)]


def poly_mp(u: Series):
    cs = [mpmath.mpf(c) for c in u.coeffs]

    def f(s):
        acc = mpmath.mpf(0)
        for c in reversed(cs):
            acc = acc * s + c
        return acc

    return f


MP_FUNCS = {
    "exp": mpmath.exp,
    "ln": mpmath.log,
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "reciprocal": lambda x: 1 / x,
    "pow": lambda x: mpmath.power(x, mpmath.mpf(2) / 3),
}


class TestComposeElementary:
    def test_exp_of_t_is_exp_series(self):
        assert compose_elementary("exp", monomial(1, 5)) == exp_linear(1.0, 5)

    def test_two_thirds_power_of_exp_like_prefix(self):
        # true expansion of (1 + t + t^2/2)^(2/3); the 5/9 sometimes quoted
        # for this input arises from substituting the raw second derivative
        # (1) where the quadratic Taylor coefficient (1/2) belongs
        got = compose_elementary("pow", Series((1.0, 1.0, 0.5)), exponent=2 / 3)
        assert got.coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert got.coeffs[1] == pytest.approx(2 / 3, abs=1e-15)
        assert got.coeffs[2] == pytest.approx(2 / 9, abs=1e-15)

    def test_two_thirds_power_with_unit_coefficients(self):
        got = compose_elementary("pow", Series((1.0, 1.0, 1.0)), exponent=2 / 3)
        assert got.coeffs[2] == pytest.approx(5 / 9, abs=1e-15)

    def test_exp_shift_identity(self):
        # exp(c + v(t)) = exp(c) * exp(v(t))
        u = Series((0.8, 1.0, -0.5, 0.25))
        shifted = Series((0.0,) + u.coeffs[1:])
        direct = compose_elementary("exp", u)
        factored = compose_elementary("exp", shifted)
        for a, b in zip(direct.coeffs, factored.coeffs):
            assert a == pytest.approx(math.exp(u.coeffs[0]) * b, rel=1e-13)

    def test_integer_power_allows_zero_constant_term(self):
        got = compose_elementary("pow", monomial(1, 4), exponent=2.0)
        assert got == monomial(2, 4)

    def test_negative_integer_power(self):
        got = compose_elementary("pow", Series((1.0, 1.0, 0.0)), exponent=-1.0)
        assert got.coeffs == pytest.approx((1.0, -1.0, 1.0))

    def test_reciprocal_of_one_plus_t(self):
        got = compose_elementary("reciprocal", Series((1.0, 1.0, 0.0, 0.0)))
        assert got.coeffs == pytest.approx((1.0, -1.0, 1.0, -1.0))

    @pytest.mark.parametrize(
        "tag, u, fragment",
        [
            ("ln", Series((-1.0, 1.0)), "ln"),
            ("ln", Series((0.0, 1.0)), "ln"),
            ("pow", Series((0.0, 1.0)), "pow"),
            ("pow", Series((-2.0, 1.0)), "pow"),
            ("reciprocal", Series((0.0, 1.0)), "reciprocal"),
        ],
    )
    def test_domain_errors_name_the_function(self, tag, u, fragment):
        exponent = 0.5 if tag == "pow" else None
        with pytest.raises(SeriesDomainError) as excinfo:
            compose_elementary(tag, u, exponent=exponent)
        assert fragment in str(excinfo.value)

    def test_unknown_tag(self):
        with pytest.raises(SeriesError):
            compose_elementary("tan", monomial(1, 2))

    @pytest.mark.parametrize("tag", ["exp", "pow", "sin"])
    def test_first_four_components_match_derivative_formulas(self, tag):
        # the expansion of f(u0 + u1 t + ...) starts
        #   f(u0),
        #   u1 f'(u0),
        #   u2 f'(u0) + u1^2 f''(u0)/2,
        #   u3 f'(u0) + u1 u2 f''(u0) + u1^3 f'''(u0)/6
        # with the derivatives taken by finite differences
        u = Series((0.7, 1.3, -0.4, 0.25))
        f = MP_FUNCS[tag]
        d1, d2, d3 = (float(mpmath.diff(f, u.coeffs[0], k)) for k in (1, 2, 3))
        f0 = float(f(mpmath.mpf(u.coeffs[0])))
        u0, u1, u2, u3 = u.coeffs
        expected = [
            f0,
            u1 * d1,
            u2 * d1 + 0.5 * u1**2 * d2,
            u3 * d1 + u1 * u2 * d2 + u1**3 * d3 / 6,
        ]
        got = compose_elementary(
            tag, u, exponent=2 / 3 if tag == "pow" else None
        )
        for k in range(4):
            assert got.coeffs[k] == pytest.approx(expected[k], abs=1e-7)

    @pytest.mark.parametrize("tag", ["exp", "ln", "sin", "cos", "reciprocal", "pow"])
    def test_against_taylor_fit_of_sampled_composition(self, tag):
        u = Series((1.4, -0.8, 0.35, 0.2, -0.15, 0.05, 0.1))
        inner = poly_mp(u)
        f = MP_FUNCS[tag]
        expected = mp_taylor(lambda s: f(inner(s)), 6)
        got = compose_elementary(
            tag, u, exponent=2 / 3 if tag == "pow" else None
        )
        for k in range(7):
            assert got.coeffs[k] == pytest.approx(expected[k], abs=1e-6)


class TestComposePolynomial:
    def test_requires_zero_constant_term(self):
        with pytest.raises(SeriesError):
            power_table((1.0, 1.0), 2)

    def test_matches_direct_expansion(self):
        # P(s) = 1 + 2 s + 3 s^2 composed with s = t + t^2
        inner = (0.0, 1.0, 1.0, 0.0, 0.0)
        got = compose_powers(power_table(inner, 3), (1.0, 2.0, 3.0))
        assert got == pytest.approx([1.0, 2.0, 5.0, 6.0, 3.0])


# property suites --------------------------------------------------------------

small_floats = st.floats(min_value=-4, max_value=4, allow_nan=False)


def schoolbook(a, b):
    fa = [Fraction(x) for x in a]
    fb = [Fraction(x) for x in b]
    out = [Fraction(0)] * len(fa)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            if i + j < len(out):
                out[i + j] += x * y
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(small_floats, min_size=1, max_size=9), st.data())
def test_convolution_matches_schoolbook(a, data):
    b = data.draw(st.lists(small_floats, min_size=len(a), max_size=len(a)))
    got = product(Series(tuple(a)), Series(tuple(b)))
    expected = schoolbook(a, b)
    for g, e in zip(got.coeffs, expected):
        assert abs(g - float(e)) <= 1e-13 * max(1.0, abs(float(e)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9),
    st.data(),
)
def test_convolution_exact_on_integer_coefficients(a, data):
    b = data.draw(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=len(a), max_size=len(a))
    )
    got = product(Series(tuple(float(x) for x in a)), Series(tuple(float(x) for x in b)))
    assert list(got.coeffs) == [float(e) for e in schoolbook(a, b)]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(small_floats, min_size=1, max_size=4),
    st.lists(small_floats, min_size=1, max_size=4),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
)
def test_evaluate_is_multiplicative_within_degree_budget(a, b, t):
    order = len(a) + len(b) - 2
    pa = Series(tuple(a) + (0.0,) * (order + 1 - len(a)))
    pb = Series(tuple(b) + (0.0,) * (order + 1 - len(b)))
    lhs = product(pa, pb).evaluate(t)
    rhs = pa.evaluate(t) * pb.evaluate(t)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_floats, min_size=1, max_size=9),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_scale_arg_consistent_with_scaled_evaluation(u, q, t):
    s = Series(tuple(u))
    lhs = s.scale_arg(q).evaluate(t)
    rhs = s.evaluate(q * t)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_scale_arg_exact_on_dyadic_data():
    # dyadic coefficients, dyadic scale and point: both evaluations perform
    # exactly representable arithmetic, so the match is bitwise
    s = Series((1.0, -0.5, 0.25, 3.0, -2.0))
    assert s.scale_arg(0.5).evaluate(0.5) == s.evaluate(0.25)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_floats, min_size=2, max_size=9), st.floats(min_value=0.1, max_value=0.9))
def test_scaled_derivative_entries(u, q):
    s = Series(tuple(u))
    m = 1
    got = s.differentiate(m).scale_arg(q)
    for k, c in enumerate(got.coeffs):
        assert c == pytest.approx(
            math.perm(k + m, m) * q**k * u[k + m], rel=1e-12, abs=1e-12
        )


# support-aware sums against the full-range formulas ----------------------------
#
# The tape skips every term with a factor outside its support, where it is a
# signed zero.  The references below are the formulas as they stood before,
# summing over every j = 0..k (j = 1..k for the recurrences), and both sides
# are compared by repr, so a -0.0, an int 0 or a changed error text shows.

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
            1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308)
coefficient = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.integers(min_value=-3, max_value=3).map(float),
)


@st.composite
def planted(draw, rounds: int) -> tuple[float, ...]:
    """Coefficients that are signed zeros outside a drawn [lo, hi], which
    may be empty; zeros inside it count as data."""
    lo = draw(st.integers(min_value=0, max_value=min(2, rounds)) | st.integers(min_value=0, max_value=rounds))
    hi = draw(st.integers(min_value=lo - 1, max_value=rounds - 1))
    zero = st.sampled_from((0.0, -0.0))
    return tuple(draw(coefficient if lo <= k <= hi else zero) for k in range(rounds))


def full_product(a, b, k):
    return reduce(add, map(mul, a[: k + 1], b[k::-1]), 0.0)


def full_weighted_sum(weights, a, b, k):
    return reduce(add, map(mul, map(mul, weights, a[1 : k + 1]), b[k - 1 :: -1]), 0.0)


def full_step(tag, c, w, companion, k, rho):
    """Coefficient k >= 1 of tag(c) by the full-range formula; for sin and
    cos, ``companion`` holds cos(c) and sin(c)."""
    j = range(1, k + 1)
    if tag == "exp":
        return full_weighted_sum(j, c, w, k) / k
    if tag == "ln":
        return (c[k] - full_weighted_sum(range(1, k), w, c, k) / k) / c[0]
    if tag == "reciprocal":
        return -reduce(add, map(mul, c[1 : k + 1], w[k - 1 :: -1]), 0.0) / c[0]
    if tag == "pow":
        weights = [(rho + 1.0) * i - k for i in j]
        return full_weighted_sum(weights, c, w, k) / (k * c[0])
    if tag == "sin":
        return full_weighted_sum(j, c, companion, k) / k, -full_weighted_sum(j, c, w, k) / k
    return -full_weighted_sum(j, c, companion, k) / k, full_weighted_sum(j, c, w, k) / k


FIRST_TERMS = {
    "exp": lambda c, rho: exp_term(c, 0, 0, (), 0),
    "ln": lambda c, rho: ln_term(c, 0, 0, (), 0),
    "reciprocal": lambda c, rho: reciprocal_term(c, 0, 0, (), 0),
    "pow": lambda c, rho: pow_term(c, 0, 0, (), rho, 0),
    "sin": lambda c, rho: sincos_term(c, 0, 0, (), (), 0),
    "cos": lambda c, rho: sincos_term(c, 0, 0, (), (), 0)[::-1],
}


def checked(value, k):
    if not math.isfinite(value):
        raise non_finite_coefficient(value, k)
    return value


def outcome(compute) -> str:
    try:
        return repr(compute())
    except SeriesError as exc:
        return f"{type(exc).__name__}: {exc}"


def full_outcome(a, b, tag, rho):
    """tag(a * b), or tag(a) without b, by the full-range formulas, round
    by round as a tape fills them."""
    c = a if b is None else []
    w, companion = [], []
    for k in range(len(a)):
        if b is not None:
            c.append(checked(full_product(a, b, k), k))
        if k == 0:  # the constant term and its domain check did not change
            value = FIRST_TERMS[tag](c, rho)
        else:
            value = full_step(tag, c, w, companion, k, rho)
        if tag in ("sin", "cos"):
            value, other = value
            companion.append(other)
        w.append(checked(value, k))
    return w


def tape_outcome(a, b, tag, rho):
    tape = Tape(len(a))
    c = a if b is None else tape.product(a, b)
    w = tape.power(c, rho) if tag == "pow" else tape.elementary(tag, c)
    tape.run()
    return w


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_support_aware_product_equals_full_range_formula(rounds, data):
    a, b = data.draw(planted(rounds)), data.draw(planted(rounds))

    def full():
        return [checked(full_product(a, b, k), k) for k in range(rounds)]

    def taped():
        tape = Tape(rounds)
        out = tape.product(a, b)
        tape.run()
        return out

    assert outcome(taped) == outcome(full)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(("exp", "ln", "reciprocal", "pow", "sin", "cos")),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
    st.sampled_from((0.5, -0.5, 1.5, -2.25, 1 / 3, math.inf, -math.inf, math.nan)),
    st.data(),
)
def test_support_aware_recurrence_equals_full_range_formula(tag, rounds, chained, rho, data):
    # chained: the argument is a product on the same tape, whose support is
    # derived from its factors' rather than read off data
    a = data.draw(planted(rounds))
    b = data.draw(planted(rounds)) if chained else None
    expected = outcome(lambda: full_outcome(a, b, tag, rho))
    assert outcome(lambda: tape_outcome(a, b, tag, rho)) == expected


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("c0", [0.5, 1.0, 2.0])
def test_non_finite_exponent_skips_no_term(rho, c0):
    # its weights are not finite, so a zero factor makes a nan term, which a
    # skipped term would lose: base**inf of a constant fails at index 1
    base = (c0, 0.0, -0.0)
    expected = outcome(lambda: full_outcome(base, None, "pow", rho))
    assert outcome(lambda: tape_outcome(base, None, "pow", rho)) == expected
    assert "non-finite coefficient" in expected


def test_empty_sums_are_the_float_zero():
    # t^3 * t^2 is 0 below index 5, exp(t^4) below 4 apart from its constant
    # term: every such coefficient is the float 0.0, never sum()'s int 0
    tape = Tape(8)
    cube, square = (0.0,) * 3 + (1.0,) + (0.0,) * 4, (0.0, 0.0, 1.0) + (0.0,) * 5
    product_ = tape.product(cube, square)
    quartic = tape.elementary("exp", (0.0,) * 4 + (2.0,) + (0.0,) * 3)
    tape.run()
    assert repr(product_) == "[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]"
    assert repr(quartic[:4]) == "[1.0, 0.0, 0.0, 0.0]"
    assert repr(sincos_term(cube, 3, 3, [0.0, 0.0], [1.0, 1.0], 2)) == "(0.0, -0.0)"


# One- and two-term sums, which the kernels add without slicing.  Operands
# cycle through EXTREMES, so subnormal products underflow to signed zeros,
# +-1.797e308 products overflow to inf, a two-term sum of inf and -inf is
# nan, and a weight times 1.797e308 is inf, which a zero turns into nan;
# a few ordinary values make sums whose rounding depends on the order of
# the operations.

SHORT = EXTREMES + (0.1, -1 / 3, 2.5, 7.0)


def cycled(start: int, rounds: int) -> tuple[float, ...]:
    return tuple(SHORT[(start + i) % len(SHORT)] for i in range(rounds))


def with_support(values, lo: int, hi: int, rounds: int) -> tuple[float, ...]:
    """``values`` at lo..hi, signed zeros (alternating) elsewhere."""
    return tuple(values[k - lo] if lo <= k <= hi else (0.0, -0.0)[k % 2] for k in range(rounds))


@pytest.mark.parametrize("width", [1, 2])
def test_short_products_equal_full_range_formula(width):
    # a factor of width 1 gives one term at every k of the product's
    # support, one of width 2 two terms away from its ends
    rounds = 7
    for start in range(len(SHORT)):
        for second in range(len(SHORT)):
            values = (SHORT[start], SHORT[second])
            a = with_support(values, 2, 1 + width, rounds)
            b = with_support(cycled(start + second, rounds), 1, rounds - 1, rounds)

            def full():
                return [checked(full_product(a, b, k), k) for k in range(rounds)]

            def taped():
                tape = Tape(rounds)
                out = tape.product(a, b)
                tape.run()
                return out

            assert outcome(taped) == outcome(full)


NON_FINITE = (math.inf, -math.inf, math.nan)


def test_short_product_terms_are_sums_of_their_terms():
    # product_term on operands a tape never holds: inf times a zero is nan
    operands = SHORT + NON_FINITE
    for x0 in operands:
        for x1 in operands:
            for y0, y1 in ((x1, x0), (-x0, x1), (1.0, -0.0), (-0.0, 5e-324)):
                a, b = (x0, x1), (y0, y1)
                for k, (lo, hi) in ((0, (0, 0)), (1, (0, 1)), (2, (1, 1))):
                    expected = sum(a[j] * b[k - j] for j in range(lo, hi + 1))
                    assert repr(product_term(a, b, 0, 1, 0, 1, k)) == repr(expected)


def test_short_reciprocal_terms_equal_the_sliced_sum():
    # reciprocal_term on operands a tape never holds, against the sliced
    # form -(sum c[j] w[k-j]) / c[0]
    operands = SHORT + NON_FINITE
    for x1 in operands:
        for x2 in operands:
            for y in ((x2, x1), (-x1, x2), (1.0, -0.0), (-0.0, 5e-324)):
                for c0 in (1.0, -3.0, 5e-324, -1e300, math.inf, math.nan):
                    c, w = (c0, x1, x2), (7.0,) + y
                    # one term, two, one at hi = k, one at hi < k
                    for k, lo, hi in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (2, 1, 1)):
                        down = w[k - lo : k - hi - 1 : -1] if hi < k else w[k - lo :: -1]
                        sliced = -reduce(add, map(mul, c[lo : hi + 1], down), 0.0) / c[0]
                        assert repr(reciprocal_term(c, lo, hi, w, k)) == repr(sliced)


@pytest.mark.parametrize("tag", ["exp", "ln", "reciprocal", "pow", "sin", "cos"])
@pytest.mark.parametrize("width", [1, 2])
def test_short_recurrences_equal_full_range_formula(tag, width):
    # an argument with support [0, width] gives every recurrence sum width
    # terms at each k >= width (ln: at each k > width), like the history
    # leaves' time (a0, 1, 0, ...)
    rounds = 6
    for c0 in (0.5, 2.0, -1.5):
        for start in range(len(SHORT)):
            for second in range(len(SHORT) if width == 2 else 1):
                c = with_support((c0, SHORT[start], SHORT[second]), 0, width, rounds)
                for rho in (0.5, -2.25) if tag == "pow" else (None,):
                    expected = outcome(lambda: full_outcome(c, None, tag, rho))
                    assert outcome(lambda: tape_outcome(c, None, tag, rho)) == expected


def full_power_table(inner, count, outer):
    """compose_powers by full products of every power at every index."""
    rounds = len(inner)
    powers = [(1.0,) + (0.0,) * (rounds - 1)] + [[] for _ in range(1, count)]
    out = []
    for k in range(rounds):
        for i in range(1, count):
            powers[i].append(checked(full_product(powers[i - 1], inner, k), k))
        column = [p[k] for p in powers[: k + 1]]
        out.append(checked(reduce(add, map(mul, outer, column), 0.0), k))
    return Series(tuple(out))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_power_table_equals_full_products(rounds, data):
    inner = (0.0,) + data.draw(planted(rounds))[1:]
    count = data.draw(st.integers(min_value=1, max_value=rounds))
    outer = data.draw(st.lists(coefficient, min_size=count, max_size=count))
    expected = outcome(lambda: full_power_table(inner, count, outer))
    got = outcome(lambda: Series(tuple(compose_powers(power_table(inner, count), outer))))
    assert got == expected


# The summation rule: every coefficient sum adds its terms in increasing
# index with plain float additions.  The terms 1e16, 1.0, -1e16 add to 0.0
# that way and to 1.0 compensated (``math.fsum``, or ``sum()`` from CPython
# 3.12), so each kernel below gives the plain sum on every CPython.

PLAIN_TERMS = (1e16, 1.0, -1e16)


def test_product_of_three_terms_adds_plainly():
    assert (repr(reduce(add, PLAIN_TERMS, 0.0)), math.fsum(PLAIN_TERMS)) == ("0.0", 1.0)
    assert repr(product_term(PLAIN_TERMS, (1.0, 1.0, 1.0), 0, 2, 0, 2, 2)) == "0.0"


def test_weighted_recurrence_sum_adds_plainly():
    # exp's terms j * c[j] * w[3-j] for j = 1, 2, 3
    c, w = (0.0, 1e16, 0.5, -1e16 / 3), (1.0, 1.0, 1.0)
    assert tuple(j * c[j] * w[3 - j] for j in (1, 2, 3)) == PLAIN_TERMS
    assert repr(exp_term(c, 0, 3, w, 3)) == "0.0"


def test_reciprocal_sum_adds_plainly():
    # -(c[1] w[2] + c[2] w[1] + c[3] w[0]) / c[0], a negative zero
    assert repr(reciprocal_term((1.0,) + PLAIN_TERMS, 0, 3, [1.0, 1.0, 1.0], 3)) == "-0.0"


def test_power_composition_adds_plainly():
    # (t + t^2 + t^3)**i at index 3 is 1, 2, 1 for i = 1, 2, 3
    table = power_table((0.0, 1.0, 1.0, 1.0), 4)
    assert table[3] == (1, (1.0, 2.0, 1.0))
    assert repr(compose_powers(table, (0.0, 1e16, 0.5, -1e16))[3]) == "0.0"


def test_neutral_fold_adds_plainly():
    # u' = g(t) + c(t) u'(t/2) with c = t + t^2 - 3*2^54 t^3 has pivot 1, and
    # u[1..3] = 1, 1, 2^56.  At k = 3 the fold adds c[l] 2^(l-3) (4-l) u[4-l]
    # for l = 1, 2, 3, that is 3*2^54, 1.0 and -3*2^54, to g[3] = 0.0, and
    # u[4] is that sum over 4: 0.25 compensated
    problem = parse_problem(
        "order = 1\nvars = u\ndelay half = proportional(1/2)\n"
        "eq u' = 1 + t + 216172782113783808*t^2"
        " + (t + t^2 - 54043195528445952*t^3) * u'@half\n"
        "init u = [0]\nhorizon = 0.1\ntaylor_order = 4\n"
    )
    coeffs = solve(problem).series[0].coeffs
    assert coeffs[1:4] == (1.0, 1.0, 2.0**56)
    assert repr(coeffs[4]) == "0.0"
