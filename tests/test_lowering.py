"""Pins and an independent reference for the series lowering.

History substitution, the compatibility check and the residuals expand
expressions over truncated series.  The digests below are sha256 sums of
the 17-digit values those three produce: the known-series leaves that
``substitute_history`` builds, the ``check_compatibility`` entries and
``residual_coefficients``.  They were recorded while a tree walker over
whole ``Series`` values still did the expansion, before it moved onto
the per-index lowering the march runs on; the lowering performs the same
float operations in the same order, so a change to its arithmetic
changes a digest.

Since the march and the residual gate now share one lowering, the
lowering is also checked against ``mpmath.taylor`` at 50 digits, which
shares none of its arithmetic.
"""

import hashlib
import random

import mpmath
import pytest

from taydel.engine import residual_coefficients, solve_reduced
from taydel.expr import KnownSeries, Mul, eval_series, parse_expression
from taydel.problem import check_compatibility
from taydel.problemfile import load_problem, parse_problem
from taydel.reduce import delay_argument_series, substitute_history
from taydel.series import (
    Series, SeriesDomainError, SeriesError, compose_elementary, compose_powers, power_table,
)
from test_engine import random_system

CONSTANT_LAG = """\
order = 1
vars = u, v
delay one = constant(1)
delay half = proportional(1/2)
eq u' = exp(-u@one) * v + sin(v@one)^2 - u@half
eq v' = (2 + u@one)^(1/2) - v / (3 + v@one) + cos(t) * u
phi u = t + 1
phi v = exp(t/3) - t^2
init u = [1]
init v = [1]
horizon = 1
taylor_order = 10
"""

VARYING_LAG = """\
order = 2
vars = u
delay d = vary({lag})
eq u'' = u'@d * u + ln(3 + u@d) - (1 + u@d^2)^(-1) + t * u'
phi u = exp(t/2) + sin(t)
init u = [1, 1.5]
horizon = 1
taylor_order = 10
"""

PROBLEMS = {
    "example2": lambda fixtures: load_problem(fixtures / "example2.fde"),
    "example3_u1": lambda fixtures: load_problem(fixtures / "example3_u1.fde"),
    "constant_lag": lambda fixtures: parse_problem(CONSTANT_LAG),
    "exp_lag": lambda fixtures: parse_problem(VARYING_LAG.format(lag="exp(-t)/2")),
    "polynomial_lag": lambda fixtures: parse_problem(VARYING_LAG.format(lag="1/2 + t^2/4")),
}

DIGESTS = {
    ("constant_lag", 17): "62aa83be03465243bb85f7786dbb2da9ba6c97749ca7ff7da33563aa849a0ef6",
    ("constant_lag", 40): "fa3625f50f39787ce9c2af770aaee697e8cc9ff759dcf7bfd26a61c69f54017f",
    ("example2", 17): "fbfb96ce472a16e34e4fc4808646c5270b116be9dd213839246f05b619e19044",
    ("example2", 40): "b8777ffb41a15a79df480200d05ff9936d53da63393149b0a4b4193a8250f9ef",
    ("example3_u1", 17): "926102c49aa536e829427fc92389dffcc4430538709497b011e496988d140fe0",
    ("example3_u1", 40): "3ca36ed2abd3d87a6bbe621499644e9e081faf80bf8cfce0236dedb24ea9ccb3",
    ("exp_lag", 17): "3c50eb3ec9b6a72e46c465ecafdcb226e48d7bbdf0c6526c5a9e4f7213a97be9",
    ("exp_lag", 40): "4a534494db90a9d1c053a89bc0cebe3fa6feb83619fb9c5c0294f498549b19d4",
    ("polynomial_lag", 17): "9efb391a55c17b981043587ec97ce9a8e64ac7a59ecd198be49ba3943d16109b",
    ("polynomial_lag", 40): "f80a7b070b2e8c99022798c4da4f578cf25abc45ab6660add0d0c50f421f955b",
}
RANDOM_DIGESTS = {
    17: "3d1b38f52d9e62c73ca19be4920f69f842a511286a2ff8d5f619d82493b6aead",
    40: "0caba5d7acffc7628dd99db06c427322ec27ca325b4144e12943590857ba0f5b",
}


def known_leaves(node):
    if isinstance(node, KnownSeries):
        yield node
    for child in ("left", "right", "operand", "base", "arg"):
        if hasattr(node, child):
            yield from known_leaves(getattr(node, child))


def digits(values) -> str:
    return ",".join(f"{v:.17g}" for v in values)


def outcome_text(problem, order: int) -> str:
    reduced = substitute_history(problem, trunc_order=order)
    lines = [
        "leaf " + digits(leaf.series.coeffs)
        for equation in reduced.equations
        for leaf in known_leaves(equation)
    ]
    for entry in check_compatibility(problem).entries:
        lines.append(
            f"compat {entry.var} {entry.deriv} "
            + digits((entry.history_value, entry.init_value))
        )
    residuals = residual_coefficients(reduced, solve_reduced(reduced))
    lines.extend("residual " + digits(r.coeffs) for r in residuals)
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, order", sorted(DIGESTS))
def test_history_compatibility_and_residuals_match_recorded_digests(
    fixtures_dir, name, order
):
    problem = PROBLEMS[name](fixtures_dir)
    assert sha256(outcome_text(problem, order)) == DIGESTS[name, order]


@pytest.mark.parametrize("order", sorted(RANDOM_DIGESTS))
def test_random_system_residuals_match_recorded_digest(order):
    rng = random.Random(20261018)
    text = "".join(outcome_text(random_system(rng), order) for _ in range(20))
    assert sha256(text) == RANDOM_DIGESTS[order]


def test_leaves_alone_take_the_working_order():
    time = Series((0.5, 1.0, 0.0, 0.0))
    long = Series(tuple(range(1, 9)))
    assert eval_series(KnownSeries(long), time) == long.truncated(3)
    assert eval_series(parse_expression("2"), time) == Series((2.0, 0.0, 0.0, 0.0))
    assert eval_series(parse_expression("t"), time) == time
    with pytest.raises(SeriesError, match="cannot truncate order-1 series to order 3"):
        eval_series(KnownSeries(Series((1.0, 1.0))), time)


# mpmath reference -------------------------------------------------------------

ORDER = 12
LEAF = Series(tuple(0.5**k / (k + 1) for k in range(ORDER + 1)))
STATE = Series(tuple((-0.75) ** k for k in range(ORDER + 1)))  # what u resolves to


def polynomial(series):
    return lambda s: mpmath.polyval(list(reversed(series.coeffs)), s)


leaf, state = polynomial(LEAF), polynomial(STATE)


def case(text):
    return parse_expression(text, variables=("u",))


# (expression, its value at t = a0 + s as a function of t and s)
CASES = {
    "arithmetic": (case("(2 - t) * (t + 3) - -t + t"), lambda t, s: (2 - t) * (t + 3) + 2 * t),
    "quotient": (case("1 / (2 + t)"), lambda t, s: 1 / (2 + t)),
    "integer_power": (case("(1 + t)^3 * t^2"), lambda t, s: (1 + t) ** 3 * t**2),
    "negative_power": (case("(2 - t)^(-2)"), lambda t, s: (2 - t) ** -2),
    "fractional_power": (case("(3 + t)^(1/3)"), lambda t, s: mpmath.cbrt(3 + t)),
    "exp": (case("exp(t/2)"), lambda t, s: mpmath.exp(t / 2)),
    "ln": (case("ln(2 + t)"), lambda t, s: mpmath.log(2 + t)),
    "sin": (case("sin(1 + t)"), lambda t, s: mpmath.sin(1 + t)),
    "cos": (case("cos(t*t) / (1 + t^2)"), lambda t, s: mpmath.cos(t * t) / (1 + t**2)),
    "state": (
        case("u * exp(-t) + u^2"),
        lambda t, s: state(s) * mpmath.exp(-t) + state(s) ** 2,
    ),
    "known_series": (
        Mul(KnownSeries(LEAF), case("sin(t)")),
        lambda t, s: leaf(s) * mpmath.sin(t),
    ),
}


@pytest.mark.parametrize("a0", [0.0, 0.25])
@pytest.mark.parametrize("name", sorted(CASES))
def test_lowering_matches_mpmath_taylor(name, a0):
    """Coefficients in s of the expression at t = a0 + s, the substitution
    history expansion makes; a known-series leaf and the state reference
    are fixed series in s."""
    node, reference = CASES[name]
    time = Series((a0, 1.0) + (0.0,) * (ORDER - 1))
    got = eval_series(node, time, lambda ref: STATE).coeffs
    with mpmath.workdps(50):
        exact = mpmath.taylor(lambda s: reference(a0 + s, s), 0, ORDER)
        scale = max(abs(c) for c in exact)
        for k, (g, e) in enumerate(zip(got, exact)):
            assert abs(g - e) <= 1e-14 * scale, (k, g, e)


# series compositions ------------------------------------------------------------
#
# Digests of the 17-digit output of ``compose_elementary`` and of polynomial
# composition (now ``compose_powers``), recorded while each still ran
# its own loops over whole series, before both moved onto the coefficient
# tape.

COMPOSE_CASES = (
    [(tag, None) for tag in ("exp", "ln", "sin", "cos", "reciprocal")]
    + [("pow", float(m)) for m in (0, 1, 2, 3, 4, 5, -1, -2, -3)]
    + [("pow", 1 / 3)]
)
COMPOSE_DIGESTS = {
    3: "49ee5235f0d221865c395769d8d3263d0060a0ad430bc9039eb62a72f35817a7",
    40: "cd2edce7a93992f262a93c42790a104d20041e2af25d2fdb2238c5ad9597e258",
}
POLYNOMIAL_DIGESTS = {
    "example2": "ead6ee14e97e1fbadece61bbf66437da1f250af32164cda0f0bf8f529916ac96",
    "exp_lag": "562e8895ddf9c3888085cbf3ef61fd0b4e400a32699f9d84e65970247747e865",
    "polynomial_lag": "e6da7f9338c916f4cf7fff9a6534d0d25db24ebe20c7674ddca9da245c849ce1",
}


def base_series(order):
    return Series((0.75,) + tuple((-0.6) ** k / (k + 1) for k in range(1, order + 1)))


@pytest.mark.parametrize("order", sorted(COMPOSE_DIGESTS))
def test_compose_elementary_matches_recorded_digest(order):
    u = base_series(order)
    text = "".join(
        f"{tag} {exponent} {digits(compose_elementary(tag, u, exponent).coeffs)}\n"
        for tag, exponent in COMPOSE_CASES
    )
    assert sha256(text) == COMPOSE_DIGESTS[order]


@pytest.mark.parametrize("name", sorted(POLYNOMIAL_DIGESTS))
def test_compose_polynomial_on_history_leaves_matches_recorded_digest(fixtures_dir, name):
    """The composition step of every history leaf at N = 40, including the
    constant-lag leaves that ``history_leaf`` shortcuts."""
    problem = PROBLEMS[name](fixtures_dir)
    order = 40 + 2 * problem.order + 2
    lines = []
    for spec in problem.delays:
        if spec.proportional:
            continue
        argument = delay_argument_series(spec, order)
        a0 = argument.coeffs[0]
        inner = (0.0,) + argument.coeffs[1:]
        for phi in problem.phi:
            for deriv in range(problem.order + 1):
                about = Series((a0, 1.0) + (0.0,) * (order + deriv - 1))
                outer = eval_series(phi, about).differentiate(deriv)
                powers = power_table(inner, min(len(outer.coeffs), len(inner)))
                lines.append(digits(compose_powers(powers, outer.coeffs)))
    assert sha256("\n".join(lines)) == POLYNOMIAL_DIGESTS[name]


def _pow(base, exponent):
    return lambda: compose_elementary("pow", Series(base), exponent)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: compose_elementary("ln", Series((0.0, 1.0))), SeriesDomainError,
         "ln requires a positive constant term, got 0.0"),
        (lambda: compose_elementary("ln", Series((-2.0, 1.0))), SeriesDomainError,
         "ln requires a positive constant term, got -2.0"),
        (lambda: compose_elementary("reciprocal", Series((0.0, 1.0))), SeriesDomainError,
         "reciprocal requires a nonzero constant term, got 0"),
        (lambda: compose_elementary("exp", Series((1000.0, 1.0))), SeriesDomainError,
         "exp overflows at constant term 1000.0"),
        (_pow((-1.0, 1.0), 0.5), SeriesDomainError,
         "pow(0.5) requires a positive constant term, got -1.0"),
        (_pow((1e300, 1.0), 1.5), SeriesDomainError,
         "pow(1.5) overflows at constant term 1e+300"),
        (_pow((0.0, 1.0), -2), SeriesDomainError,
         "pow(-2) requires a nonzero constant term, got 0"),
        (_pow((1e-200, 1.0), -2), SeriesDomainError,
         "reciprocal requires a nonzero constant term, got 0"),
        (_pow((1e200, 1.0, 0.0), 2), SeriesError, "non-finite coefficient inf at index 0"),
        (_pow((1.0, 1e200, 0.0), 3), SeriesError, "non-finite coefficient inf at index 2"),
        (_pow((1e200, 1.0, 0.0), -2), SeriesError, "non-finite coefficient inf at index 0"),
        (lambda: compose_elementary("exp", Series((0.0, 1e200, 1e300))), SeriesError,
         "non-finite coefficient inf at index 2"),
        (lambda: compose_powers(power_table((0.0, 1e300, 0.0), 2), (1e300, 1e300)), SeriesError,
         "non-finite coefficient inf at index 1"),
        (lambda: compose_powers(power_table((0.5, 1.0), 2), (1.0, 1.0)), SeriesError,
         "polynomial composition requires a zero constant term in the inner series, got 0.5"),
        (lambda: compose_elementary("tan", Series((0.0, 1.0))), SeriesError,
         "unknown elementary function tag 'tan'"),
        (lambda: compose_elementary("pow", Series((1.0, 1.0))), SeriesError,
         "pow requires an exponent"),
        (lambda: compose_elementary("exp", Series((1.0, 1.0)), 2), SeriesError,
         "exp takes no exponent"),
    ],
)
def test_composition_errors_keep_their_text(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


# history leaves that share one time-varying delay ---------------------------------
#
# Digests and error texts recorded while every leaf still composed its own
# powers of the inner series, before the leaves on one delay shared a
# power table.

SHARED_LAG = """\
order = 2
vars = u1, u2
delay one = constant(1)
delay lag = vary({lag})
delay half = proportional(1/2)
eq u1'' = 2*u1' + u2@one*u1@half + -1*u1@lag*u2'@lag
eq u2'' = -u2 + u1''@lag*u2'@half + 2*u2''@lag*u1@one + u1@half*u2@half
phi u1 = 2*exp(-t) + -1*sin(t)
phi u2 = cos(t) + -2*t^2
init u1 = [1, -3]
init u2 = [1, 0]
horizon = 1
taylor_order = 10
"""
SHARED_LAGS = ("exp(-t)/2", "1/2 + t^2/4", "1 + t/2")
SHARED_LAG_DIGESTS = {
    17: "63195e4b525ef21a9ea568d12085fcb5c5ae08e580919fb7fcf4a6cbe579037f",
    40: "636d1798847f71b9d76e33d716f0da023da05e57ba36c42e130a48469dbc4b1f",
    80: "bc8e6162075dc412f0c1eb6bcbb75a947559fdbfab57241b00e92b5223fafe00",
}


@pytest.mark.parametrize("order", sorted(SHARED_LAG_DIGESTS))
def test_leaves_on_one_varying_delay_match_recorded_digest(order):
    """Four leaves per system reference the time-varying delay ``lag``."""
    lines = []
    for lag in SHARED_LAGS:
        reduced = substitute_history(parse_problem(SHARED_LAG.format(lag=lag)), trunc_order=order)
        lines += [
            digits(leaf.series.coeffs)
            for equation in reduced.equations
            for leaf in known_leaves(equation)
        ]
    assert len(lines) == 18
    assert sha256("\n".join(lines)) == SHARED_LAG_DIGESTS[order]


OVERFLOWING_LEAF = """\
order = 1
vars = u
delay lag = vary({lag})
eq u' = u@lag
phi u = {phi}
init u = [{init}]
horizon = 1
taylor_order = 10
"""


@pytest.mark.parametrize(
    "lag, phi, init, message",
    [
        # the square of the inner series t - 1e160*t^2 overflows at index 4
        ("1/2 + 1e160*t^2", "exp(t)", "1", "non-finite coefficient inf at index 4"),
        # the leaf overflows at index 1, before the 16th power of the inner
        # series (1 - 1e20)*t does at index 16
        ("1/2 + 1e20*t", "1e300*exp(t)", "1e300", "non-finite coefficient -inf at index 1"),
    ],
)
def test_overflowing_history_leaf_keeps_its_first_index(lag, phi, init, message):
    problem = parse_problem(OVERFLOWING_LEAF.format(lag=lag, phi=phi, init=init))
    with pytest.raises(SeriesError) as excinfo:
        substitute_history(problem, trunc_order=20)
    assert str(excinfo.value) == message
