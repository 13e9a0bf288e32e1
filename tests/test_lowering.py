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
from taydel.reduce import substitute_history
from taydel.series import Series, SeriesError
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
