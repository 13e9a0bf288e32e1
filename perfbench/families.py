"""Seeded generators for the benchmark's problem families.

Every family is defined by its structure, not by outcomes.  Each class of
a family has one shape: the number of equations and terms, which variable,
derivative order and delay fill each slot, the elementary-function kinds,
the neutral equations and the history basis.  Shapes come from a fixed
random stream; the seed draws the small integer constants, neutral
factors, history weights and initial data.  Different seeds therefore
measure the same amount of work, up to the data dependence of float
arithmetic (subnormal values are about twice as slow).  No draw is ever
rejected, so a system that overflows, hits a zero pivot or beats its error
bound is run and counted like any other.  The solver only ever sees the
``.fde`` text returned here.

The structural rules keep every family on inputs where no operation should
fail: nonlinear terms (products, exp/sin/cos) only take proportionally
delayed states, whose ``q**k`` scaling keeps the solution entire; undelayed
states enter linearly; quotients and real powers only divide by or raise
``2 + t`` or ``1 + t``; neutral terms ``b*u^(n)@q`` use ``b`` in
{-2, -1, 1/2}, so the pivot ``1 - b*q**k`` stays at least 1/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RATIOS = {"half": "1/2", "third": "1/3", "quarter": "1/4"}
SIGNED = (-2, -1, 1, 2)
NEUTRAL_FACTORS = ("-2", "-1", "1/2")

# history basis functions with their derivatives at t = 0 (k = 0, 1, 2, ...)
# as exact integers, so initial data derived from phi is exact
HISTORY_BASIS = {
    "exp(t)": lambda k: 1,
    "exp(-t)": lambda k: (-1) ** k,
    "exp(2*t)": lambda k: 2**k,
    "sin(t)": lambda k: (0, 1, 0, -1)[k % 4],
    "cos(t)": lambda k: (1, 0, -1, 0)[k % 4],
    "t^2": lambda k: 2 if k == 2 else 0,
    "t": lambda k: 1 if k == 1 else 0,
    "1": lambda k: 1 if k == 0 else 0,
}
# time-varying lags, each positive on [0, 1]: the first two activate inside
# the horizon, the last never does
VARYING_LAGS = ("exp(-t)/2", "1/2 + t^2/4", "1 + t/2")


@dataclass(frozen=True)
class GeneratedProblem:
    name: str
    text: str


def _ref(var: str, deriv: int, delay: str | None = None) -> str:
    return var + "'" * deriv + (f"@{delay}" if delay else "")


ELEMENTARY_KINDS = ("exp", "sin", "cos", "quotient", "power", "forced")


def _elementary(values: random.Random, kind: str, arg: str) -> str:
    """One elementary-function slot applied to a delayed state reference."""
    if kind in ("exp", "sin", "cos"):
        return f"{kind}({arg})"
    if kind == "quotient":
        return f"{arg}/(2 + t)"
    if kind == "power":
        return f"(1 + t)^(1/2)*{arg}"
    return f"exp({values.choice(SIGNED)}*t)*{arg}"


def _proportional_equation(
    shape: random.Random,
    values: random.Random,
    names: list[str],
    order: int,
    self_name: str,
    kind: str,
    neutral: bool,
) -> str:
    """Linear undelayed term + quadratic delayed product + one elementary
    function of a delayed state, plus a neutral term when asked."""

    def delayed() -> str:
        return _ref(shape.choice(names), shape.randrange(order), shape.choice(list(RATIOS)))

    terms = [
        f"{values.choice(SIGNED)}*{_ref(shape.choice(names), shape.randrange(order))}",
        f"{values.choice(SIGNED)}*{delayed()}*{delayed()}",
        _elementary(values, kind, delayed()),
    ]
    if neutral:
        top = _ref(self_name, order, shape.choice(list(RATIOS)))
        terms.append(f"{values.choice(NEUTRAL_FACTORS)}*{top}")
    return " + ".join(terms)


def proportional_system(
    shape: random.Random,
    values: random.Random,
    num_vars: int,
    order: int,
    kinds: tuple[str, ...],
    neutral: tuple[bool, ...],
    horizon: str,
    name: str,
) -> GeneratedProblem:
    """Proportional-delay-only system; equation j gets elementary function
    ``kinds[j]`` and, when ``neutral[j]``, a neutral term."""
    names = [f"u{j + 1}" for j in range(num_vars)]
    lines = [
        f"# generated proportional-delay system, p={num_vars}, n={order}",
        f"order = {order}",
        "vars = " + ", ".join(names),
    ]
    lines += [f"delay {d} = proportional({q})" for d, q in RATIOS.items()]
    for j, var in enumerate(names):
        rhs = _proportional_equation(
            shape, values, names, order, var, kinds[j], neutral[j]
        )
        lines.append(f"eq {var}{chr(39) * order} = {rhs}")
    for var in names:
        row = ", ".join(str(values.randint(-1, 1)) for _ in range(order))
        lines.append(f"init {var} = [{row}]")
    lines += [f"horizon = {horizon}", "taylor_order = 10"]
    return GeneratedProblem(name, "\n".join(lines) + "\n")


def _proportional_family(
    prefix: str, seed: int, classes, neutral_count: int, horizon: str
) -> list[GeneratedProblem]:
    """One system per (p, n) class.  The shape (which variable, derivative
    and delay fill each slot, which ``neutral_count`` equations are
    neutral, and the elementary kinds, which rotate over all equations) is
    the same for every seed; the seed draws the constants and initial
    data."""
    shape = random.Random(f"{prefix}-shape")
    values = random.Random(f"{prefix}-{seed}")
    slots = [(c, j) for c, (p, _) in enumerate(classes) for j in range(p)]
    neutral_slots = set(shape.sample(slots, neutral_count))
    systems = []
    for c, (p, n) in enumerate(classes):
        first = slots.index((c, 0))
        kinds = tuple(
            ELEMENTARY_KINDS[(first + j) % len(ELEMENTARY_KINDS)] for j in range(p)
        )
        neutral = tuple((c, j) in neutral_slots for j in range(p))
        systems.append(
            proportional_system(
                shape, values, p, n, kinds, neutral, horizon, f"{prefix}_p{p}n{n}"
            )
        )
    return systems


def march_family(seed: int) -> list[GeneratedProblem]:
    """One system for each (p, n) in {1,2,3} x {1,2}; three of the twelve
    equations are neutral."""
    classes = [(p, n) for n in (1, 2) for p in (1, 2, 3)]
    return _proportional_family("march", seed, classes, 3, "1")


def validate_family(seed: int) -> list[GeneratedProblem]:
    """Non-neutral proportional systems on [0, 1/2], where the reference
    integrator applies and a degree-20 truncation is accurate."""
    classes = [(1, 1), (2, 1), (2, 2)]
    return _proportional_family("validate", seed, classes, 0, "1/2")


def history_system(
    shape: random.Random, values: random.Random, num_vars: int, order: int, name: str
) -> GeneratedProblem:
    """System with two constant delays, one time-varying delay and one
    proportional delay.  Each equation references three history leaves, one
    per non-proportional delay, with the derivative order ranging up to n
    (top-order history references are substituted, so they are not
    neutral).  Each history is a weighted sum of two basis functions, and
    the initial data are its derivatives at 0."""
    names = [f"u{j + 1}" for j in range(num_vars)]
    lines = [
        f"# generated history-heavy system, p={num_vars}, n={order}",
        f"order = {order}",
        "vars = " + ", ".join(names),
        "delay one = constant(1)",
        f"delay far = constant({shape.choice(('3/2', '2', '3'))})",
        f"delay lag = vary({shape.choice(VARYING_LAGS)})",
        "delay half = proportional(1/2)",
    ]

    def state(delay=None) -> str:
        return _ref(shape.choice(names), shape.randrange(order), delay)

    for var in names:
        leaves = [
            _ref(shape.choice(names), shape.randint(0, order), delay)
            for delay in ("one", "far", "lag")
        ]
        terms = [
            f"{values.choice(SIGNED)}*{state()}",
            f"{leaves[0]}*{state('half')}",
            f"{values.choice(SIGNED)}*{leaves[1]}*{leaves[2]}",
            f"{values.choice(SIGNED)}*{state('half')}*{state('half')}",
        ]
        lines.append(f"eq {var}{chr(39) * order} = " + " + ".join(terms))
    init = []
    for var in names:
        basis = shape.sample(sorted(HISTORY_BASIS), 2)
        weights = [values.choice(SIGNED) for _ in basis]
        lines.append(f"phi {var} = " + " + ".join(f"{w}*{b}" for w, b in zip(weights, basis)))
        derivs = [
            sum(w * HISTORY_BASIS[b](k) for w, b in zip(weights, basis))
            for k in range(order)
        ]
        init.append(f"init {var} = [{', '.join(str(v) for v in derivs)}]")
    lines += init + ["horizon = 1", "taylor_order = 10"]
    return GeneratedProblem(name, "\n".join(lines) + "\n")


def history_family(seed: int) -> list[GeneratedProblem]:
    """One history-heavy system for each (p, n) in {(1, 2), (2, 1), (2, 2)};
    as for the proportional families, the seed draws only the constants,
    history weights and hence initial data."""
    shape = random.Random("history-shape")
    values = random.Random(f"history-{seed}")
    return [
        history_system(shape, values, p, n, f"history_p{p}n{n}")
        for p, n in ((1, 2), (2, 1), (2, 2))
    ]


MALFORMED_BASE = """\
order = 1
vars = u
delay half = proportional(1/2)
eq u' = u@half - u
init u = [1]
horizon = 1
taylor_order = 10
"""


def rejected_inputs() -> list[tuple[GeneratedProblem, int]]:
    """Bad problem files the CLI refuses as its contract says: exit 1 for
    parse errors, 2 for validation errors, one line on stderr."""
    cases = [
        ("unknown_delay", MALFORMED_BASE.replace("u@half", "u@quarter"), 1),
        ("missing_init", MALFORMED_BASE.replace("init u = [1]\n", ""), 2),
    ]
    return [(GeneratedProblem(name, text), code) for name, text, code in cases]


def defect_inputs() -> list[tuple[GeneratedProblem, int]]:
    """Bad problem files the CLI mishandles (ROADMAP open item 4(b)), with
    the exit code its contract gives them: each crashes with a traceback,
    exits 0 or exits with the wrong code."""
    cases = [
        ("missing_key", MALFORMED_BASE + "= 3\n", 1),
        ("fractional_order", MALFORMED_BASE.replace("order = 1\n", "order = 1.5\n", 1), 1),
        ("infinite_order", MALFORMED_BASE.replace("order = 1\n", "order = inf\n", 1), 1),
        ("infinite_init", MALFORMED_BASE.replace("init u = [1]", "init u = [inf]"), 2),
    ]
    return [(GeneratedProblem(name, text), code) for name, text, code in cases]
