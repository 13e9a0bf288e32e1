"""Expression trees and the text grammar for right-hand sides, initial
functions and time-dependent delay laws.

The grammar (``^`` binds tighter than unary minus, which binds tighter
than ``*``/``/``, which bind tighter than ``+``/``-``; all left
associative)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := ('-')? power
    power    := atom ('^' number-or-parenthesized-rational)?
    atom     := number | 't' | funcall | stateref | '(' expr ')'
    funcall  := ('exp'|'ln'|'sin'|'cos') '(' expr ')'
    stateref := ident prime* ('@' ident)?

State references name a variable, an optional chain of primes for the
derivative order, and an optional ``@id`` naming a declared delay, e.g.
``u2``, ``u1''`` or ``u1'''@a1``.  Parsed trees are immutable; constant
subexpressions of the arithmetic operators are folded at parse time.

A tree is evaluated by lowering it once: into one generated straight-line
float function per list of trees (``compile_numeric``), or onto the
coefficient tape of ``series`` (``SeriesTape``), which the march extends by
one index of every node per round and every other caller runs node by
node.
"""

from __future__ import annotations

import math
import operator
import re
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence, Union

from .series import Record, Series, SeriesError, Tape, monomial


class ParseError(ValueError):
    """Syntax or resolution error, carrying the source location."""

    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class StructureError(ValueError):
    """A parsed system violates a structural rule (bad derivative order,
    undeclared delay, variable index out of range)."""


class EvaluationError(ValueError):
    """Numeric evaluation hit a domain error (division by zero, log of a
    nonpositive value, fractional power of a negative base) or an overflow.
    A failed guard of a ``compile_numeric`` function says where: ``index``
    is the position of the failed tree among those lowered together, ``t``
    the time it was evaluated at, ``node`` the failed operation and
    ``reason`` what went wrong, ``None`` for a power that overflowed."""

    index, t, node, reason = 0, 0.0, None, None

    def describe(self, variables: Sequence[str] | None = None) -> str:
        """The failure without its time, naming the variables as given."""
        where = pretty(self.node, variables)
        return f"{where} overflows" if self.reason is None else f"{self.reason} in {where}"


# AST ------------------------------------------------------------------------

class Const(Record):
    value: float


class Time(Record):
    pass


TIME = Time()


class StateRef(Record):
    """Occurrence of variable ``var`` (1-based), derivative ``deriv``,
    optionally evaluated at the delayed argument named by ``delay``."""

    var: int
    deriv: int
    delay: str | None = None


class Add(Record):
    left: "Expr"
    right: "Expr"


class Sub(Record):
    left: "Expr"
    right: "Expr"


class Mul(Record):
    left: "Expr"
    right: "Expr"


class Div(Record):
    left: "Expr"
    right: "Expr"


class Neg(Record):
    operand: "Expr"


class Pow(Record):
    base: "Expr"
    exponent: float


class Func(Record):
    fn: str
    arg: "Expr"


class KnownSeries(Record):
    """A leaf holding an already-known series; produced by history
    substitution, never by the parser."""

    series: Series


Expr = Union[Const, Time, StateRef, Add, Sub, Mul, Div, Neg, Pow, Func, KnownSeries]

FUNCTIONS = ("exp", "ln", "sin", "cos")
RESERVED = FUNCTIONS + ("t",)


# each binary operator: the node it builds and the float operation that
# folds it when both operands are constants
_BINARY = {
    "+": (Add, operator.add),
    "-": (Sub, operator.sub),
    "*": (Mul, operator.mul),
    "/": (Div, operator.truediv),
}


def _fold_binary(op: str, left: Expr, right: Expr) -> Expr:
    cls, fold = _BINARY[op]
    if isinstance(left, Const) and isinstance(right, Const):
        try:
            value = fold(left.value, right.value)
        except ZeroDivisionError:
            return cls(left, right)
        if math.isfinite(value):
            return Const(value)
    return cls(left, right)


def _fold_neg(operand: Expr) -> Expr:
    if isinstance(operand, Const):
        return Const(-operand.value)
    return Neg(operand)


def _fold_pow(base: Expr, exponent: float) -> Expr:
    if isinstance(base, Const):
        try:
            value = base.value**exponent
        except (ValueError, OverflowError, ZeroDivisionError):
            return Pow(base, exponent)
        if isinstance(value, float) and math.isfinite(value):
            return Const(value)
    return Pow(base, exponent)


# tokenizer / parser ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^()'@])
    | (?P<ws>[ \t]+)
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)
# The parser spends up to six frames on each open parenthesis; this bound
# keeps it inside the interpreter's recursion limit.
MAX_PARENTHESES = 100

_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of one line as (kind, text, column), ending with an ``eof``
    token; an operator, prime or ``@`` is its own kind."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, token = m.lastgroup, m.group()
        if kind == "ws":
            continue
        if kind == "other":
            raise ParseError(f"unexpected character {token!r}", 1, m.start() + 1)
        tokens.append((token if kind == "op" else kind, token, m.start() + 1))
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(
        self,
        tokens: list[_Token],
        variables: Sequence[str],
        delays: Sequence[str],
        max_deriv: int,
    ):
        self.tokens = tokens
        self.pos = 0
        self.variables = list(variables)
        self.delays = set(delays)
        self.max_deriv = max_deriv

    def peek(self) -> str:
        """The kind of the token at the cursor."""
        return self.tokens[self.pos][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        return ParseError(message, 1, (tok or self.tokens[self.pos])[2])

    def found(self) -> str:
        return repr(self.tokens[self.pos][1] or "end of input")

    def accept(self, kind: str) -> bool:
        """Step past the token at the cursor if it is of ``kind``."""
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str) -> None:
        if not self.accept(kind):
            raise self.error(f"expected {kind!r}, found {self.found()}")

    def parse(self) -> Expr:
        node = self.expr()
        if self.peek() != "eof":
            raise self.error(f"unexpected trailing input {self.found()}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            node = _fold_binary(self.advance()[0], node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek() in ("*", "/"):
            node = _fold_binary(self.advance()[0], node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.accept("-"):
            return _fold_neg(self.power())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.accept("^"):
            return _fold_pow(base, self.exponent())
        return base

    def number(self) -> float:
        """The number token at the cursor; a literal that overflows a double
        is refused here, the one place a token becomes a float."""
        tok = self.advance()
        value = float(tok[1])
        if math.isinf(value):
            raise self.error(f"number {tok[1]!r} overflows a double", tok)
        return value

    def exponent(self) -> float:
        if self.peek() == "number":
            return self.number()
        if self.accept("("):
            num = self.signed_number()
            if self.accept("/"):
                den = self.signed_number()
                if den == 0:
                    raise self.error("zero denominator in exponent")
                num = num / den
                if math.isinf(num):
                    raise self.error("exponent overflows a double")
            self.expect(")")
            return num
        raise self.error("expected a numeric exponent")

    def signed_number(self) -> float:
        sign = -1.0 if self.accept("-") else 1.0
        if self.peek() != "number":
            raise self.error("expected a number")
        return sign * self.number()

    def atom(self) -> Expr:
        kind = self.peek()
        if kind == "number":
            return Const(self.number())
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            return self.identifier()
        raise self.error(
            f"expected a number, 't', a function call or a state reference, "
            f"found {self.found()}"
        )

    def identifier(self) -> Expr:
        tok = self.advance()
        name = tok[1]
        if name == "t":
            return TIME
        if name in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Func(name, arg)
        if name not in self.variables:
            raise self.error(f"unknown identifier {name!r}", tok)
        var = self.variables.index(name) + 1
        deriv = 0
        while self.accept("'"):
            deriv += 1
        if deriv > self.max_deriv:
            raise self.error(
                f"derivative order {deriv} of {name!r} exceeds the system "
                f"order {self.max_deriv}",
                tok,
            )
        delay = None
        if self.accept("@"):
            if self.peek() != "ident":
                raise self.error("expected a delay name after '@'")
            dtok = self.advance()
            if dtok[1] not in self.delays:
                raise self.error(f"unknown delay {dtok[1]!r}", dtok)
            delay = dtok[1]
        return StateRef(var, deriv, delay)


def parse_expression(
    text: str,
    *,
    variables: Sequence[str] = (),
    delays: Sequence[str] = (),
    max_deriv: int = 0,
) -> Expr:
    """Parse a one-line expression; a line break is an unexpected character.
    ``variables`` fixes the admissible state names (empty for time-only
    expressions such as initial functions and delay laws); ``max_deriv``
    bounds the prime chain length.  Parentheses nesting deeper than
    ``MAX_PARENTHESES`` are refused before parsing; that is checked only on
    text that could break it."""
    if text.count("(") > MAX_PARENTHESES:
        nesting = 0
        for column, char in enumerate(text, 1):
            nesting += (char == "(") - (char == ")")
            if nesting > MAX_PARENTHESES:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_PARENTHESES} levels", 1, column
                )
    return _Parser(_tokenize(text), variables, delays, max_deriv).parse()


# pretty printer ---------------------------------------------------------------

def _precedence(node: Expr) -> int:
    if isinstance(node, (Add, Sub)):
        return 1
    if isinstance(node, (Mul, Div)):
        return 2
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Const) and node.value < 0:
        return 3  # renders with a leading minus
    if isinstance(node, Pow):
        return 4
    return 5


def _fmt_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def pretty(node: Expr, variables: Sequence[str] | None = None) -> str:
    """Render an expression in the input grammar.  Without ``variables``,
    state names default to ``u<index>``."""

    def name(ref: StateRef) -> str:
        base = variables[ref.var - 1] if variables else f"u{ref.var}"
        out = base + "'" * ref.deriv
        if ref.delay is not None:
            out += f"@{ref.delay}"
        return out

    def wrap(child: Expr, minimum: int) -> str:
        text = render(child)
        if _precedence(child) < minimum:
            return f"({text})"
        return text

    def render(n: Expr) -> str:
        if isinstance(n, Const):
            if n.value < 0:
                return f"-{_fmt_number(-n.value)}"
            return _fmt_number(n.value)
        if isinstance(n, Time):
            return "t"
        if isinstance(n, StateRef):
            return name(n)
        if isinstance(n, Add):
            return f"{wrap(n.left, 1)} + {wrap(n.right, 2)}"
        if isinstance(n, Sub):
            return f"{wrap(n.left, 1)} - {wrap(n.right, 2)}"
        if isinstance(n, Mul):
            return f"{wrap(n.left, 2)} * {wrap(n.right, 3)}"
        if isinstance(n, Div):
            return f"{wrap(n.left, 2)} / {wrap(n.right, 5)}"
        if isinstance(n, Neg):
            return f"-{wrap(n.operand, 4)}"
        if isinstance(n, Pow):
            exponent = n.exponent
            if exponent == int(exponent):
                suffix = f"^{int(exponent)}"
            else:
                suffix = f"^({exponent!r})"
            return f"{wrap(n.base, 5)}{suffix}"
        if isinstance(n, Func):
            return f"{n.fn}({render(n.arg)})"
        if isinstance(n, KnownSeries):
            inner = ", ".join(_fmt_number(c) for c in n.series.coeffs[:4])
            if n.series.trunc_order > 3:
                inner += ", ..."
            return f"<series {inner}>"
        raise TypeError(f"not an expression node: {n!r}")

    return render(node)


# structure analysis -----------------------------------------------------------

_CHILDREN = {
    Add: ("left", "right"),
    Sub: ("left", "right"),
    Mul: ("left", "right"),
    Div: ("left", "right"),
    Neg: ("operand",),
    Pow: ("base",),
    Func: ("arg",),
}


def iter_refs(node: Expr) -> Iterator[StateRef]:
    """All state references in the tree, depth first, left to right.  An
    explicit stack, so that the structure check of a long sum does not
    run into the recursion limit."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, StateRef):
            yield n
        else:
            for c in reversed(_CHILDREN.get(type(n), ())):
                stack.append(getattr(n, c))


def depth(node: Expr) -> int:
    """Levels of the tree, a lone leaf being one; an explicit stack, like
    ``iter_refs``."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        n, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((getattr(n, c), level + 1) for c in _CHILDREN.get(type(n), ()))
    return deepest


def map_refs(node: Expr, fn: Callable[[StateRef], Expr]) -> Expr:
    """The tree with every state reference replaced by ``fn(ref)``; other
    leaves, and subtrees in which ``fn`` replaced nothing, are returned
    unchanged."""
    if isinstance(node, StateRef):
        return fn(node)
    changed = {}
    for c in _CHILDREN.get(type(node), ()):
        child = getattr(node, c)
        mapped = map_refs(child, fn)
        if mapped is not child:
            changed[c] = mapped
    return node._replace(**changed) if changed else node


class StructureReport(Record):
    """Delay usage summary of a system of right-hand sides."""

    max_deriv_per_delay: dict[str, int]
    max_delayed_deriv: int
    total_delayed_derivs: int
    neutral: bool
    neutral_proportional_refs: tuple[tuple[int, StateRef], ...]
    ref_count: int


def analyze(
    equations: Sequence[Expr],
    *,
    order: int,
    num_vars: int,
    delays: Mapping[str, bool],
) -> StructureReport:
    """Check every state reference of a system and summarize the delay
    structure.

    ``delays`` maps each declared delay id to True when it is proportional.
    For each delay the maximal referenced derivative order is recorded; the
    system is neutral when that maximum reaches the system order.  Delayed
    references may carry up to ``order`` primes, undelayed ones at most
    ``order - 1``.
    """
    max_deriv = {delay_id: 0 for delay_id in delays}
    neutral_refs = []
    count = 0
    for eq_index, equation in enumerate(equations, start=1):
        for ref in iter_refs(equation):
            count += 1
            if not 1 <= ref.var <= num_vars:
                raise StructureError(
                    f"equation {eq_index}: variable index {ref.var} out of "
                    f"range 1..{num_vars}"
                )
            if ref.deriv > order:
                raise StructureError(
                    f"equation {eq_index}: derivative order {ref.deriv} "
                    f"exceeds the system order {order}"
                )
            if ref.delay is None:
                if ref.deriv >= order:
                    raise StructureError(
                        f"equation {eq_index}: undelayed derivative order "
                        f"must be below the system order {order}"
                    )
                continue
            if ref.delay not in delays:
                raise StructureError(
                    f"equation {eq_index}: undeclared delay {ref.delay!r}"
                )
            max_deriv[ref.delay] = max(max_deriv[ref.delay], ref.deriv)
            if ref.deriv == order and delays[ref.delay]:
                neutral_refs.append((eq_index, ref))
    overall = max(max_deriv.values(), default=0)
    return StructureReport(
        max_deriv_per_delay=max_deriv,
        max_delayed_deriv=overall,
        total_delayed_derivs=sum(max_deriv.values()),
        neutral=bool(delays) and overall == order,
        neutral_proportional_refs=tuple(neutral_refs),
        ref_count=count,
    )


# evaluation -------------------------------------------------------------------

class SeriesTape(Tape):
    """Expressions lowered once onto a ``series.Tape``: each node maps onto
    the tape's rule for it, and a state reference onto the step
    ``leaf(ref) = k -> float``; without ``leaf`` a state reference is an
    error.  ``time`` holds the series substituted for ``t``, and its length
    is the number of rounds.
    """

    __slots__ = ("_time", "_leaf")

    def __init__(self, time: Sequence[float], leaf: Callable[[StateRef], Callable] | None = None):
        super().__init__(len(time))
        self._time = time
        self._leaf = leaf

    def lower(self, node: Expr) -> Sequence[float]:
        """Append the nodes of a tree; returns the sequence of its coefficients."""
        if isinstance(node, Const):
            return self.constant(float(node.value))
        if isinstance(node, Time):
            return self._time
        if isinstance(node, KnownSeries):
            coeffs, order = node.series.coeffs, self.rounds - 1
            if len(coeffs) <= order:  # the missing coefficients are unknown, not zero
                raise SeriesError(
                    f"cannot truncate order-{len(coeffs) - 1} series to order {order}"
                )
            return coeffs
        if isinstance(node, StateRef):
            if self._leaf is None:
                raise EvaluationError(f"state reference {pretty(node)} not allowed in this context")
            return self.emit(self._leaf(node))
        if isinstance(node, Add):
            a, b = self.lower(node.left), self.lower(node.right)
            return self.emit(lambda k: a[k] + b[k], None, self.hull(a, b))
        if isinstance(node, Sub):
            a, b = self.lower(node.left), self.lower(node.right)
            return self.emit(lambda k: a[k] - b[k], None, self.hull(a, b))
        if isinstance(node, Neg):
            a = self.lower(node.operand)
            return self.emit(lambda k: -a[k], None, self.support(a))
        if isinstance(node, Mul):
            return self.product(self.lower(node.left), self.lower(node.right))
        outer = self._context
        self._context = (partial(pretty, node),) + outer
        if isinstance(node, Div):
            numerator = self.lower(node.left)
            out = self.product(numerator, self.elementary("reciprocal", self.lower(node.right)))
        elif isinstance(node, Pow):
            out = self.power(self.lower(node.base), float(node.exponent))
        elif isinstance(node, Func):
            out = self.elementary(node.fn, self.lower(node.arg))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        self._context = outer
        return out


def eval_series(
    node: Expr, time: Series, resolve: Callable[[StateRef], Series] | None = None
) -> Series:
    """Expand the tree over series: ``time`` is the series substituted for
    ``t`` and fixes the working order, ``resolve`` maps state references to
    series of at least that order; without it a reference is an error."""

    def leaf(ref: StateRef):
        return resolve(ref).truncated(time.trunc_order).coeffs.__getitem__

    tape = SeriesTape(time.coeffs, None if resolve is None else leaf)
    out = tape.lower(node)
    tape.run()
    return Series(tuple(out[: time.trunc_order + 1]))  # a known series may be longer


def time_series(order: int) -> Series:
    """The identity substitution for ``t``."""
    return monomial(1, order)


def _fail(reason: str, node: Expr, index: int, t: float, x=None):
    """Raise the failure of a guard on ``node``, in the ``index``-th tree
    compiled together: ``reason`` filled in with ``x``, the guarded argument
    or the exception a power raised, which gives no reason when it is an
    overflow.  Only here and in ``_refuse`` does a compiled tree run
    ``pretty``."""
    error = EvaluationError()
    error.index, error.t, error.node = index, t, node
    error.reason = None if isinstance(x, OverflowError) else reason.format(x=x)
    error.args = (f"{error.describe()} at t={t:g}",)
    raise error from None


def _refuse(kind: str, node: Expr):
    """Raise the refusal of a leaf that no ``leaf`` function places."""
    raise EvaluationError(f"{kind} {pretty(node)} not allowed in this context")


def compile_numeric(
    nodes: Sequence[Expr],
    leaf: Callable[[StateRef | KnownSeries], tuple[str, int]] | None = None,
) -> Callable[[float, object, object], tuple]:
    """Lower a list of trees once into one straight-line function
    ``f(t, y, dv) -> tuple``, one float per tree, by ``exec``: one statement
    and temporary per operator node, so no generated expression nests.  A
    left operand runs before the right one, a quotient's denominator before
    its zero test and numerator; a test a constant settles is left out.
    ``leaf(node)`` says where the value of a state reference or of a
    history leaf (``KnownSeries``) lives, ``("y", i)`` or ``("dv", i)`` for
    ``y[i]`` or ``dv[i]``, so the caller evaluates the series; without it,
    evaluating either is an error.  Constants and the nodes that error texts
    name are bound as names of the function's globals, not literals."""
    scope = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "log": math.log,
             "power_errors": (ValueError, ZeroDivisionError, OverflowError),
             "math_errors": (OverflowError, ValueError)}
    body: list[str] = []

    def bind(value) -> str:
        name = f"g{len(scope)}"
        scope[name] = value
        return name

    def assign(text: str) -> str:
        name = f"v{len(body)}"
        body.append(f"{name} = {text}")
        return name

    def lower(node: Expr, index: int) -> str:
        def fail(reason: str, *args: str) -> str:
            return f"{bind(partial(_fail, reason, node, index))}({', '.join(('t',) + args)})"

        if isinstance(node, Const):
            return bind(node.value)
        if isinstance(node, Time):
            return "t"
        if isinstance(node, (StateRef, KnownSeries)):
            if leaf is None:
                kind = "state reference" if isinstance(node, StateRef) else "history leaf"
                return assign(f"{bind(partial(_refuse, kind, node))}()")
            array, i = leaf(node)
            return f"{array}[{i:d}]"
        if isinstance(node, (Add, Sub, Mul)):
            a, op = lower(node.left, index), {Add: "+", Sub: "-", Mul: "*"}[type(node)]
            return assign(f"{a} {op} {lower(node.right, index)}")
        if isinstance(node, Neg):
            return assign(f"-{lower(node.operand, index)}")
        if isinstance(node, Div):
            b = lower(node.right, index)
            if not (isinstance(node.right, Const) and node.right.value):  # else never zero
                body.append(f"if {b} == 0.0: " + fail("division by zero"))
            return assign(f"{lower(node.left, index)} / {b}")
        if isinstance(node, Pow):
            a, out = lower(node.base, index), f"v{len(body)}"
            body.append(f"try: {out} = {a} ** {bind(node.exponent)}")
            body.append("except power_errors as e: " + fail("{x}", "e"))
            if not float(node.exponent).is_integer():  # else never complex
                body.append(f"if isinstance({out}, complex): "
                            + fail("fractional power of negative base"))
            return out
        if not isinstance(node, Func):
            raise TypeError(f"not an expression node: {node!r}")
        if node.fn not in FUNCTIONS:
            raise EvaluationError(f"unknown function {node.fn!r}")
        a = lower(node.arg, index)
        if node.fn == "ln":
            body.append(f"if {a} <= 0.0: " + fail("ln of nonpositive value {x:g}", a))
            return assign(f"log({a})")
        # exp overflows past about 709.78; sin and cos refuse infinity
        failure = "overflows at" if node.fn == "exp" else "of non-finite"
        out = f"v{len(body)}"
        body.append(f"try: {out} = {node.fn}({a})")
        body.append("except math_errors: " + fail(f"{node.fn} {failure} argument {{x:g}}", a))
        return out

    outputs = [lower(node, index) for index, node in enumerate(nodes)]
    body.append(f"return ({', '.join(outputs)},)")
    exec("def f(t, y, dv):\n    " + "\n    ".join(body), scope)
    return scope.pop("f")  # no cycle through the function's own globals


def eval_numeric(node: Expr, t: float, resolve: Callable[[StateRef], float] | None = None) -> float:
    """Evaluate the tree at a single time value; ``resolve`` gives the value
    of each distinct state reference, asked once the tree is compiled.
    History leaves are evaluated at t where ``resolve`` is given; without
    it, a tree holding either kind of leaf fails where it reaches one."""
    slots: dict[StateRef, int] = {}
    known: list[float] = []

    def leaf(node: StateRef | KnownSeries) -> tuple[str, int]:
        if isinstance(node, KnownSeries):
            known.append(node.series.evaluate(t))
            return "dv", len(known) - 1
        return "y", slots.setdefault(node, len(slots))

    compiled = compile_numeric([node], None if resolve is None else leaf)
    return compiled(t, [resolve(ref) for ref in slots], known)[0]
