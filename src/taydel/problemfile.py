"""Problem-definition file format.

A problem file is line oriented; ``#`` starts a comment.  Sections::

    order = <int>
    vars = <name>, <name>, ...
    delay <id> = constant(<num>) | proportional(<num>) | vary(<expr in t>)
    eq <var><primes> = <expr>
    init <var> = [<num>, ...]
    phi <var> = <expr in t>
    horizon = <num>
    taylor_order = <int>

Numbers accept rationals (``1/3``).  The left-hand side of every ``eq``
must carry exactly ``order`` primes; each variable needs one equation and
one ``init`` row of ``order`` values.  ``phi`` rows are required exactly
when a constant or time-dependent delay is declared.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from . import expr as ex
from .problem import (
    CauchyProblem,
    ConstantDelay,
    DelaySpec,
    ProblemError,
    ProportionalDelay,
    TimeVaryingDelay,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
_DELAY_LINE_RE = re.compile(r"(?P<kind>constant|proportional|vary)\((?P<body>.*)\)$")
# Keeps the recursive walkers that run after loading inside the
# interpreter's recursion limit: the printer spends two frames on each level
# of the tree, the other walkers one.  ``expr.parse_expression`` bounds the
# parser's own recursion (``MAX_PARENTHESES``).
MAX_EXPRESSION_DEPTH = 250


def _fail(message: str, line_no: int) -> ex.ParseError:
    return ex.ParseError(message, line=line_no)


def _parse_number(text: str, line_no: int) -> float:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            raise _fail(f"bad rational literal {text!r}", line_no) from None
    try:
        return float(text)
    except ValueError:
        raise _fail(f"bad number {text!r}", line_no) from None


def _parse_expression(text: str, line_no: int, offset: int, **names) -> ex.Expr:
    """Parse an expression that starts after ``offset`` characters of file
    line ``line_no``; an error gives its position in that line.  Sums are
    not rebalanced to fit the depth bound, since that would change the
    order of the float additions.  The depth bound is checked only on text
    that could break it: every level of the tree takes at least one
    character."""
    try:
        node = ex.parse_expression(text, **names)
    except ex.ParseError as exc:
        raise ex.ParseError(exc.message, line_no, offset + exc.column) from None
    if len(text) > MAX_EXPRESSION_DEPTH and ex.depth(node) > MAX_EXPRESSION_DEPTH:
        raise ex.ParseError(
            f"expression is more than {MAX_EXPRESSION_DEPTH} levels deep",
            line_no,
            offset + 1,
        )
    return node


def _parse_int(text: str, line_no: int) -> int:
    value = _parse_number(text, line_no)
    if not (math.isfinite(value) and value.is_integer()):
        raise _fail(f"expected an integer, got {text.strip()!r}", line_no)
    return int(value)


# the keys that take one value, each with the parser of that value
_SCALARS = {
    "order": _parse_int,
    "vars": lambda value, line_no: [v.strip() for v in value.split(",") if v.strip()],
    "horizon": _parse_number,
    "taylor_order": _parse_int,
}


def parse_problem(text: str, *, name: str = "<string>") -> CauchyProblem:
    """Parse a problem file's contents into a validated problem."""
    scalars = {}
    # (line number, name, value, offset of the value in its line)
    sections: dict[str, list[tuple[int, str, str, int]]] = {
        "delay": [], "eq": [], "init": [], "phi": []
    }

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise _fail(f"expected 'key = value', got {line!r}", line_no)
        key = key.strip()
        after = raw[raw.index("=") + 1 :]
        offset = len(raw) - len(after.lstrip())
        value = value.strip()
        parts = key.split()
        if not parts:
            raise _fail(f"missing key before '=' in {line!r}", line_no)
        if parts[0] in _SCALARS and len(parts) == 1:
            if parts[0] in scalars:
                raise _fail(f"duplicate {parts[0]!r} section", line_no)
            scalars[parts[0]] = _SCALARS[parts[0]](value, line_no)
        elif parts[0] in sections and len(parts) == 2:
            sections[parts[0]].append((line_no, parts[1], value, offset))
        else:
            raise _fail(f"unrecognized section {key!r}", line_no)

    for key in _SCALARS:
        # a vars line that names no variable counts as missing
        if key not in scalars or scalars[key] == []:
            raise _fail(f"missing {key!r} section", 1)
    order, var_names, horizon, taylor_order = (scalars[key] for key in _SCALARS)
    for v in var_names:
        if not _NAME_RE.match(v):
            raise _fail(f"bad variable name {v!r}", 1)
        if v in ex.RESERVED:
            raise _fail(f"variable name {v!r} is reserved", 1)
    if len(set(var_names)) != len(var_names):
        raise _fail("duplicate variable names", 1)

    delays = []
    for line_no, delay_id, value, offset in sections["delay"]:
        if not _NAME_RE.match(delay_id) or delay_id in ex.RESERVED:
            raise _fail(f"bad delay name {delay_id!r}", line_no)
        m = _DELAY_LINE_RE.match(value)
        if not m:
            raise _fail(
                f"delay must be constant(...), proportional(...) or "
                f"vary(...), got {value!r}",
                line_no,
            )
        kind, body = m.group("kind"), m.group("body")
        try:
            if kind == "constant":
                law = ConstantDelay(_parse_number(body, line_no))
            elif kind == "proportional":
                law = ProportionalDelay(_parse_number(body, line_no))
            else:
                law = TimeVaryingDelay(
                    _parse_expression(body, line_no, offset + m.start("body"))
                )
        except ProblemError as exc:
            raise ProblemError(f"{name}:{line_no}: {exc}") from None
        delays.append(DelaySpec(id=delay_id, law=law))
    delay_ids = [d.id for d in delays]

    equations: dict[str, ex.Expr] = {}
    for line_no, lhs, value, offset in sections["eq"]:
        base = lhs.rstrip("'")
        primes = len(lhs) - len(base)
        if base not in var_names:
            raise _fail(f"equation for unknown variable {base!r}", line_no)
        if primes != order:
            raise _fail(
                f"left-hand side must carry exactly {order} primes, "
                f"got {primes}",
                line_no,
            )
        if base in equations:
            raise _fail(f"duplicate equation for {base!r}", line_no)
        equations[base] = _parse_expression(
            value, line_no, offset, variables=var_names, delays=delay_ids, max_deriv=order
        )
    missing = [v for v in var_names if v not in equations]
    if missing:
        raise ProblemError(f"{name}: missing equation for {', '.join(missing)}")

    init: dict[str, tuple[float, ...]] = {}
    for line_no, var, value, _ in sections["init"]:
        if var not in var_names:
            raise _fail(f"initial data for unknown variable {var!r}", line_no)
        if var in init:
            raise _fail(f"duplicate initial data for {var!r}", line_no)
        body = value.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise _fail("initial data must be a bracketed list", line_no)
        entries = [e for e in body[1:-1].split(",") if e.strip()]
        init[var] = tuple(_parse_number(e, line_no) for e in entries)
        if len(init[var]) != order:
            raise ProblemError(
                f"{name}:{line_no}: initial data for {var!r} must list "
                f"{order} values, got {len(init[var])}"
            )
    missing = [v for v in var_names if v not in init]
    if missing:
        raise ProblemError(f"{name}: missing initial data for {', '.join(missing)}")

    phi: dict[str, ex.Expr] = {}
    for line_no, var, value, offset in sections["phi"]:
        if var not in var_names:
            raise _fail(f"history for unknown variable {var!r}", line_no)
        if var in phi:
            raise _fail(f"duplicate history for {var!r}", line_no)
        phi[var] = _parse_expression(value, line_no, offset)

    needs_history = any(not d.proportional for d in delays)
    if needs_history:
        missing = [v for v in var_names if v not in phi]
        if missing:
            raise ProblemError(
                f"{name}: constant or time-dependent delays are declared, "
                f"so history is required for {', '.join(missing)}"
            )
    elif phi:
        raise ProblemError(
            f"{name}: history given but every declared delay is "
            "proportional; remove the phi rows"
        )

    try:
        return CauchyProblem(
            order=order,
            var_names=tuple(var_names),
            equations=tuple(equations[v] for v in var_names),
            delays=tuple(delays),
            init=tuple(init[v] for v in var_names),
            horizon=horizon,
            trunc_order=taylor_order,
            phi=tuple(phi[v] for v in var_names) if needs_history else None,
        )
    except ProblemError as exc:
        raise ProblemError(f"{name}: {exc}") from None


def load_problem(path: str | Path) -> CauchyProblem:
    path = Path(path)
    return parse_problem(path.read_text(), name=path.name)
