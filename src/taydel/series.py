"""Truncated power series about t = 0 and the coefficient rules on them.

A series ``[c0, c1, ..., cN]`` represents ``c0 + c1*t + ... + cN*t**N``;
index k holds the k-th Taylor coefficient.  ``Series`` is a checked value:
finite double-precision coefficients, immutable after construction, with
the argument transforms the solver needs (truncation, derivative shift,
q**k scaling, evaluation).  Arithmetic between series (sums, Cauchy
products, the elementary recurrences) runs on ``Tape``, which ``expr``
lowers expressions onto; the powers that compose history expansions are
built eagerly by ``power_table`` with the tape's product rule.

A known order is never silently extended: ``Series.truncated`` refuses
padding, and ``expr.SeriesTape.lower`` refuses a known series shorter
than its working order, since the missing coefficients are unknown, not
zero.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, partial, reduce
from operator import add, mul
from typing import Sequence


class Record:
    """Immutable value class.  The annotated names of a subclass body are its
    fields, in order, a value assigned to one is its default, and ``__post_init__``
    runs once they are set.  Equal only within a class; hashed as the field tuple.
    No metaclass (it would slow every ``isinstance`` test), so no ``__slots__``."""

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        scope = {f"_d_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
        scope["_set"] = object.__setattr__
        params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in scope else f", {f}" for f in fields)
        body = [f"    _set(self, {f!r}, {f})" for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        # compiled per class: a generic *args/**kwargs __init__ read 6-10%
        # slower on march_long, which builds about 115 records a run
        exec(f"def __init__(self{params}):\n" + "\n".join(body or ["    pass"]), scope)
        cls.__init__ = scope["__init__"]

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class SeriesError(ValueError):
    """Truncation-order mismatch or malformed coefficient data."""


class SeriesDomainError(SeriesError):
    """An elementary function was applied outside its domain, or its value
    at the constant term overflows a double."""


def non_finite_coefficient(value: float, index: int) -> SeriesError:
    return SeriesError(f"non-finite coefficient {value!r} at index {index}")


class Series(Record):
    """Immutable truncated Taylor series."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(float, self.coeffs))
        if not coeffs:
            raise SeriesError("a series needs at least its constant coefficient")
        if not all(map(math.isfinite, coeffs)):
            k = next(k for k, c in enumerate(coeffs) if not math.isfinite(c))
            raise non_finite_coefficient(coeffs[k], k)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> "Series":
        """Prefix of this series.  Extending (padding) is refused: the
        missing coefficients are unknown, not zero."""
        if order < 0 or order > self.trunc_order:
            raise SeriesError(
                f"cannot truncate order-{self.trunc_order} series to order {order}"
            )
        return Series(self.coeffs[: order + 1])

    # argument transforms ----------------------------------------------------

    def scale_arg(self, q: float) -> "Series":
        """Coefficients of u(q*t): index k is scaled by q**k.

        q must lie in (0, 1]; proportional delays contract the argument,
        and q = 1 is the identity.
        """
        if not 0.0 < q <= 1.0:
            raise SeriesError(f"argument scale must be in (0, 1], got {q!r}")
        out = []
        qk = 1.0
        for c in self.coeffs:
            out.append(qk * c)
            qk *= q
        return Series(tuple(out))

    def differentiate(self, m: int = 1) -> "Series":
        """m-th derivative: index k becomes (k+m)!/k! * coeffs[k+m].

        The truncation order drops by m; a padded tail would silently
        claim unknown coefficients are zero.
        """
        if m < 0:
            raise SeriesError(f"derivative order must be nonnegative, got {m}")
        if m > self.trunc_order:
            raise SeriesError(
                f"cannot take derivative of order {m} of an order-"
                f"{self.trunc_order} series"
            )
        return Series(
            tuple(
                math.perm(k + m, m) * self.coeffs[k + m]
                for k in range(self.trunc_order - m + 1)
            )
        )

    @cached_property
    def horner_terms(self) -> tuple[float, ...]:
        """The coefficients Horner's rule visits, highest first: from the
        highest nonzero one, c, or all if none is.  Above c the rule from 0.0
        yields a signed zero, or NaN at an infinite or NaN t, which times t
        plus c gives the bits ``0.0 * t + c`` gives."""
        terms = self.coeffs[::-1]
        return terms[next((k for k, c in enumerate(terms) if c), 0):]

    def evaluate(self, t: float) -> float:
        """Horner evaluation of the truncated polynomial."""
        acc = 0.0
        for c in self.horner_terms:
            acc = acc * t + c
        return acc


def monomial(degree: int, order: int) -> Series:
    """The series of t**degree, all zeros when degree exceeds the order."""
    if degree < 0:
        raise SeriesError(f"monomial degree must be nonnegative, got {degree}")
    if order < 0:
        raise SeriesError(f"truncation order must be nonnegative, got {order}")
    coeffs = [0.0] * (order + 1)
    if degree <= order:
        coeffs[degree] = 1.0
    return Series(tuple(coeffs))


def exp_linear(rate: float, order: int) -> Series:
    """The series of exp(rate * t): coefficient k is rate**k / k!."""
    if order < 0:
        raise SeriesError(f"truncation order must be nonnegative, got {order}")
    return Series(tuple(rate**k / math.factorial(k) for k in range(order + 1)))


# Every coefficient sum adds its terms in order with plain float additions
# from a float start, so a table has the same bits on every CPython.
# Through 3.11 ``sum()`` adds that way and is the fastest; from 3.12 it
# compensates float sums, so ``reduce`` adds them there.
plain_sum = sum if sys.version_info < (3, 12) else partial(reduce, add)


def product_term(a, b, lo_a: int, hi_a: int, lo_b: int, hi_b: int, k: int) -> float:
    """Coefficient k of the product of two coefficient sequences, each
    exactly zero outside its support [lo, hi] and known through index k:
    the sum from 0.0 over the j where both a[j] and b[k-j] can be nonzero,
    in increasing j, or 0.0 when there is no such j.  One or two terms are
    added directly, more by ``plain_sum``."""
    lo = k - hi_b if k - hi_b > lo_a else lo_a
    hi = k - lo_b if k - lo_b < hi_a else hi_a
    if lo == hi:
        return 0.0 + a[lo] * b[k - lo]
    if lo + 1 == hi:
        return 0.0 + a[lo] * b[k - lo] + a[hi] * b[k - hi]
    down = b[k - lo : k - hi - 1 : -1] if hi < k else b[k - lo :: -1]
    return plain_sum(map(mul, a[lo : hi + 1], down), 0.0)


# Per-index recurrences.  Each returns coefficient k of f(u) from the
# coefficients c[0..k] of u, exactly zero outside its support [lo, hi], and
# the result's known coefficients w[0..k-1]; index 0 applies f itself and
# checks its domain.  Sums add their terms in increasing j from 0.0, so a
# coefficient does not depend on how many more are computed, and run only
# over the j where c can be nonzero.  One or two terms, the common case
# for an argument of support [0, 1] such as a history leaf's a0 + s, are
# added directly; more go through ``_weighted_sum``.

def _weighted_sum(weights, a, b, lo: int, hi: int, k: int) -> float:
    """sum over j = lo..hi of weights[j-lo] * a[j] * b[k-j]; 0.0 when lo > hi."""
    down = b[k - lo : k - hi - 1 : -1] if hi < k else b[k - lo :: -1]
    return plain_sum(map(mul, map(mul, weights, a[lo : hi + 1]), down), 0.0)


def _overflow_guard(fn, value: float, label: str) -> float:
    try:
        return fn(value)
    except OverflowError:
        raise SeriesDomainError(
            f"{label} overflows at constant term {value!r}"
        ) from None


def exp_term(c, lo: int, hi: int, w, k: int) -> float:
    """w' = u' w:  k w[k] = sum_{j=1..k} j c[j] w[k-j]."""
    if k == 0:
        return _overflow_guard(math.exp, c[0], "exp")
    lo, hi = lo if lo > 1 else 1, hi if hi < k else k
    if lo == hi:
        return (0.0 + lo * c[lo] * w[k - lo]) / k
    if lo + 1 == hi:
        return (0.0 + lo * c[lo] * w[k - lo] + hi * c[hi] * w[k - hi]) / k
    return _weighted_sum(range(lo, hi + 1), c, w, lo, hi, k) / k


def ln_term(c, lo: int, hi: int, w, k: int) -> float:
    """u w' = u':  w[k] = (c[k] - sum_{j=1..k-1} j w[j] c[k-j] / k) / c[0]."""
    if k == 0:
        if c[0] <= 0.0:
            raise SeriesDomainError(
                f"ln requires a positive constant term, got {c[0]!r}"
            )
        return math.log(c[0])
    lo, hi = k - hi if k - hi > 1 else 1, k - lo if lo > 1 else k - 1
    if lo == hi:
        total = 0.0 + lo * w[lo] * c[k - lo]
    elif lo + 1 == hi:
        total = 0.0 + lo * w[lo] * c[k - lo] + hi * w[hi] * c[k - hi]
    else:
        total = _weighted_sum(range(lo, hi + 1), w, c, lo, hi, k)
    return (c[k] - total / k) / c[0]


def reciprocal_term(c, lo: int, hi: int, w, k: int) -> float:
    """u w = 1:  w[k] = -sum_{j=1..k} c[j] w[k-j] / c[0]."""
    if k == 0:
        if c[0] == 0.0:
            raise SeriesDomainError(
                "reciprocal requires a nonzero constant term, got 0"
            )
        return 1.0 / c[0]
    return -product_term(c, w, lo if lo > 1 else 1, hi, 0, k, k) / c[0]


def pow_term(c, lo: int, hi: int, w, rho: float, k: int) -> float:
    """u w' = rho u' w for a fractional exponent rho:
    k c[0] w[k] = sum_{j=1..k} ((rho+1) j - k) c[j] w[k-j]."""
    if k == 0:
        if c[0] <= 0.0:
            raise SeriesDomainError(
                f"pow({rho:g}) requires a positive constant term, got {c[0]!r}"
            )
        return _overflow_guard(lambda base: base**rho, c[0], f"pow({rho:g})")
    lo, hi, r = lo if lo > 1 else 1, hi if hi < k else k, rho + 1.0
    if lo == hi:
        return (0.0 + (r * lo - k) * c[lo] * w[k - lo]) / (k * c[0])
    if lo + 1 == hi:
        total = 0.0 + (r * lo - k) * c[lo] * w[k - lo] + (r * hi - k) * c[hi] * w[k - hi]
        return total / (k * c[0])
    weights = [r * j - k for j in range(lo, hi + 1)]
    return _weighted_sum(weights, c, w, lo, hi, k) / (k * c[0])


def sincos_term(c, lo: int, hi: int, s, co, k: int) -> tuple[float, float]:
    """The coupled pair s' = u' co, co' = -u' s: coefficient k of sin(u)
    and of cos(u) from s[0..k-1] and co[0..k-1]."""
    if k == 0:
        return math.sin(c[0]), math.cos(c[0])
    lo, hi = lo if lo > 1 else 1, hi if hi < k else k
    if lo == hi:
        x = lo * c[lo]
        return (0.0 + x * co[k - lo]) / k, -(0.0 + x * s[k - lo]) / k
    if lo + 1 == hi:
        x, y = lo * c[lo], hi * c[hi]
        return (
            (0.0 + x * co[k - lo] + y * co[k - hi]) / k,
            -(0.0 + x * s[k - lo] + y * s[k - hi]) / k,
        )
    j = range(lo, hi + 1)
    return _weighted_sum(j, c, co, lo, hi, k) / k, -_weighted_sum(j, c, s, lo, hi, k) / k


_ELEMENTARY_TERMS = {"exp": exp_term, "ln": ln_term, "reciprocal": reciprocal_term}


def _in_context(exc: SeriesError, where) -> SeriesError:
    """A domain error with the enclosing labels ``where`` appended, innermost
    first; any other error as it is."""
    if isinstance(exc, SeriesDomainError):
        return SeriesDomainError(str(exc) + "".join(f" in {label()}" for label in where))
    return exc


class Tape:
    """A straight-line program over per-node coefficient lists, the one
    driver of the rules above.  Each node computes its coefficients from
    what its inputs already hold: a Cauchy product, one step of a per-index
    recurrence, or any step ``k -> float``.  Constants and known series are
    fixed sequences that take no step.  ``rounds`` is the number of
    coefficients a node holds once ``run`` returns.

    A tape runs one of two ways.  ``fill(k)`` appends coefficient k to every
    node, in the order the nodes were emitted; the march calls it once per
    round, because its state references read table entries that the round
    before computed.  ``run`` serves every tape that reads no such state
    (history leaves, delay arguments, the compatibility check, residuals,
    ``compose_elementary``): it computes all rounds of one node before the
    next node starts, since a node reads only nodes emitted before it.
    Both run one step per node and round, the same steps, so they give the
    same coefficients and raise the same first failure: the smallest
    round's, and within it the first node's.  A product by fixed data
    ``(c, 0, 0, ...)`` steps by its one term ``0.0 + c * x[k]``.

    Every sequence has a support [lo, hi] within 0..rounds-1, outside which
    its coefficients are exactly zero: [0, 0] for a constant, the nonzero
    span of its data for a sequence the tape did not hand out (time, a known
    series), [lo_a + lo_b, hi_a + hi_b] for a product and every index for
    any other step unless its emitter says otherwise; an empty support is
    [rounds, -1].  Products and recurrences take no term with a factor
    outside its support, and a product is 0.0 outside its own without
    running its step.  Each skipped term is a finite number times a signed
    zero, and a sum that starts from 0.0 never holds -0.0, so the
    coefficients equal those of the full sums bit for bit.
    """

    __slots__ = ("rounds", "_ops", "_context", "_supports")

    def __init__(self, rounds: int):
        self.rounds = rounds
        # (coefficients.append, step, enclosing labels, first and last round
        # in which the step runs); run reaches the list as append.__self__
        self._ops: list = []
        # zero-argument callables naming the enclosing quotients, powers and
        # functions, innermost first: a domain error names each of them
        self._context: tuple = ()
        # id(sequence) -> (support, sequence); holding the sequence keeps its
        # id from being reused by another while the tape lives
        self._supports: dict[int, tuple] = {}

    def fill(self, k: int) -> None:
        """Append coefficient k to every node; rounds 0..k-1 must have run."""
        isfinite = math.isfinite
        for append, step, where, lo, hi in self._ops:
            if not lo <= k <= hi:  # a product outside its support
                append(0.0)
                continue
            try:
                value = step(k)
            except SeriesDomainError as exc:
                raise _in_context(exc, where) from None
            if not isfinite(value):
                raise non_finite_coefficient(value, k)
            append(value)

    def run(self) -> None:
        """Compute every coefficient of every node, node by node.  A node
        that fails at round k runs no further, and every later node runs
        rounds 0..k-1 only: a later failure wins only at an earlier round,
        and the earliest is raised once all nodes have run."""
        isfinite = math.isfinite
        limit, failure = self.rounds, None
        for append, step, where, lo, hi in self._ops:
            out = append.__self__
            if lo:  # a product below its support
                out += [0.0] * (lo if lo < limit else limit)
            try:
                for k in range(lo, hi + 1 if hi < limit else limit):
                    value = step(k)
                    if not isfinite(value):
                        raise non_finite_coefficient(value, k)
                    append(value)
            except SeriesError as exc:
                failure, limit = _in_context(exc, where), k
                continue
            if hi + 1 < limit:  # above it
                out += [0.0] * (limit - len(out))
        if failure is not None:
            raise failure

    def support(self, seq: Sequence[float]) -> tuple[int, int]:
        """The [lo, hi] outside which ``seq`` is exactly zero."""
        known = self._supports.get(id(seq))
        if known is None:  # fixed data
            nonzero = [k for k, c in enumerate(seq[: self.rounds]) if c]
            bounds = (nonzero[0], nonzero[-1]) if nonzero else (self.rounds, -1)
            known = self._supports[id(seq)] = (bounds, seq)
        return known[0]

    def hull(self, a: Sequence[float], b: Sequence[float]) -> tuple[int, int]:
        """Support of a sum or difference of ``a`` and ``b``."""
        (lo_a, hi_a), (lo_b, hi_b) = self.support(a), self.support(b)
        return min(lo_a, lo_b), max(hi_a, hi_b)

    def emit(
        self, step, out: list | None = None, support: tuple[int, int] | None = None,
        sparse: bool = False,
    ) -> list:
        """Append a node computed by ``step``, one coefficient per call,
        whichever driver runs the tape; with ``sparse`` the step runs only
        inside ``support`` and the node holds 0.0 elsewhere."""
        out = [] if out is None else out
        support = support or (0, self.rounds - 1)
        lo, hi = support if sparse else (0, self.rounds)
        self._ops.append((out.append, step, self._context, lo, hi))
        self._supports[id(out)] = (support, out)
        return out

    def constant(self, value: float) -> Sequence[float]:
        if not math.isfinite(value):  # refused when its round runs
            return self.emit(lambda k: 0.0 if k else value, None, (0, 0))
        out = (value,) + (0.0,) * (self.rounds - 1)
        self._supports[id(out)] = ((0, 0), out)
        return out

    def product(self, a: Sequence[float], b: Sequence[float]) -> list:
        (lo_a, hi_a), (lo_b, hi_b) = self.support(a), self.support(b)
        lo, hi = lo_a + lo_b, min(hi_a + hi_b, self.rounds - 1)
        step = partial(product_term, a, b, lo_a, hi_a, lo_b, hi_b)
        if hi_b == 0 and isinstance(b, tuple):  # b may be the fixed factor
            (a, hi_a), b = (b, hi_b), a  # c * x and x * c are the same double
        if hi_a == 0 and isinstance(a, tuple):
            # a is fixed data (c, 0, 0, ...): inside the support
            # product_term adds the one term c * x[k] to 0.0
            c, x = a[0], b
            step = lambda k: 0.0 + c * x[k]
        return self.emit(step, None, (lo, hi) if lo <= hi else (self.rounds, -1), True)

    def _recurrence(self, term, arg: Sequence[float], *extra) -> list:
        out: list[float] = []
        return self.emit(partial(term, arg, *self.support(arg), out, *extra), out)

    def elementary(self, tag: str, arg: Sequence[float]) -> list:
        """f(arg) for ``exp``, ``ln``, ``sin``, ``cos`` or ``reciprocal``."""
        if tag in ("sin", "cos"):
            return self._sincos(arg, tag)
        if tag not in _ELEMENTARY_TERMS:
            raise SeriesError(f"unknown elementary function tag {tag!r}")
        return self._recurrence(_ELEMENTARY_TERMS[tag], arg)

    def power(self, base: Sequence[float], rho: float) -> Sequence[float]:
        """base**rho.  A whole exponent is a chain of products by binary
        exponentiation and places no restriction on the base; a negative
        one takes the reciprocal of that chain, after checking that the
        base's constant term is nonzero.  A fractional exponent runs its
        recurrence, which requires a positive constant term."""
        if not rho.is_integer():
            if not math.isfinite(rho):
                # its weights are infinite, and inf * 0 is nan: skip no term
                out: list[float] = []
                return self.emit(partial(pow_term, base, 0, self.rounds - 1, out, rho), out)
            return self._recurrence(pow_term, base, rho)
        m = int(rho)
        if m < 0:
            def check(k):
                if not k and base[0] == 0.0:
                    raise SeriesDomainError(
                        f"pow({rho:g}) requires a nonzero constant term, got 0"
                    )
                return 0.0

            self.emit(check)
        result, square, e = self.constant(1.0), base, abs(m)
        while e > 0:
            if e & 1:
                result = self.product(result, square)
            e >>= 1
            if e:
                square = self.product(square, square)
        return result if m >= 0 else self._recurrence(reciprocal_term, result)

    def _sincos(self, arg: Sequence[float], fn: str) -> list:
        s: list[float] = []
        co: list[float] = []
        out, companion, pick = (s, co, 0) if fn == "sin" else (co, s, 1)
        lo, hi = self.support(arg)

        def step(k):
            pair = sincos_term(arg, lo, hi, s, co, k)
            companion.append(pair[1 - pick])
            return pair[pick]

        return self.emit(step, out)


def compose_elementary(tag: str, u: Series, exponent: float | None = None) -> Series:
    """Coefficients of f(u(t)) for an elementary function f.

    Supported tags: ``exp``, ``ln``, ``sin``, ``cos``, ``reciprocal`` and
    ``pow`` (which takes ``exponent``).  Each case uses the classical
    first-order recurrence (w' = u'*w for exp, u*w' = rho*u'*w for powers,
    the coupled pair for sin/cos), so result[k] depends on u[0..k] only.

    Integer exponents are expanded by repeated multiplication and place no
    restriction on the constant term; fractional exponents and ``ln``
    require u[0] > 0, ``reciprocal`` requires u[0] != 0.  An exp or power
    whose constant term overflows a double is a domain error too.
    """
    if tag == "pow" and exponent is None:
        raise SeriesError("pow requires an exponent")
    if tag != "pow" and exponent is not None:
        raise SeriesError(f"{tag} takes no exponent")
    tape = Tape(len(u.coeffs))
    if tag == "pow":
        out = tape.power(u.coeffs, float(exponent))
    else:
        out = tape.elementary(tag, u.coeffs)
    tape.run()
    return Series(tuple(out))


def power_table(inner: Sequence[float], count: int) -> list[tuple[int, tuple[float, ...]]]:
    """The powers inner**0 .. inner**(count-1) of a series with a zero
    constant term, for composing any number of polynomials with one inner
    series, stored by column: column k is the first power that can be
    nonzero at k, and the values at k of it and of the powers after it that
    can be.

    Power i is the product of power i-1 and ``inner``, computed with
    ``product_term`` only over its support [i lo, min(i hi, L-1)] for the
    support [lo, hi] of ``inner`` and L = len(inner): the tape's product
    rule, with the same coefficients bit for bit.  For a polynomial inner
    series of degree d the table costs O(d N**2) in all; otherwise
    O(N**3).  A non-finite power is kept; ``compose_powers`` reports it.
    """
    if inner[0] != 0.0:
        raise SeriesError(
            "polynomial composition requires a zero constant term in the "
            f"inner series, got {inner[0]!r}"
        )
    rounds = len(inner)
    firsts, columns = [0] * rounds, [[1.0]] + [[] for _ in range(1, rounds)]
    nonzero = [k for k, c in enumerate(inner) if c]
    if nonzero:  # otherwise every power past the 0th is 0
        lo, hi = nonzero[0], nonzero[-1]
        power, lo_a, hi_a = (1.0,) + (0.0,) * (rounds - 1), 0, 0
        for i in range(1, min(count, (rounds - 1) // lo + 1)):
            lo_i, hi_i = i * lo, min(i * hi, rounds - 1)
            previous, power = power, [0.0] * rounds
            for k in range(lo_i, hi_i + 1):
                power[k] = value = product_term(previous, inner, lo_a, hi_a, lo, hi, k)
                if not columns[k]:
                    firsts[k] = i
                columns[k].append(value)
            lo_a, hi_a = lo_i, hi_i
    return list(zip(firsts, map(tuple, columns)))


def compose_powers(table: list, outer: Sequence[float]) -> list[float]:
    """Coefficients of P(inner(t)) from the ``power_table`` of ``inner``,
    for the polynomial with one coefficient in ``outer`` per power:
    coefficient k adds outer[i] * inner**i at k in increasing i, leaving
    out the powers that are 0 there.  A coefficient that is not finite is
    reported as the first non-finite power in its column if there is one,
    the index and value at which building the powers one index at a time
    would have stopped."""
    isfinite = math.isfinite
    out = []
    for k, (first, column) in enumerate(table):
        value = plain_sum(map(mul, outer[first : first + len(column)], column), 0.0)
        if not isfinite(value):
            raise non_finite_coefficient(next((c for c in column if not isfinite(c)), value), k)
        out.append(value)
    return out
