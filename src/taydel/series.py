"""Truncated power-series arithmetic about t = 0.

A series ``[c0, c1, ..., cN]`` represents ``c0 + c1*t + ... + cN*t**N``;
index k holds the k-th Taylor coefficient.  All binary operations require
operands of identical truncation order.  Mixing orders is a hard error,
never a silent re-truncation, so bookkeeping mistakes in recurrence code
surface immediately.

Coefficients are double-precision floats.  Values are immutable after
construction and every operation is a pure function, so series are safe
to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Iterable


class SeriesError(ValueError):
    """Truncation-order mismatch or malformed coefficient data."""


class SeriesDomainError(SeriesError):
    """An elementary function was applied outside its domain, or its value
    at the constant term overflows a double."""


def non_finite_coefficient(value: float, index: int) -> SeriesError:
    return SeriesError(f"non-finite coefficient {value!r} at index {index}")


@dataclass(frozen=True)
class Series:
    """Immutable truncated Taylor series."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise SeriesError("a series needs at least its constant coefficient")
        for k, c in enumerate(coeffs):
            if not math.isfinite(c):
                raise non_finite_coefficient(c, k)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: float, order: int) -> "Series":
        return cls((float(value),) + (0.0,) * order)

    def truncated(self, order: int) -> "Series":
        """Prefix of this series.  Extending (padding) is refused: the
        missing coefficients are unknown, not zero."""
        if order < 0 or order > self.trunc_order:
            raise SeriesError(
                f"cannot truncate order-{self.trunc_order} series to order {order}"
            )
        return Series(self.coeffs[: order + 1])

    # elementwise arithmetic -------------------------------------------------

    def _matched(self, other: "Series", op: str) -> None:
        if self.trunc_order != other.trunc_order:
            raise SeriesError(
                f"{op}: truncation orders differ "
                f"({self.trunc_order} vs {other.trunc_order})"
            )

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._matched(other, "add")
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._matched(other, "sub")
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Series":
        return Series(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Series):
            self._matched(other, "mul")
            a, b = self.coeffs, other.coeffs
            return Series(tuple(cauchy_term(a, b, k) for k in range(len(a))))
        if isinstance(other, (int, float)):
            return Series(tuple(float(other) * c for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Series):
            self._matched(other, "div")
            return self * compose_elementary("reciprocal", other)
        if isinstance(other, (int, float)):
            if other == 0:
                raise SeriesDomainError("division of a series by scalar zero")
            return Series(tuple(c / float(other) for c in self.coeffs))
        return NotImplemented

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

    def evaluate(self, t: float) -> float:
        """Horner evaluation of the truncated polynomial."""
        acc = 0.0
        for c in reversed(self.coeffs):
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


def cauchy_term(a, b, k: int) -> float:
    """Coefficient k of the product of two series given by their
    coefficient sequences, each known through index k at least."""
    return sum(map(mul, a[: k + 1], b[k::-1]))


def int_power_chain(m: int, multiply, one, base):
    """base**m for integer m >= 0 by binary exponentiation, as the sequence
    of ``multiply`` calls that both series and the marching tape perform."""
    result = one
    while m > 0:
        if m & 1:
            result = multiply(result, base)
        m >>= 1
        if m:
            base = multiply(base, base)
    return result


def _int_power(u: Series, m: int) -> Series:
    """u**m for integer m >= 0 (no domain limits)."""
    return int_power_chain(m, Series.__mul__, Series.constant(1.0, u.trunc_order), u)


# Per-index recurrences.  Each returns coefficient k of f(u) from the
# coefficients c[0..k] of u and the result's known coefficients w[0..k-1];
# index 0 applies f itself and checks its domain.  Sums add their terms in
# increasing j with plain float additions, so a coefficient does not
# depend on how many more are computed.

def _weighted_sum(weights, a, b, k: int) -> float:
    """sum over j = 1..k of weights[j-1] * a[j] * b[k-j]."""
    return reduce(add, map(mul, map(mul, weights, a[1 : k + 1]), b[k - 1 :: -1]), 0.0)


def _overflow_guard(fn, value: float, label: str) -> float:
    try:
        return fn(value)
    except OverflowError:
        raise SeriesDomainError(
            f"{label} overflows at constant term {value!r}"
        ) from None


def exp_term(c, w, k: int) -> float:
    """w' = u' w:  k w[k] = sum_{j=1..k} j c[j] w[k-j]."""
    if k == 0:
        return _overflow_guard(math.exp, c[0], "exp")
    return _weighted_sum(range(1, k + 1), c, w, k) / k


def ln_term(c, w, k: int) -> float:
    """u w' = u':  w[k] = (c[k] - sum_{j=1..k-1} j w[j] c[k-j] / k) / c[0]."""
    if k == 0:
        if c[0] <= 0.0:
            raise SeriesDomainError(
                f"ln requires a positive constant term, got {c[0]!r}"
            )
        return math.log(c[0])
    return (c[k] - _weighted_sum(range(1, k), w, c, k) / k) / c[0]


def reciprocal_term(c, w, k: int) -> float:
    """u w = 1:  w[k] = -sum_{j=1..k} c[j] w[k-j] / c[0]."""
    if k == 0:
        if c[0] == 0.0:
            raise SeriesDomainError(
                "reciprocal requires a nonzero constant term, got 0"
            )
        return 1.0 / c[0]
    return -reduce(add, map(mul, c[1 : k + 1], w[k - 1 :: -1]), 0.0) / c[0]


def pow_term(c, w, k: int, rho: float) -> float:
    """u w' = rho u' w for a fractional exponent rho:
    k c[0] w[k] = sum_{j=1..k} ((rho+1) j - k) c[j] w[k-j]."""
    if k == 0:
        if c[0] <= 0.0:
            raise SeriesDomainError(
                f"pow({rho:g}) requires a positive constant term, got {c[0]!r}"
            )
        return _overflow_guard(lambda base: base**rho, c[0], f"pow({rho:g})")
    weights = [(rho + 1.0) * j - k for j in range(1, k + 1)]
    return _weighted_sum(weights, c, w, k) / (k * c[0])


def sincos_term(c, s, co, k: int) -> tuple[float, float]:
    """The coupled pair s' = u' co, co' = -u' s: coefficient k of sin(u)
    and of cos(u) from s[0..k-1] and co[0..k-1]."""
    if k == 0:
        return math.sin(c[0]), math.cos(c[0])
    j = range(1, k + 1)
    return _weighted_sum(j, c, co, k) / k, -_weighted_sum(j, c, s, k) / k


_ELEMENTARY_TERMS = {"exp": exp_term, "ln": ln_term, "reciprocal": reciprocal_term}


def elementary_term(tag: str):
    """The recurrence of ``exp``, ``ln`` or ``reciprocal``."""
    try:
        return _ELEMENTARY_TERMS[tag]
    except KeyError:
        raise SeriesError(f"unknown elementary function tag {tag!r}") from None


def nonzero_base_check(c0: float, rho: float) -> None:
    """Negative integer powers divide by the base's constant term."""
    if c0 == 0.0:
        raise SeriesDomainError(
            f"pow({rho:g}) requires a nonzero constant term, got 0"
        )


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
    c = u.coeffs
    n = u.trunc_order
    if tag == "pow":
        if exponent is None:
            raise SeriesError("pow requires an exponent")
        rho = float(exponent)
        if rho.is_integer():
            m = int(rho)
            if m >= 0:
                return _int_power(u, m)
            nonzero_base_check(c[0], rho)
            return compose_elementary("reciprocal", _int_power(u, -m))
        w: list[float] = []
        for k in range(n + 1):
            w.append(pow_term(c, w, k, rho))
        return Series(tuple(w))

    if exponent is not None:
        raise SeriesError(f"{tag} takes no exponent")

    if tag in ("sin", "cos"):
        s: list[float] = []
        co: list[float] = []
        for k in range(n + 1):
            s_k, co_k = sincos_term(c, s, co, k)
            s.append(s_k)
            co.append(co_k)
        return Series(tuple(s if tag == "sin" else co))

    term = elementary_term(tag)
    w = []
    for k in range(n + 1):
        w.append(term(c, w, k))
    return Series(tuple(w))


def compose_polynomial(outer: Iterable[float], inner: Series) -> Series:
    """Series of P(inner(t)) for a polynomial P given by its coefficients.

    ``inner`` must have a zero constant term; the composition is then exact
    through the truncation order.  Powers of ``inner`` are accumulated
    bottom-up (increasing degree) so that low-index output coefficients do
    not depend on the truncation order, which keeps solver output prefixes
    bit-identical across different truncation orders.
    """
    if inner.coeffs[0] != 0.0:
        raise SeriesError(
            "polynomial composition requires a zero constant term in the "
            f"inner series, got {inner.coeffs[0]!r}"
        )
    order = inner.trunc_order
    out = [0.0] * (order + 1)
    power = Series.constant(1.0, order)
    for k, coeff in enumerate(outer):
        if k > order:
            break
        if k > 0:
            power = power * inner
        for i, p in enumerate(power.coeffs):
            out[i] += coeff * p
    return Series(tuple(out))
