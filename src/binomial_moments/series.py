"""Truncated formal power series, dense polynomials, exact interpolation.

A TruncatedSeries is a formal power series in one variable T over
Rational, cut off at a fixed order M: only coefficients of T^0..T^M are
stored and arithmetic never looks past index M.  Polynomials are dense
coefficient lists (lowest degree first) in canonical form.  Both are
immutable value objects.

Every entry takes coefficients and arguments that are an int or a
Fraction (orders, exponents and indices an int) and raises DomainError
for anything else, bool, float and str included, so no binary value
enters the arithmetic.  The type is tested first and ``require_*`` is
called only to raise, which keeps the internal constructions cheap.
The arithmetic operators likewise raise DomainError when the other
operand, on either side, is not a series (a polynomial for
``Polynomial``).

A TruncatedSeries stores one int numerator per coefficient over one
positive int denominator, ``nums`` over ``den``, with gcd(den, *nums) = 1.
This form is canonical: den * c_k is an int for every k, so the lcm L of
the coefficients' denominators divides den, and den / L divides den and
every numerator c_k * den, hence is 1; equal series therefore store
equal ints, and equality and hashing read them directly.  The
arithmetic stays in int and divides out one gcd per result (Knuth, TAOCP
Vol. 2, 4.5.1): ``+`` and ``-`` rescale to the lcm of the two
denominators, ``scale`` multiplies in the scalar's numerator and
denominator, ``series_mul`` convolves the numerators over the product of
the denominators, ``geometric`` stores int powers and ``truncate``
slices.  A Fraction is built only when a coefficient is read.
The convolution is the one int kernel, ``_convolve``, which takes plain
int lists and checks nothing: ``series_mul`` calls it on the numerators
of two checked series, and ``sigma`` calls it directly on int lists it
has built, so both run the same truncated Cauchy product.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ConsistencyError,
    DomainError,
    DuplicateAbscissa,
    IndexOutOfOrder,
    OrderMismatch,
    require_ints,
    require_rationals,
)
from .exact import Scalar


def _rational(where: str, name: str, v: Scalar) -> Fraction:
    """v as a Fraction; DomainError naming it unless it is an int or a Fraction."""
    if type(v) is Fraction:
        return v
    if type(v) is not int:
        require_rationals(where, **{name: v})
    return Fraction(v)


def _require_iterable(where: str, coeffs: object) -> None:
    if type(coeffs) not in (list, tuple) and not isinstance(coeffs, abc.Iterable):
        raise DomainError(f"{where}: coefficients must be iterable, got {coeffs!r}")


def _require_operand(where: str, other: object, cls: type) -> None:
    if not isinstance(other, cls):
        raise DomainError(f"{where}: operand must be a {cls.__name__}, got {other!r}")


def _series(order: int, nums: Iterable[int], den: int) -> "TruncatedSeries":
    """The series sum_k nums[k] T^k / den, den > 0, brought to lowest terms."""
    g = math.gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    s = object.__new__(TruncatedSeries)
    s._store(order, tuple(nums), den)
    return s


@dataclass(frozen=True, init=False)
class TruncatedSeries:
    """Formal power series truncated at a fixed order.

    Coefficient k is nums[k] / den in the canonical form described in the
    module docstring; ``coeffs`` and ``coefficient`` read it as a Fraction.
    """

    order: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, order: int, coeffs: Iterable[Scalar]) -> None:
        if type(order) is not int:
            require_ints("TruncatedSeries", order=order)
        cs = coeffs
        if type(cs) is not tuple or not all(type(c) is Fraction for c in cs):
            _require_iterable("TruncatedSeries", cs)
            cs = tuple(_rational("TruncatedSeries", "coefficient", c) for c in cs)
        if order < 0:
            raise DomainError(f"series order must be >= 0, got {order}")
        if len(cs) != order + 1:
            raise DomainError(
                f"series of order {order} needs {order + 1} coefficients, got {len(cs)}"
            )
        # Over the lcm of the denominators the numerators are already
        # coprime to it (module docstring), so no gcd is taken.
        den = math.lcm(*[c.denominator for c in cs])
        self._store(order, tuple([c.numerator * (den // c.denominator) for c in cs]), den)

    def _store(self, order: int, nums: tuple[int, ...], den: int) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of T^0..T^order, one Fraction each."""
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar], order: int) -> "TruncatedSeries":
        """Build a series from a coefficient sequence, padding with zeros."""
        if type(order) is not int:
            require_ints("TruncatedSeries.from_coeffs", order=order)
        _require_iterable("TruncatedSeries.from_coeffs", coeffs)
        cs = [_rational("TruncatedSeries.from_coeffs", "coefficient", c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def constant(cls, c: Scalar, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([c], order)

    @classmethod
    def monomial(cls, k: int, order: int) -> "TruncatedSeries":
        """The series T^k (the zero series when k exceeds the order)."""
        if type(k) is not int or type(order) is not int:
            require_ints("TruncatedSeries.monomial", k=k, order=order)
        if k < 0:
            raise DomainError(f"monomial exponent must be >= 0, got {k}")
        if order < 0:
            raise DomainError(f"series order must be >= 0, got {order}")
        nums = [0] * (order + 1)
        if k <= order:
            nums[k] = 1
        return _series(order, nums, 1)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of T^k; raises IndexOutOfOrder outside 0..order."""
        if type(k) is not int:
            require_ints("TruncatedSeries.coefficient", k=k)
        if not 0 <= k <= self.order:
            raise IndexOutOfOrder(f"coefficient index {k} outside 0..{self.order}")
        return Fraction(self.nums[k], self.den)

    def truncate(self, order: int) -> "TruncatedSeries":
        """The same series cut off at a lower order, 0 <= order <= self.order."""
        if type(order) is not int:
            require_ints("TruncatedSeries.truncate", order=order)
        if not 0 <= order <= self.order:
            raise DomainError(f"truncation order {order} outside 0..{self.order}")
        return _series(order, self.nums[: order + 1], self.den)

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other over the lcm of the two denominators."""
        self._check_order(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return _series(self.order, [x * sa + y * sb for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _require_operand("TruncatedSeries.__add__", other, TruncatedSeries)
        return self._plus(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _require_operand("TruncatedSeries.__sub__", other, TruncatedSeries)
        return self._plus(other, -1)

    def __radd__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _require_operand("TruncatedSeries.__radd__", other, TruncatedSeries)
        return other + self

    def __rsub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _require_operand("TruncatedSeries.__rsub__", other, TruncatedSeries)
        return other - self

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "TruncatedSeries":
        c = _rational("TruncatedSeries.scale", "c", c)
        p = c.numerator
        return _series(self.order, [p * x for x in self.nums], self.den * c.denominator)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    ``_convolve(a.nums, b.nums)`` over a.den * b.den is the product; one
    gcd brings it to lowest terms and no Fraction is built.
    """
    _require_operand("series_mul", a, TruncatedSeries)
    _require_operand("series_mul", b, TruncatedSeries)
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    return _series(a.order, _convolve(a.nums, b.nums), a.den * b.den)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The first len(a) coefficients of the product of the int lists a and
    b, len(b) >= len(a): a truncated Cauchy product, no gcd, no Fraction."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            out[i:] = [o + x * y for o, y in zip(out[i:], b)]
    return out


def geometric(c: Scalar, order: int) -> TruncatedSeries:
    """Truncation of 1/(1 - cT): coefficient of T^k is c^k.

    For c = p/q in lowest terms it is stored as p^k q^(M-k) over q^M, M
    the order: int powers, no Fraction per coefficient.
    """
    if type(order) is not int:
        require_ints("geometric", order=order)
    c = _rational("geometric", "c", c)
    if order < 0:
        raise DomainError(f"series order must be >= 0, got {order}")
    p, q = c.numerator, c.denominator
    return _series(order, [p**k * q ** (order - k) for k in range(order + 1)], q**order)


class Polynomial:
    """Univariate polynomial over Rational, dense, lowest degree first.

    Canonical form: no trailing zero coefficients except for the zero
    polynomial, which is stored as the single coefficient 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = (0,)):
        _require_iterable("Polynomial", coeffs)
        cs = [_rational("Polynomial", "coefficient", c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def __call__(self, x: Scalar) -> Fraction:
        x = _rational("Polynomial", "x", x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _require_operand("Polynomial.__add__", other, Polynomial)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        _require_operand("Polynomial.__sub__", other, Polynomial)
        return self + other.scale(-1)

    def __radd__(self, other: "Polynomial") -> "Polynomial":
        _require_operand("Polynomial.__radd__", other, Polynomial)
        return other + self

    def __rsub__(self, other: "Polynomial") -> "Polynomial":
        _require_operand("Polynomial.__rsub__", other, Polynomial)
        return other - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "Polynomial":
        c = _rational("Polynomial.scale", "c", c)
        return Polynomial([c * a for a in self.coeffs])

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and self.degree > 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*y")
            else:
                parts.append(f"{c}*y^{i}")
        return " + ".join(parts) if parts else "0"


def poly_interpolate(
    points: Sequence[tuple[Scalar, Scalar]], degree_bound: int
) -> Polynomial:
    """Exact polynomial through the first degree_bound+1 points.

    Uses Newton divided differences over Rational.  All abscissae must be
    distinct; any points beyond the first degree_bound+1 must lie on the
    resulting polynomial, otherwise ConsistencyError is raised.
    """
    if type(degree_bound) is not int:
        require_ints("poly_interpolate", degree_bound=degree_bound)
    if degree_bound < 0:
        raise DomainError(f"degree bound must be >= 0, got {degree_bound}")
    try:
        pts = [
            (_rational("poly_interpolate", "x", x), _rational("poly_interpolate", "y", y))
            for x, y in points
        ]
    except (TypeError, ValueError):  # points not iterable, or a point not a pair
        raise DomainError(f"poly_interpolate needs (x, y) pairs, got {points!r}") from None
    seen = set()
    for x, _ in pts:
        if x in seen:
            raise DuplicateAbscissa(f"repeated abscissa {x}")
        seen.add(x)
    need = degree_bound + 1
    if len(pts) < need:
        raise DomainError(f"need at least {need} points for degree bound {degree_bound}")

    base = pts[:need]
    xs = [x for x, _ in base]
    # Newton divided-difference table, one diagonal at a time.
    coefs = [y for _, y in base]
    for level in range(1, need):
        for i in range(need - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - level])
    # Expand the Newton form into the monomial basis.
    poly = Polynomial([coefs[-1]])
    for i in range(need - 2, -1, -1):
        poly = poly * Polynomial([-xs[i], 1]) + Polynomial([coefs[i]])

    for x, y in pts[need:]:
        got = poly(x)
        if got != y:
            raise ConsistencyError(
                f"point ({x}, {y}) off the degree-{degree_bound} interpolant (expected {got})"
            )
    return poly
