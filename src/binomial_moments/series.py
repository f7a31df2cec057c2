"""Truncated formal power series, dense polynomials, exact interpolation.

A TruncatedSeries is a formal power series in one variable T over the
rationals, cut off at a fixed order M: only coefficients of T^0..T^M are
stored and arithmetic never looks past index M.  A Polynomial is dense,
lowest degree first.  Both are frozen dataclasses.  ``_poly_text`` is
the one plain-text printer of a coefficient list, in a variable it is
given: ``str`` of a Polynomial writes it in y, and ``moments``' ansatz
descriptions in n.

Every entry takes coefficients and arguments that are an int or a
Fraction (orders, exponents and indices an int) and raises DomainError
for anything else, bool, float and str included, so no binary value
enters the arithmetic.  Coefficient lists and interpolation points must
come in order: a mapping, a set and str, bytes or bytearray are refused
(``errors.is_ordered``); ``poly_interpolate`` gives its one "needs (x, y)
pairs" message for anything that is not an ordered iterable of pairs.
The type is tested first and ``require_*`` is called only to raise,
which keeps the internal constructions cheap.  The arithmetic operators
likewise raise DomainError when the other operand, on either side, is
not a series (a polynomial for ``Polynomial``).

Both classes store one int numerator per coefficient over one positive
int denominator, ``nums`` over ``den``, with gcd(den, *nums) = 1; a
Polynomial also has no trailing zero numerator, and zero is (0,) over 1.
This form is canonical: den * c_k is an int for every k, so the lcm L of
the coefficients' denominators divides den, and den / L divides den and
every numerator c_k * den, hence is 1; equal values therefore store
equal ints, and equality and hashing read them directly.  The private
base class ``_IntOverDen`` holds the code of this form that both share
(``coeffs``, ``+``, ``-``, their refusals, ``scale``), and each class
supplies two hooks: ``_like`` builds a canonical value of its own kind,
and ``_pairs`` pairs two numerator lists (``zip`` after the one order
check ``_check_orders`` for a series, ``zip_longest`` for a polynomial).
``_over_lcm`` is the package's one conversion of ints and Fractions to
int numerators over their lcm: both constructors, the nodes and values
of ``poly_interpolate``, the coefficients of ``moments``' printed forms
and of ``conjecture``'s candidates, and ``solve_exact``'s non-int rows
go through it.  The arithmetic stays in int and divides out one gcd per
result, in the one lowest-terms step ``_lowest`` (Knuth, TAOCP Vol. 2,
4.5.1): ``+`` and ``-`` rescale to the lcm of the two denominators,
``scale`` multiplies in the scalar's numerator and denominator, products
convolve the numerators over the product of the denominators,
``geometric`` stores int powers and ``truncate`` slices.  A Polynomial
is evaluated at p/q by Horner's rule in int.  A Fraction is built only
when a coefficient or a value is read.

The convolution is the one int kernel, ``_convolve``, which takes plain
int lists and checks nothing: ``series_mul`` calls it on the numerators
of two checked series, ``Polynomial`` on its numerators zero-padded to
the product's length, so the truncated product is the whole one, and
``sigma`` calls it directly on int lists it has built, so all three run
the same Cauchy product.

``poly_interpolate`` runs Newton's divided differences fraction-free:
with the nodes as ints over their lcm, each level of the table has one
int denominator, the previous one times the lcm of that level's node
gaps (k! at level k for consecutive integer nodes), and the Newton form
is expanded by int Horner steps and reduced once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, NoReturn, Sequence, TypeVar

from .errors import (
    ConsistencyError,
    DomainError,
    DuplicateAbscissa,
    IndexOutOfOrder,
    OrderMismatch,
    is_ordered,
    require_ints,
    require_ordered,
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


def _refuse_operand(where: str, other: object, cls: type) -> NoReturn:
    raise DomainError(f"{where}: operand must be a {cls.__name__}, got {other!r}")


def _require_operand(where: str, other: object, cls: type) -> None:
    if not isinstance(other, cls):
        _refuse_operand(where, other, cls)


def _lowest(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums over den > 0 with gcd(den, *nums) divided out: the one
    lowest-terms step of ``TruncatedSeries`` and ``Polynomial``."""
    g = math.gcd(den, *nums)
    if g != 1:
        return tuple([x // g for x in nums]), den // g
    return tuple(nums), den


def _over_lcm(cs: Iterable[Scalar]) -> tuple[list[int], int]:
    """The ints and Fractions cs as int numerators over their lcm, no gcd
    taken, each read once; ([], 1) for none (module docstring)."""
    pairs = [c.as_integer_ratio() for c in cs]
    den = math.lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


def _require_order(order: int) -> None:
    if order < 0:
        raise DomainError(f"series order must be >= 0, got {order}")


def _check_orders(a: "TruncatedSeries", b: "TruncatedSeries") -> None:
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")


_V = TypeVar("_V", bound="_IntOverDen")


class _IntOverDen:
    """The code of the int-over-den form that ``TruncatedSeries`` and
    ``Polynomial`` share; each supplies ``_like`` and ``_pairs`` (module docstring)."""

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, lowest power first, one Fraction each."""
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    def _refuse(self, op: str, other: object) -> NoReturn:
        _refuse_operand(f"{type(self).__name__}.{op}", other, type(self))

    def _plus(self: _V, other: _V, sign: int, op: str) -> _V:
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, type(self)):
            self._refuse(op, other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return self._like([x * sa + y * sb for x, y in self._pairs(other)], den)

    def __add__(self: _V, other: _V) -> _V:
        return self._plus(other, 1, "__add__")

    def __sub__(self: _V, other: _V) -> _V:
        return self._plus(other, -1, "__sub__")

    # Python calls a reflected operator only after other's own __add__ or
    # __sub__ declined, so other is never of this kind here: both refuse.
    def __radd__(self, other: object) -> NoReturn:
        self._refuse("__radd__", other)

    def __rsub__(self, other: object) -> NoReturn:
        self._refuse("__rsub__", other)

    def __rmul__(self: _V, other: Scalar) -> _V:
        return self.scale(other)

    def scale(self: _V, c: Scalar) -> _V:
        c = _rational(f"{type(self).__name__}.scale", "c", c)
        p = c.numerator
        return self._like([p * x for x in self.nums], self.den * c.denominator)


def _series(order: int, nums: Sequence[int], den: int) -> "TruncatedSeries":
    """The series sum_k nums[k] T^k / den, den > 0, brought to lowest terms."""
    s = object.__new__(TruncatedSeries)
    s._store(order, *_lowest(nums, den))
    return s


@dataclass(frozen=True, init=False)
class TruncatedSeries(_IntOverDen):
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
        require_ordered("TruncatedSeries", "coefficients", coeffs)
        cs = [_rational("TruncatedSeries", "coefficient", c) for c in coeffs]
        _require_order(order)
        if len(cs) != order + 1:
            raise DomainError(
                f"series of order {order} needs {order + 1} coefficients, got {len(cs)}"
            )
        nums, den = _over_lcm(cs)
        self._store(order, tuple(nums), den)

    def _store(self, order: int, nums: tuple[int, ...], den: int) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _like(self, nums: Sequence[int], den: int) -> "TruncatedSeries":
        return _series(self.order, nums, den)

    def _pairs(self, other: "TruncatedSeries") -> Iterable[tuple[int, int]]:
        _check_orders(self, other)
        return zip(self.nums, other.nums)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar], order: int) -> "TruncatedSeries":
        """Build a series from a coefficient sequence, padding with zeros."""
        if type(order) is not int:
            require_ints("TruncatedSeries.from_coeffs", order=order)
        require_ordered("TruncatedSeries.from_coeffs", "coefficients", coeffs)
        cs = [_rational("TruncatedSeries.from_coeffs", "coefficient", c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, cs)

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
        _require_order(order)
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

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_mul(self, other)
        return self.scale(other)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    ``_convolve(a.nums, b.nums)`` over a.den * b.den is the product; one
    gcd brings it to lowest terms and no Fraction is built.
    """
    _require_operand("series_mul", a, TruncatedSeries)
    _require_operand("series_mul", b, TruncatedSeries)
    _check_orders(a, b)
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
    _require_order(order)
    p, q = c.numerator, c.denominator
    return _series(order, [p**k * q ** (order - k) for k in range(order + 1)], q**order)


def _polynomial(nums: list[int], den: int) -> "Polynomial":
    """The polynomial sum_k nums[k] y^k / den, den > 0, in canonical form."""
    p = object.__new__(Polynomial)
    p._store(nums, den)
    return p


@dataclass(frozen=True, init=False, repr=False)
class Polynomial(_IntOverDen):
    """Univariate polynomial over the rationals, dense, lowest degree first.

    Coefficient k is nums[k] / den in the canonical form described in the
    module docstring; ``coeffs`` reads the coefficients as Fractions.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Sequence[Scalar] = (0,)):
        require_ordered("Polynomial", "coefficients", coeffs)
        self._store(*_over_lcm([_rational("Polynomial", "coefficient", c) for c in coeffs]))

    def _store(self, nums: list[int], den: int) -> None:
        while len(nums) > 1 and not nums[-1]:
            nums.pop()
        nums, den = _lowest(nums or [0], den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _like(self, nums: list[int], den: int) -> "Polynomial":
        return _polynomial(nums, den)

    def _pairs(self, other: "Polynomial") -> Iterable[tuple[int, int]]:
        return zip_longest(self.nums, other.nums, fillvalue=0)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def leading(self) -> Fraction:
        return Fraction(self.nums[-1], self.den)

    def is_zero(self) -> bool:
        return self.nums == (0,)

    def __call__(self, x: Scalar) -> Fraction:
        """The value at x = p/q: Horner's rule in int on
        sum_k nums[k] p^k q^(d-k), d the degree, over q^d den."""
        x = _rational("Polynomial", "x", x)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, qk // q * self.den)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        a, b = self.nums, other.nums
        # Padded to the product's length, the truncated product is the whole one.
        return _polynomial(
            _convolve([*a, *[0] * (len(b) - 1)], [*b, *[0] * (len(a) - 1)]),
            self.den * other.den,
        )

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return _poly_text(self.coeffs, "y")


def _poly_text(coeffs: Sequence[Scalar], var: str) -> str:
    """sum_i coeffs[i] var^i as plain text: each nonzero coefficient c as
    "c", "c*var" or "c*var^i", lowest degree first, joined by " + "; "0"
    when every coefficient is zero."""
    parts = [
        str(c) if i == 0 else f"{c}*{var}" if i == 1 else f"{c}*{var}^{i}"
        for i, c in enumerate(coeffs)
        if c
    ]
    return " + ".join(parts) or "0"


def poly_interpolate(
    points: Sequence[tuple[Scalar, Scalar]], degree_bound: int
) -> Polynomial:
    """Exact polynomial through the first degree_bound+1 points.

    Uses Newton divided differences over the rationals, run in int.  All
    abscissae must be distinct; any points beyond the first degree_bound+1
    must lie on the resulting polynomial, otherwise ConsistencyError is
    raised.

    With the first d+1 nodes written x_i = X_i / s over their lcm s and the
    values as ints over their lcm, the divided differences of level k
    are c_i = s^k N_i / D_k: level k's numerators are
    N_i = (N_i - N_(i-1)) * (L_k / (X_i - X_(i-k))) over the previous
    level's, and D_k = D_(k-1) L_k, L_k the lcm of level k's node gaps.
    So each level has one int denominator, and no gcd is taken; for the
    consecutive integer nodes 0..d, D_k = k! times the values' lcm.  As
    x - x_i = (z - X_i) / s with z = s x, the Newton form is Q(z) / D_d,
    where Q = sum_k N_k (D_d / D_k) prod_(i<k) (z - X_i) is expanded by
    Horner steps of the form nums * (z - X_i) in int.  Coefficient j of
    the interpolant is Q_j s^j / D_d, brought to lowest terms once.
    """
    if type(degree_bound) is not int:
        require_ints("poly_interpolate", degree_bound=degree_bound)
    if degree_bound < 0:
        raise DomainError(f"degree bound must be >= 0, got {degree_bound}")

    def not_pairs() -> DomainError:
        return DomainError(f"poly_interpolate needs (x, y) pairs, got {points!r}")

    if not is_ordered(points):
        raise not_pairs()
    pts = []
    try:
        for pair in points:
            if not is_ordered(pair):
                raise not_pairs()
            x, y = pair
            pts.append(
                (_rational("poly_interpolate", "x", x), _rational("poly_interpolate", "y", y))
            )
    except (TypeError, ValueError):  # a point not a pair, or an iterator that fails
        raise not_pairs() from None
    seen = set()
    for x, _ in pts:
        if x in seen:
            raise DuplicateAbscissa(f"repeated abscissa {x}")
        seen.add(x)
    need = degree_bound + 1
    if len(pts) < need:
        raise DomainError(f"need at least {need} points for degree bound {degree_bound}")

    xs, s = _over_lcm([x for x, _ in pts[:need]])
    # Newton divided-difference table, one diagonal at a time; nums[k]
    # ends as N_k over dens[k] = D_k.
    nums, den = _over_lcm([y for _, y in pts[:need]])
    dens = [den]
    for level in range(1, need):
        gaps = [xs[i] - xs[i - level] for i in range(level, need)]
        lk = math.lcm(*gaps)
        for i in range(need - 1, level - 1, -1):
            nums[i] = (nums[i] - nums[i - 1]) * (lk // gaps[i - level])
        dens.append(dens[-1] * lk)
    # Expand the Newton form into the monomial basis of z = s y.
    top = dens[-1]
    q = [nums[-1]]
    for i in range(need - 2, -1, -1):
        xi = xs[i]
        q = [nums[i] * (top // dens[i]) - xi * q[0], *[a - xi * b for a, b in zip(q, q[1:])], q[-1]]
    poly = _polynomial([c * s**j for j, c in enumerate(q)], top)

    for x, y in pts[need:]:
        got = poly(x)
        if got != y:
            raise ConsistencyError(
                f"point ({x}, {y}) off the degree-{degree_bound} interpolant (expected {got})"
            )
    return poly
