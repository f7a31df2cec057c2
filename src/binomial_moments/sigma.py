"""Complete symmetric functions sigma_{m,l}(y): one production form and
three independent cross-checks.

sigma_{m,l}(y) is the coefficient of T^(m-l) in the product of the
geometric series 1/(1 - T(y-j)^2) for j = 0..l.  Equivalently it is the
complete homogeneous symmetric polynomial of degree m-l in the squared
shifts (y-0)^2, ..., (y-l)^2, and it also has an explicit single-sum
expression whose denominator falling(2y, 1+2l) can vanish.

``sigma_row`` is the production form: the whole row l = 0..m for one y
from the complete-homogeneous recurrence, which the closed forms in
``moments`` read.  ``sigma_series``, ``sigma_monomial`` and
``sigma_explicit`` are the three routes above, implemented
independently; their agreement with each other is enforced by tests and
by the verify command, and with ``sigma_row`` by the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations_with_replacement

from .errors import DenominatorPole, DomainError, require_ints, require_rationals
from .exact import Scalar, binomial, falling
from .series import Polynomial, geometric, poly_interpolate, series_mul


def _check_args(m: int, ell: int, **scalars: Scalar) -> None:
    require_ints("sigma", m=m, l=ell)
    require_rationals("sigma", **scalars)
    if m < 0 or not 0 <= ell <= m:
        raise DomainError(f"sigma requires 0 <= l <= m, got m={m}, l={ell}")


# Both caches are typed: True and 2.0 get no hit on the entries of 1 and 2,
# so the argument check runs for them even when the cache is warm.  Their
# sizes sit above the peaks of flagship verify and of the m <= 16, n <= 60
# table (4287 sigma_series entries, 1080 rows).
@lru_cache(maxsize=4096, typed=True)
def sigma_row(m: int, y: Scalar) -> tuple[Fraction, ...]:
    """(sigma_{m,0}(y), ..., sigma_{m,m}(y)) in O(m^2) rational steps.

    Row k comes from row k-1 by the complete-homogeneous recurrence
    sigma_{k,l} = sigma_{k-1,l-1} + (y-l)^2 sigma_{k-1,l} (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2), where terms with l
    outside 0..k-1 are 0 and sigma_{0,0} = 1.
    """
    _check_args(m, 0, y=y)
    y = Fraction(y)
    shifts = [(y - j) ** 2 for j in range(m + 1)]
    row = [Fraction(1)]  # sigma_{0,0}
    for k in range(1, m + 1):
        row = (
            [shifts[0] * row[0]]
            + [row[ell - 1] + shifts[ell] * row[ell] for ell in range(1, k)]
            + [row[k - 1]]  # sigma_{k,k} = sigma_{k-1,k-1} = 1
        )
    return tuple(row)


@lru_cache(maxsize=16384, typed=True)
def sigma_series(m: int, ell: int, y: Scalar) -> Fraction:
    """[T^(m-l)] of the truncated product of geometric((y-j)^2) for j = 0..l."""
    _check_args(m, ell, y=y)
    y = Fraction(y)
    prod = reduce(series_mul, (geometric((y - j) ** 2, m) for j in range(ell + 1)))
    return prod.coefficient(m - ell)


def sigma_monomial(m: int, ell: int, y: Scalar) -> Fraction:
    """Sum over weakly increasing tuples 0 <= k_1 <= ... <= k_{m-l} <= l
    of the products of squared shifts (y - k_i)^2; the empty tuple gives 1.
    """
    _check_args(m, ell, y=y)
    y = Fraction(y)
    shifts = [(y - k) ** 2 for k in range(ell + 1)]
    total = Fraction(0)
    for tup in combinations_with_replacement(range(ell + 1), m - ell):
        total += math.prod((shifts[k] for k in tup), start=Fraction(1))
    return total


def sigma_explicit(m: int, ell: int, y: Scalar) -> Fraction:
    """Single-sum form 2(-1)^l / falling(2y, 1+2l) * sum_i binomial(2y, i)
    * binomial(2l-2y, l-i) * (y-i)^(1+2m).

    Only valid away from the zeros of falling(2y, 1+2l); raises
    DenominatorPole there (for y = n a positive integer this is the
    condition n > l).
    """
    _check_args(m, ell, y=y)
    y = Fraction(y)
    den = falling(2 * y, 1 + 2 * ell)
    if den == 0:
        raise DenominatorPole(
            f"sigma_explicit({m}, {ell}, {y}): falling({2 * y}, {1 + 2 * ell}) = 0"
        )
    total = Fraction(0)
    for i in range(ell + 1):
        total += binomial(2 * y, i) * binomial(2 * ell - 2 * y, ell - i) * (y - i) ** (1 + 2 * m)
    return 2 * (-1) ** ell * total / den


def sigma_poly(m: int, ell: int) -> Polynomial:
    """sigma_{m,l} as a polynomial in y, of degree exactly 2(m-l).

    Interpolated from sigma_series samples at y = 0, 1, ..., 2(m-l).
    """
    _check_args(m, ell)
    deg = 2 * (m - ell)
    pts = [(Fraction(y), sigma_series(m, ell, Fraction(y))) for y in range(deg + 1)]
    return poly_interpolate(pts, deg)
