"""Complete symmetric functions sigma_{m,l}(y): one production form and
three independent cross-checks.

sigma_{m,l}(y) is the coefficient of T^(m-l) in the product of the
geometric series 1/(1 - T(y-j)^2) for j = 0..l.  Equivalently it is the
complete homogeneous symmetric polynomial of degree m-l in the squared
shifts (y-0)^2, ..., (y-l)^2, and it also has an explicit single-sum
expression whose denominator falling(2y, 1+2l) can vanish.

``sigma_row`` is the production form: the whole row l = 0..m for one y
from the complete-homogeneous recurrence, run in int.  For y = p/q in
lowest terms the row is kept as S_l = q^(2(m-l)) sigma_{m,l}(y), whose
recurrence has int coefficients (p - lq)^2, so sigma_{m,l} = S_l /
q^(2(m-l)).  The closed forms in ``moments`` read that int row through
``sigma_row_ints``.  ``sigma_series``, ``sigma_monomial`` and
``sigma_explicit`` are the three routes above, implemented
independently; their agreement with each other is enforced by tests and
by the verify command, and with ``sigma_row`` by the tests.
``sigma_series`` also builds a whole row per (m, y), from one running
product of geometric series, because its callers read every l at one y.
For y = p/q in lowest terms factor j is 1/(1 - T s_j / q^2), s_j =
(p - jq)^2, so coefficient k of the product over j <= l is the complete
homogeneous H_k(s_0, ..., s_l) / q^(2k), and entry l is
H_(m-l) / q^(2(m-l)).  The running product of the H_k is packed into one
int, the series evaluated at T = X = 2^b (Kronecker substitution;
Schoenhage, EUROCAM 1982), so each factor is one big-int product done in
C, not a loop over coefficients.  Evaluation at X maps a product of
series to the product of their values, and every coefficient is
nonnegative, so the product over j <= l reduced modulo X^(m-l+1) is
exactly sum_(k<=m-l) H_k X^k whenever each of those H_k is below X.
The width b = m * bitlen(S) + m + 1, S the largest s_j, ensures that for
every digit the row reads: H_k(s_0, ..., s_l) is a sum of C(k+l, l)
monomials of degree k, each at most S^k, and k + l <= m, so
H_k <= 2^(k+l) S^k <= 2^m 2^(m bitlen(S)) = 2^(b-1) < X.  The packed
product stays a product of series, one factor per shift; it is not
``sigma_row``'s recurrence h_k += s h_(k-1) in the H_k, so the two
routes share no code and a fault in either shows as a disagreement.

``sigma_monomial`` and ``sigma_explicit`` sum in int over a common
denominator and build one Fraction at the end, not one per product.
For y = p/q in lowest terms each squared shift is (p - kq)^2 / q^2, and
sigma_{m,l} is homogeneous of degree m-l in them, so every monomial has
denominator q^(2(m-l)).  In the explicit sum every factor is likewise an
int over a power of q (the binomials also over a factorial), so its
common denominator is l! q^(2m-l) D with D = prod_{j<=2l} (2p - jq) the
int numerator of falling(2y, 1+2l); the pole is D = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import DenominatorPole, DomainError, require_ints, require_rationals
from .exact import Scalar
from .series import Polynomial, poly_interpolate


def _check_args(m: int, ell: int, y: Scalar = 0) -> None:
    if type(m) is not int or type(ell) is not int:
        require_ints("sigma", m=m, l=ell)
    if type(y) is not int and type(y) is not Fraction:
        require_rationals("sigma", y=y)
    if m < 0 or not 0 <= ell <= m:
        raise DomainError(f"sigma requires 0 <= l <= m, got m={m}, l={ell}")


def sigma_row(m: int, y: Scalar) -> tuple[Fraction, ...]:
    """(sigma_{m,0}(y), ..., sigma_{m,m}(y)) in O(m^2) int steps.

    Row k comes from row k-1 by the complete-homogeneous recurrence
    sigma_{k,l} = sigma_{k-1,l-1} + (y-l)^2 sigma_{k-1,l} (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2), where terms with l
    outside 0..k-1 are 0 and sigma_{0,0} = 1.  It runs on the int row of
    ``sigma_row_ints``, and each entry is one Fraction S_l / q^(2(m-l)).
    """
    ints, q = sigma_row_ints(m, y)
    return tuple(Fraction(s, q ** (2 * (m - ell))) for ell, s in enumerate(ints))


def sigma_row_ints(m: int, y: Scalar) -> tuple[tuple[int, ...], int]:
    """((S_0, ..., S_m), q) with sigma_{m,l}(y) = S_l / q^(2(m-l)), y = p/q.

    Scaling row k by q^(2(k-l)) turns the recurrence into
    S_{k,l} = S_{k-1,l-1} + (p - lq)^2 S_{k-1,l} with S_{k,k} = 1: every
    step is an int product and no power of q appears inside the loop.
    """
    _check_args(m, 0, y=y)
    return _sigma_row(m, y)


# sigma_row_ints and sigma_series check their arguments before the cache
# sees them, so no warm entry answers True or 2.0 and an unhashable y
# raises DomainError.  Both caches hold one row per (m, y), keyed
# (m, y) for sigma_row and (m, p, q) with y = p/q in lowest terms for
# sigma_series; 4096 rows sit above the peaks of flagship verify (862
# sigma_series rows) and of the m <= 16, n <= 60 table (1080 sigma_row
# rows).
@lru_cache(maxsize=4096)
def _sigma_row(m: int, y: Scalar) -> tuple[tuple[int, ...], int]:
    p, q = y.numerator, y.denominator
    shifts = [(p - j * q) ** 2 for j in range(m + 1)]
    row = [1]  # S_{0,0}
    for k in range(1, m + 1):
        row = (
            [shifts[0] * row[0]]
            + [row[ell - 1] + shifts[ell] * row[ell] for ell in range(1, k)]
            + [1]  # S_{k,k} = 1
        )
    return tuple(row), q


def sigma_series(m: int, ell: int, y: Scalar) -> Fraction:
    """[T^(m-l)] of the truncated product of geometric((y-j)^2) for j = 0..l."""
    _check_args(m, ell, y=y)
    return _sigma_series(m, y.numerator, y.denominator)[ell]


@lru_cache(maxsize=4096)
def _sigma_series(m: int, p: int, q: int) -> tuple[Fraction, ...]:
    """The row (sigma_{m,l}(p/q))_{l=0..m} from the packed product of the
    module docstring: prod holds H_0..H_(m-l) after factor l, digit k at
    bit b*k.  Factor l truncated to order L = m - l is the geometric sum
    of x = s_l X, (x^(L+1) - 1) / (x - 1), so prod * (x^(L+1) - 1) divides
    exactly by x - 1; the digits above L are cut off after each factor,
    and a zero shift is the factor 1."""
    shifts = [(p - j * q) ** 2 for j in range(m + 1)]
    b = m * max(shifts).bit_length() + m + 1
    prod, row = 1, []  # the empty product
    for ell, s in enumerate(shifts):
        top = m - ell
        if s:
            prod = ((prod * s ** (top + 1) << b * (top + 1)) - prod) // ((s << b) - 1)
        prod &= (1 << b * (top + 1)) - 1
        row.append(Fraction(prod >> b * top, q ** (2 * top)))
    return tuple(row)


def sigma_monomial(m: int, ell: int, y: Scalar) -> Fraction:
    """Sum over weakly increasing tuples 0 <= k_1 <= ... <= k_{m-l} <= l
    of the products of squared shifts (y - k_i)^2; the empty tuple gives 1.

    Every product has m - l factors, so for y = p/q in lowest terms it is
    an int over q^(2(m-l)): each shift is (p - kq)^2 / q^2.  The sum runs
    over those int numerators and one Fraction is built at the end.
    """
    _check_args(m, ell, y=y)
    p, q = y.numerator, y.denominator
    shifts = [(p - k * q) ** 2 for k in range(ell + 1)]
    total = sum(map(math.prod, combinations_with_replacement(shifts, m - ell)))
    return Fraction(total, q ** (2 * (m - ell)))


def sigma_explicit(m: int, ell: int, y: Scalar) -> Fraction:
    """Single-sum form 2(-1)^l / falling(2y, 1+2l) * sum_i binomial(2y, i)
    * binomial(2l-2y, l-i) * (y-i)^(1+2m).

    For y = p/q in lowest terms every factor is an int over a power of q:
    binomial(2y, i) = A_i / (q^i i!) with A_i = prod_{j<i} (2p - jq),
    binomial(2l-2y, l-i) = B_i / (q^(l-i) (l-i)!) with
    B_i = prod_{j<l-i} (2lq - 2p - jq), (y-i)^(1+2m) = (p-iq)^(1+2m) /
    q^(1+2m) and falling(2y, 1+2l) = D / q^(1+2l) with
    D = prod_{j<=2l} (2p - jq).  So the value is
    2(-1)^l sum_i C(l, i) A_i B_i (p-iq)^(1+2m) / (l! q^(2m-l) D), summed
    in int with one Fraction built at the end.

    Only valid away from the zeros of falling(2y, 1+2l), that is D = 0;
    raises DenominatorPole there (for y = n a positive integer this is
    the condition n > l).
    """
    _check_args(m, ell, y=y)
    p, q = y.numerator, y.denominator
    den, a = 1, [1]  # a holds A_0, ..., A_(2l+1) = D
    for j in range(1 + 2 * ell):
        den *= 2 * p - j * q
        a.append(den)
    if den == 0:
        raise DenominatorPole(
            f"sigma_explicit({m}, {ell}, {y}): falling({2 * y}, {1 + 2 * ell}) = 0"
        )
    total, b, c, e = 0, 1, 1, 1 + 2 * m  # i runs down: B_l = C(l, l) = 1
    for i in range(ell, -1, -1):
        total += c * a[i] * b * (p - i * q) ** e
        b *= (ell + i) * q - 2 * p
        c = c * i // (ell - i + 1)
    return Fraction(2 * (-1) ** ell * total, math.factorial(ell) * q ** (2 * m - ell) * den)


def sigma_poly(m: int, ell: int) -> Polynomial:
    """sigma_{m,l} as a polynomial in y, of degree exactly 2(m-l).

    Interpolated from sigma_series samples at y = 0, 1, ..., 2(m-l), which
    are ints.  On these consecutive nodes ``poly_interpolate``'s Newton
    table has denominator k! at level k, so the interpolation runs in int
    and the result comes out as int numerators over one denominator.
    """
    _check_args(m, ell)
    deg = 2 * (m - ell)
    pts = [(Fraction(y), sigma_series(m, ell, Fraction(y))) for y in range(deg + 1)]
    return poly_interpolate(pts, deg)
