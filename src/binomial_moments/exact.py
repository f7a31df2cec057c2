"""Exact scalar kernel: rationals, Pochhammer symbols, binomials, brackets.

Every scalar in this package is an arbitrary-precision rational.  The
stdlib ``fractions.Fraction`` already guarantees the invariants we need
(always in lowest terms, positive denominator, exact arithmetic,
division by zero raises), so it is used directly and re-exported as
``Rational``.  Arguments must be an int or a Fraction (indices an int);
anything else, bool and float included, raises ``DomainError``.

The Pochhammer symbols build one Fraction per returned value.  For
x = p/q in lowest terms and n >= 0, x(x+1)...(x+n-1) is the int product
of p + iq over q^n (p - iq for the falling one), so the factors are
multiplied as ints and the quotient is normalised once; a product of
Fractions would take a gcd at every factor (Knuth, TAOCP Vol. 2, 4.5.1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import DomainError, NegativeIndexPole, require_ints, require_rationals

Rational = Fraction

Scalar = Union[Fraction, int]

HALF = Fraction(1, 2)


def rising(x: Scalar, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1), with the empty product equal to 1.

    For n >= 0 and x = p/q in lowest terms this is prod_{i<n} (p + iq) / q^n.

    For n < 0 the value is extended by 1 / rising(x - |n|, |n|), the unique
    choice satisfying rising(x, a+b) = rising(x, a) * rising(x+a, b).

    Raises NegativeIndexPole when n < 0 and x is one of 1..|n| (the
    extension would divide by zero).
    """
    if type(n) is not int:
        require_ints("rising", n=n)
    if type(x) is not int and type(x) is not Fraction:
        require_rationals("rising", x=x)
    if n >= 0:
        if type(x) is int:
            return Fraction(math.prod(range(x, x + n)))
        p, q = x.numerator, x.denominator
        return Fraction(math.prod(p + i * q for i in range(n)), q**n)
    x = Fraction(x)
    k = -n
    den = rising(x - k, k)
    if den == 0:
        raise NegativeIndexPole(
            f"rising({x}, {n}) undefined: x in {{1, ..., {k}}} makes the extension divide by zero"
        )
    return 1 / den


def falling(x: Scalar, n: int) -> Fraction:
    """Falling factorial x(x-1)...(x-n+1); empty product 1.

    For n >= 0 and x = p/q in lowest terms this is prod_{i<n} (p - iq) / q^n.

    For n < 0 extends by 1 / falling(x + |n|, |n|); raises
    NegativeIndexPole when x is one of -1..-|n|.
    """
    if type(n) is not int:
        require_ints("falling", n=n)
    if type(x) is not int and type(x) is not Fraction:
        require_rationals("falling", x=x)
    if n >= 0:
        if type(x) is int:
            return Fraction(math.prod(range(x, x - n, -1)))
        p, q = x.numerator, x.denominator
        return Fraction(math.prod(p - i * q for i in range(n)), q**n)
    x = Fraction(x)
    k = -n
    den = falling(x + k, k)
    if den == 0:
        raise NegativeIndexPole(
            f"falling({x}, {n}) undefined: x in {{-1, ..., -{k}}} makes the extension divide by zero"
        )
    return 1 / den


def binomial(x: Scalar, k: int) -> Fraction:
    """Generalized binomial coefficient falling(x, k) / k!, with 0 for k < 0."""
    if type(k) is not int:
        require_ints("binomial", k=k)
    if type(x) is not int and type(x) is not Fraction:
        require_rationals("binomial", x=x)
    if k < 0:
        return Fraction(0)
    x = Fraction(x)
    if x.denominator == 1 and x >= 0:
        xi = int(x)
        return Fraction(math.comb(xi, k)) if k <= xi else Fraction(0)
    return falling(x, k) / math.factorial(k)


# Only brackets with a negative upper index get here.
@lru_cache(maxsize=256)
def _rising_half(n: int) -> Fraction:
    """rising(1/2, n) for any integer n; never zero, never a pole.

    Closed forms: (1/2)_j = (2j)! / (4^j j!) and (1/2)_{-j} = (-4)^j j! / (2j)!
    for j >= 0 (the Pochhammer ``rising`` stays as the cross-check).
    """
    j = abs(n)
    num, den = math.factorial(2 * j), 4**j * math.factorial(j)
    return Fraction(num, den) if n >= 0 else Fraction((-1) ** j * den, num)


def bracket(upper: int, lower: int) -> Fraction:
    """Half-integer analogue of the binomial coefficient.

    bracket(n, k) = (1/2)_n / ((1/2)_k (1/2)_{n-k}) where (1/2)_j is the
    rising factorial at 1/2, extended to negative j.  Both arguments may
    be any integers: since 1/2 is never a positive integer the extension
    has no poles, so the defining quotient is total.

    For 0 <= k <= n it equals C(2n, 2k) / C(n, k) and is computed that
    way.  Proof: (1/2)_j = (2j)! / (4^j j!), and in the quotient the powers
    4^n / (4^k 4^(n-k)) cancel, leaving (2n)! k! (n-k)! / ((2k)! (2n-2k)! n!).

    For n >= 0 and k >= 1, [n, -k] is a product of k small factors:
    (1/2)_(n+k) = (1/2)_n (n+1/2)_k, so [n, -k] = 1 / ((1/2)_(-k) (n+1/2)_k)
    = (2k)! 2^k / ((-4)^k k! prod_{i<k} (2n+1+2i))
    = (-1)^k prod_{i<k} (2i+1) / prod_{i<k} (2n+1+2i),
    using (1/2)_(-k) = (-4)^k k! / (2k)! and (n+1/2)_k = prod_{i<k} (2n+1+2i) / 2^k.
    [n, n+k] = [n, -k] by the symmetry k <-> n-k of the quotient.  A
    negative upper index takes the Pochhammer quotient.
    """
    if type(upper) is not int or type(lower) is not int:
        require_ints("bracket", upper=upper, lower=lower)
    if 0 <= lower <= upper:
        return Fraction(math.comb(2 * upper, 2 * lower), math.comb(upper, lower))
    if upper >= 0:
        k = -lower if lower < 0 else lower - upper
        odd = math.prod(range(1, 2 * k, 2))
        return Fraction((-1) ** k * odd, math.prod(range(2 * upper + 1, 2 * upper + 2 * k, 2)))
    return _rising_half(upper) / (_rising_half(lower) * _rising_half(upper - lower))


def central_binomial(n: int) -> Fraction:
    """Binomial coefficient (2n choose n) for n >= 0."""
    if type(n) is not int:
        require_ints("central_binomial", n=n)
    if n < 0:
        raise DomainError(f"central_binomial requires n >= 0, got {n}")
    return Fraction(math.comb(2 * n, n))
