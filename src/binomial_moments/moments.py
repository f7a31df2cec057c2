"""Four families of binomial moment sums: what the formulas are, and their values.

Families (full exponent m >= 0, size n >= 1; C(,) is the ordinary
binomial, [,] the half-integer bracket from .exact):

    A_m(n) = sum_{k=1}^n              C(2n, n-k) k^m
    B_m(n) = sum_{k=1}^n (-1)^(k-1)   C(2n, n-k) k^m
    C_m(n) = sum_{k=1}^n (-1)^(k-1)   [2n, n-k]  k^m
    D_m(n) = sum_{k=1}^n              [2n, n-k]  k^m

Three evaluation routes are provided and cross-verified:

* ``oracle``          -- the defining sum, always available, trusted ground truth;
* ``closed_form``     -- telescoping identities expressing the sums through the
                         complete symmetric functions sigma_{t,l} (one identity
                         per family/parity; none is known for D at even m > 0,
                         which stays an open case);
* ``corollary_value`` -- the printed simplified formulas for small exponents,
                         each with its validity guard.

The printed formulas live in one table, ``COROLLARIES``: each entry is a
``PrintedForm``, an ``Ansatz`` (a sum of structured terms
prefactor(n) * poly(n) / prod(a*n + b)) with exact coefficients.  Its
value, its LaTeX and the coefficients that ``conjecture`` must recover
when it refits the formula from oracle data all derive from that record.
The prefactor vocabulary -- 1, (-1)^n, C(2n,n), [2n,n] and 2^(2n+c) -- is
one table, ``_PREFACTOR``, that gives each prefactor at n as an int pair
(num, den) with den > 0, plus its plain text and LaTeX.
``Ansatz.basis_row`` gives the basis at n >= 1 as ints over one
denominator from those pairs, and ``Ansatz.value`` evaluates an ansatz
at int coefficients over one denominator from that row, building the
one Fraction of the ansatz layer; the coefficients come over their lcm
from ``series._over_lcm``.  A printed formula and a fitted
candidate (``conjecture.ClosedFormCandidate.value_at``) are both
evaluated through it.  How formulas are fitted lives in ``conjecture``.

Two of the closed-form identities admit more than one plausible reading
(a shifted vs unshifted symmetric-function argument for odd C, and a
sign placement for odd D and even C).  All variants are implemented
behind keyword switches; the default is the reading that agrees with
the oracle, and the ``verify`` report records the evidence.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import (
    DomainError,
    GuardViolated,
    NoClosedFormKnown,
    NotTabulated,
    PreconditionViolated,
    require_ints,
    require_ordered,
    require_rationals,
)
from .exact import Scalar, binomial, bracket, falling
from .series import _over_lcm, _poly_text
from .sigma import sigma_row, sigma_row_ints, sigma_series

FAMILIES = ("A", "B", "C", "D")
METHODS = ("oracle", "theorem", "corollary")


@dataclass(frozen=True)
class MomentQuery:
    """One moment evaluation request: family, full exponent m, size n."""

    family: str
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}, got {self.family!r}")
        require_ints("MomentQuery", exponent=self.m, size=self.n)
        if self.m < 0:
            raise DomainError(f"exponent must be >= 0, got {self.m}")
        if self.n < 1:
            raise DomainError(f"size must be >= 1, got {self.n}")


@dataclass(frozen=True)
class EvalResult:
    """Exact value plus the route that produced it."""

    value: Fraction
    method: str
    validity_note: Optional[str] = None


# Where oracle starts to split A and B, and the most terms a leaf walks.
# Median time of the split over the whole walk, interleaved, over m in
# {1, 2, 8, 9, 12} (2-core VM, Python 3.11): 1.05-1.12x at n = 512,
# 0.97-0.98x at 768, 0.87-0.88x at 1024 and 0.71-0.76x at 2048, and 1.28x
# over m <= 16, n <= 60, where the tables and verify stay.  C and D split
# at every n: below _LEAF terms the split is one leaf over the walk's own
# den, and from n = 33 on it was measured faster (0.93x at n = 48).
_SPLIT_FROM_AB = 1024
_LEAF = 32


# Above the 4080 cells of an m <= 16, n <= 60 table (flagship verify: 1189).
@lru_cache(maxsize=8192)
def oracle(q: MomentQuery) -> Fraction:
    """Evaluate the defining sum directly with exact arithmetic.

    The weights w_k (the binomial or bracket times a denominator den) are
    stepped from k = n down to k = 1 by one rule, w_{k-1} = w_k r_k with

        r_k = (s(n+k) - s + 1) / (s(n-k) + 1),

    s = 1 for A and B (w_k = C(2n, n-k) from w_n = 1) and s = 2 for C and D
    (w_k = den [2n, n-k] from w_n = den).  With (1/2)_j = (2j-1)!! / 2^j,
    [2n, n-k] = (4n-1)!! / ((2n-2k-1)!! (2n+2k-1)!!), so the product of the
    steps' denominators over k = 1..n, den = (2n-1)!!, makes every C and D
    weight an integer; for A and B it is n!.

    The sum is taken by binary splitting over k (``_split``; Haible and
    Papanikolaou, ANTS-III, 1998): each run of k returns (P, Q, T), the
    products of its steps' numerators and denominators and its partial sum
    scaled by Q, and two runs merge in a few products of numbers about as
    long as the run, so most products stay small where a whole walk
    multiplies every term at full size.  A leaf walks at most ``_LEAF``
    terms (``_walk``) from w = Q.  C and D split at every n; A and B are
    one walk from w = 1 below n = 1024 (``_SPLIT_FROM_AB``), because their
    weights are only 2n bits long and the split's T carries n! on top of
    them.  The value is T / Q, an exact int quotient for A and B.

    The oracle reads nothing from another module of the package: the
    theorem route it is checked against builds its brackets in ``exact``.

    A non-MomentQuery raises DomainError, checked on cache misses only; an
    unhashable argument fails in the cache first, with TypeError.
    """
    if not isinstance(q, MomentQuery):
        raise DomainError(f"oracle needs a MomentQuery, got {q!r}")
    f, m, n = q.family, q.m, q.n
    s = 1 if f in ("A", "B") else 2
    alternating = f in ("B", "C")
    if s == 1 and n < _SPLIT_FROM_AB:
        return Fraction(_walk(s, alternating, m, n, n, 1, 1)[0])
    _, den, total = _split(s, alternating, m, n, n, 1)
    return Fraction(total // den) if s == 1 else Fraction(total, den)


def _walk(s: int, alternating: bool, m: int, n: int, hi: int, lo: int, w: int) -> tuple[int, int]:
    """(the signed sum of w_k k^m over k = hi..lo, w_{lo-1}), from w_hi = w.

    w must make every step exact: a den of the whole sum from k = n, or the
    product of the run's own step denominators."""
    total = 0
    a, b = s * (n + hi) - s + 1, s * (n - hi) + 1
    for k in range(hi, lo - 1, -1):
        term = w * k**m
        total += -term if alternating and k % 2 == 0 else term
        w = w * a // b
        a -= s
        b += s
    return total, w


def _split(
    s: int, alternating: bool, m: int, n: int, hi: int, lo: int
) -> tuple[Optional[int], int, int]:
    """(P, Q, T) over k = hi..lo: P and Q the products of the steps'
    numerators and denominators, T / Q the signed sum of
    k^m prod_{k<j<=hi} r_j.

    A leaf walks from w = Q, so each step is exact and the walk ends at
    w = P.  Two runs, hi..mid and mid-1..lo, merge as
    (P1 P2, Q1 Q2, T1 Q2 + P1 T2), so P2 is read only to build P.  A run
    down to lo = 1 is never a higher half, and its P is None."""
    if hi - lo < _LEAF:
        den = math.prod(range(s * (n - hi) + 1, s * (n - lo) + 2, s))
        total, num = _walk(s, alternating, m, n, hi, lo, den)
        return (num if lo > 1 else None), den, total
    mid = (hi + lo + 1) // 2
    p1, q1, t1 = _split(s, alternating, m, n, hi, mid)
    p2, q2, t2 = _split(s, alternating, m, n, mid - 1, lo)
    return (p1 * p2 if lo > 1 else None), q1 * q2, t1 * q2 + p1 * t2


# ---------------------------------------------------------------------------
# Closed forms, one per family/parity.  t is the half exponent: even sums
# have m = 2t, odd sums m = 2t + 1.  Each evaluator fetches the int row
# S_l = q^(2(t-l)) sigma_{t,l}(y), y = p/q, once from sigma_row_ints (one
# O(t^2) recurrence, cached per (t, y)), sums its t + 1 terms in int over
# one common denominator and builds one Fraction per value.  For y = n
# (A, B) every term is an int.  For y = n - 1/2 (C, D) the powers of 2
# from falling(2n - 1/2, 2l), (1/2)_l (1/2)_{l+1} and q^(2(t-l)) combine
# into one power of 2 per form, and the bracket and linear denominators
# are folded into a running denominator.  The row is total in y, so no
# pole bookkeeping is needed here.
# ---------------------------------------------------------------------------


def _check_half_exponent(where: str, t: int, n: int) -> None:
    if type(t) is not int or type(n) is not int:
        require_ints(where, t=t, n=n)
    if t < 0 or n < 1:
        raise DomainError(f"{where} requires t >= 0 and n >= 1, got t={t}, n={n}")


def _bracket_ints(upper: int, lower: int) -> tuple[int, int]:
    """[upper, lower] as an int pair (num, den): C(2u, 2k), C(u, k) in the
    range 0 <= k <= u where ``bracket`` uses that quotient, else the
    numerator and denominator of ``bracket``."""
    if 0 <= lower <= upper:
        return math.comb(2 * upper, 2 * lower), math.comb(upper, lower)
    b = bracket(upper, lower)
    return b.numerator, b.denominator


def _diagonal_brackets(n: int, t: int) -> list[tuple[int, int]]:
    """The diagonal brackets [2n-2l, n-l] for l = 0..t, as int pairs
    (num, den) not in lowest terms.

    [2n, n] comes once from ``_bracket_ints``; each next bracket is one
    step down the diagonal.  With u = n - l and [2u, u] = (1/2)_{2u} / (1/2)_u^2,
    the rule (1/2)_j = (1/2)_{j-1} (j - 1/2) gives
    [2u-2, u-1] = [2u, u] (2u-1)^2 / ((4u-1)(4u-3)).  The rule holds for
    every integer j in the extension to negative indices, so the step also
    holds for u <= 0 (odd D reaches it when n <= t), and (4u-1)(4u-3) is
    never 0.  Each step multiplies by small ints only; ``_sum_over`` folds
    the growing denominators by lcm.
    """
    num, den = _bracket_ints(2 * n, n)
    out = [(num, den)]
    for u in range(n, n - t, -1):
        num *= (2 * u - 1) ** 2
        den *= (4 * u - 1) * (4 * u - 3)
        out.append((num, den))
    return out


def _sum_over(terms: Iterable[tuple[int, int]], scale: int) -> Fraction:
    """The sum of num / den over the (num, den) int pairs, divided by scale,
    as one Fraction.  The running denominator is the lcm of the dens so
    far: at large n the diagonal brackets' dens share most of their
    factors, and a plain product would make the final gcd dearer."""
    total, den = 0, 1
    for num, d in terms:
        g = math.gcd(den, d)
        total, den = total * (d // g) + num * (den // g), den * (d // g)
    return Fraction(total, den * scale)


def even_moment_a(t: int, n: int) -> Fraction:
    """A_{2t}(n) = sum_l (-1)^l 2^(2n-2l-1) falling(2n, 2l) sigma_{t,l}(n), t >= 1.

    Summed as ints 4^(n-l) falling(2n, 2l) sigma_{t,l}(n) over 2; the terms
    with l > n vanish.
    """
    _check_half_exponent("even_moment_a", t, n)
    row, _ = sigma_row_ints(t, n)
    total = 0
    for ell in range(min(t, n) + 1):
        term = math.perm(2 * n, 2 * ell) * row[ell] << 2 * (n - ell)
        total += -term if ell % 2 else term
    return Fraction(total, 2)


def odd_moment_a(t: int, n: int) -> Fraction:
    """A_{2t+1}(n) = C(2n,n)/2 * sum_l (-1)^l falling(n,l) falling(n,l+1) sigma_{t,l}(n).

    Every term is an int, and the terms with l >= n vanish.
    """
    _check_half_exponent("odd_moment_a", t, n)
    row, _ = sigma_row_ints(t, n)
    total = 0
    for ell in range(min(t, n - 1) + 1):
        term = math.perm(n, ell) * math.perm(n, ell + 1) * row[ell]
        total += -term if ell % 2 else term
    return Fraction(math.comb(2 * n, n) * total, 2)


def even_moment_b(t: int, n: int) -> Fraction:
    """B_{2t}(n) = (-1)^(n-1)/2 * sum_l falling(2n,2l) C(l, 2n-l) sigma_{t,l}(n), t >= 1.

    C(l, 2n-l) vanishes unless n <= l <= 2n, so every summand vanishes for
    n > t, which is the vanishing phenomenon the verify command checks on
    a grid.
    """
    _check_half_exponent("even_moment_b", t, n)
    row, _ = sigma_row_ints(t, n)
    total = 0
    for ell in range(n, min(t, 2 * n) + 1):
        total += math.perm(2 * n, 2 * ell) * math.comb(ell, 2 * n - ell) * row[ell]
    return Fraction(total if n % 2 else -total, 2)


def odd_moment_b(t: int, n: int) -> Fraction:
    """B_{2t+1}(n) = sum_l (-1)^l falling(2n,2l) C(2n-2l-2, n-l-1) sigma_{t,l}(n).

    Every term is an int, and the terms with l >= n vanish.  The central
    binomials C(2k, k), k = n-l-1, come from one ``math.comb`` at k = n-1,
    then one exact int step down the diagonal per l, as in
    ``_diagonal_brackets``: C(2k-2, k-1) = C(2k, k) k / (2(2k-1)).
    """
    _check_half_exponent("odd_moment_b", t, n)
    row, _ = sigma_row_ints(t, n)
    total = 0
    central = math.comb(2 * n - 2, n - 1)  # C(2k, k) at k = n - 1
    for ell in range(min(t, n - 1) + 1):
        k = n - ell - 1
        term = math.perm(2 * n, 2 * ell) * central * row[ell]
        total += -term if ell % 2 else term
        central = central * k // (4 * k - 2)  # at k = 0, the last l, 0 and unused
    return Fraction(total)


def even_moment_c(t: int, n: int, global_sign: bool = True) -> Fraction:
    """C_{2t}(n) from the second printed bracket form, t >= 1.

    Summand (argument y = n - 1/2):

        (1/2)_l (1/2)_{l+1} / (2n-2l-1) * [2n, l] * sigma_{t,l}(y)

    The first printed form is ``c_even_first_form``; only the verify check
    ``c-even-two-bracket-forms`` evaluates it and compares the two.

    The sign convention is switchable: ``global_sign=True`` multiplies the
    whole sum by (-1)^n (the reading that matches the oracle everywhere,
    see the verify report); ``False`` alternates (-1)^l per summand.

    With (1/2)_l = (2l-1)!! / 2^l and sigma_{t,l}(y) = S_l / 4^(t-l), every
    summand is (2l-1)!! (2l+1)!! S_l [2n, l] / (2n-2l-1) over 2^(2t+1).
    """
    _check_half_exponent("even_moment_c", t, n)
    row, _ = sigma_row_ints(t, Fraction(2 * n - 1, 2))

    def terms():
        odd_fact = 1  # (2l-1)!!
        for ell in range(t + 1):
            bn, bd = _bracket_ints(2 * n, ell)
            num = odd_fact * odd_fact * (2 * ell + 1) * row[ell] * bn
            if (n if global_sign else ell) % 2:  # (-1)^n on every term, or (-1)^l
                num = -num
            yield num, (2 * n - 2 * ell - 1) * bd
            odd_fact *= 2 * ell + 1

    return _sum_over(terms(), 2 << 2 * t)


def odd_moment_c(t: int, n: int, shifted_sigma: bool = True) -> Fraction:
    """C_{2t+1}(n) for n > t + 1.

    (1/8) sum_l (-1)^l falling(2n-1/2, 2l) *
        { (2n-2l-1)/(n-l-1) [2n-2l, n-l] + (-1)^n (2n+1)(2l+1)/(n-l-1) [2n-2l, -l] }
        * sigma_{t,l}(y)

    ``shifted_sigma`` selects the symmetric-function argument: y = n - 1/2
    (True; the reading that matches the oracle) or y = n (False).

    falling(2n-1/2, 2l) = F_l / 4^l with F_l = prod_{i<2l} (4n-1-2i), and
    sigma_{t,l}(y) = S_l / q^(2(t-l)) with q = 2 or 1, so with c = 2/q every
    summand carries c^(2(t-l)) over the common 8 * 4^t.  The diagonal
    brackets [2n-2l, n-l] come from ``_diagonal_brackets``: [2n, n] once,
    then one exact step of small int factors per l.  [2n-2l, -l] is a
    product of l small factors (see ``exact.bracket``).
    """
    _check_half_exponent("odd_moment_c", t, n)
    if n <= t + 1:
        raise PreconditionViolated(f"odd C closed form requires n > {t + 1}, got n={n}")
    y = Fraction(2 * n - 1, 2) if shifted_sigma else Fraction(n)
    row, q = sigma_row_ints(t, y)
    c2 = (2 // q) ** 2
    sign_n = -1 if n % 2 else 1

    def terms():
        f = 1  # F_l
        for ell, (an, ad) in enumerate(_diagonal_brackets(n, t)):
            bn, bd = _bracket_ints(2 * n - 2 * ell, -ell)
            inner = (2 * n - 2 * ell - 1) * an * bd
            inner += sign_n * (2 * n + 1) * (2 * ell + 1) * bn * ad
            num = f * inner * row[ell] * c2 ** (t - ell)
            yield -num if ell % 2 else num, ad * bd * (n - ell - 1)
            f *= (4 * n - 1 - 4 * ell) * (4 * n - 3 - 4 * ell)

    return _sum_over(terms(), 8 << 2 * t)


def odd_moment_d(t: int, n: int, sign_first_term_only: bool = True) -> Fraction:
    """D_{2t+1}(n) = sum_l falling(2n-1/2, 2l) *
        { (-1)^l (2n-2l-1)/4 [2n-2l, n-l] + (2l+1)/4 / [2n-l, l] } * sigma_{t,l}(n-1/2).

    ``sign_first_term_only`` pins where the alternating sign sits: on the
    diagonal bracket term only (True; matches the oracle) or on both terms
    (False).

    falling(2n-1/2, 2l) = F_l / 4^l with F_l = prod_{i<2l} (4n-1-2i) and
    sigma_{t,l}(n-1/2) = S_l / 4^(t-l), so every summand is over 4^(t+1).
    The diagonal brackets [2n-2l, n-l] come from ``_diagonal_brackets``:
    [2n, n] once, then one exact step of small int factors per l, also
    past the diagonal's origin (n - l <= 0) when n <= t.
    """
    _check_half_exponent("odd_moment_d", t, n)
    row, _ = sigma_row_ints(t, Fraction(2 * n - 1, 2))

    def terms():
        f = 1  # F_l
        for ell, (an, ad) in enumerate(_diagonal_brackets(n, t)):
            bn, bd = _bracket_ints(2 * n - ell, ell)
            first = (2 * n - 2 * ell - 1) * an * bn
            second = (2 * ell + 1) * bd * ad
            if ell % 2:
                first = -first
                if not sign_first_term_only:
                    second = -second
            yield f * (first + second) * row[ell], ad * bn
            f *= (4 * n - 1 - 4 * ell) * (4 * n - 3 - 4 * ell)

    return _sum_over(terms(), 4 << 2 * t)


def closed_form(q: MomentQuery) -> EvalResult:
    """Dispatch to the family/parity closed form, with validity guards.

    The even-power identities need exponent >= 2: they symmetrise the sum
    over -n..n, which only eliminates the k = 0 term when the power is
    positive.  Odd C needs n > t + 1 (denominators n - l - 1).  Even D has
    no known closed form and raises NoClosedFormKnown.
    """
    if not isinstance(q, MomentQuery):
        raise DomainError(f"closed_form needs a MomentQuery, got {q!r}")
    f, m, n = q.family, q.m, q.n
    if m % 2 == 0:
        t = m // 2
        if f == "D":
            raise NoClosedFormKnown(
                "no closed form is known for even-power D moments; the case is open"
            )
        if t == 0:
            raise PreconditionViolated(
                "even-power closed forms require exponent >= 2 "
                "(the k = 0 term of the symmetrised sum vanishes only then)"
            )
        note = "even-power identity, valid for exponent >= 2"
        value = {"A": even_moment_a, "B": even_moment_b, "C": even_moment_c}[f](t, n)
        return EvalResult(value, "theorem", note)
    t = (m - 1) // 2
    if f == "C":
        value = odd_moment_c(t, n)  # raises PreconditionViolated when n <= t + 1
        return EvalResult(value, "theorem", f"valid for n > {t + 1}")
    value = {"A": odd_moment_a, "B": odd_moment_b, "D": odd_moment_d}[f](t, n)
    return EvalResult(value, "theorem", None)


# ---------------------------------------------------------------------------
# Standalone identity checks.
# ---------------------------------------------------------------------------


def _over(v: Fraction, den: int) -> tuple[int, int]:
    """(k, e) with v = k / (den * e).  e = 1 when v's denominator divides
    den, as every sigma entry the residual checks read does; any other v
    keeps its own denominator in e, so a residual is exact whatever its
    sigma route returns."""
    k, r = divmod(den, v.denominator)
    if r:
        return v.numerator * den, v.denominator
    return v.numerator * k, 1


def lambda_check(m: int, n: int) -> Fraction:
    """Residual of the vanishing identity

        sum_{l=0}^m (-1)^l falling(2n-1/2, 2l) [2n-2l, n-l] sigma_{m,l}(n-1/2) = [T^m] [2n, n]

    The right side is the constant bracket [2n, n] seen as a power series,
    so its T^m coefficient is [2n, n] for m = 0 and 0 for m >= 1.  The
    returned residual (left minus right) is 0 for every m >= 0, n >= 1.

    falling(2n-1/2, 2l) = F_l / 4^l with F_l = prod_{i<2l} (4n-1-2i), and
    sigma_{m,l}(n-1/2) (from ``sigma_series``) is an int over 4^(m-l), so
    term l is an int over 4^m times the bracket's denominator (the bracket
    from ``exact.bracket``).  The terms are summed as int pairs over 4^m
    and one Fraction is built.
    """
    require_ints("lambda_check", m=m, n=n)
    if m < 0 or n < 1:
        raise DomainError(f"lambda_check requires m >= 0 and n >= 1, got m={m}, n={n}")
    y = Fraction(2 * n - 1, 2)
    terms = []
    g = 1  # F_l
    for ell in range(m + 1):
        k, e = _over(sigma_series(m, ell, y), 4 ** (m - ell))
        b = bracket(2 * n - 2 * ell, n - ell)
        t = g * k * b.numerator
        terms.append((-t if ell % 2 else t, e * b.denominator))
        g *= (4 * n - 1 - 4 * ell) * (4 * n - 3 - 4 * ell)
    if m == 0:
        b = bracket(2 * n, n)
        terms.append((-b.numerator, b.denominator))
    return _sum_over(terms, 4**m)


def lemma1_residual(m: int, x: Scalar, y: Scalar) -> Fraction:
    """Residual of the even-power expansion over shifted factorial pairs:

        x^(2m) - sum_{l=0}^m (-1)^l falling(y+x, l) falling(y-x, l) sigma_{m,l}(y)

    Identically 0 for every m >= 0 and all rational x, y.

    For x = a/b and y = c/d in lowest terms write y +- x = u+- / w with
    w = bd, so falling(y+-x, l) = prod_{j<l} (u+- - jw) / w^l, and
    sigma_{m,l}(y) (from ``sigma_series``) is an int over d^(2(m-l)).
    Every term, x^(2m) included, is then an int over w^(2m) d^(2m); they
    are summed in int and one Fraction is built.
    """
    require_ints("lemma1_residual", m=m)
    require_rationals("lemma1_residual", x=x, y=y)
    if m < 0:
        raise DomainError(f"lemma1_residual requires m >= 0, got {m}")
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    w = b * d
    up, um = c * b + a * d, c * b - a * d
    w2, d2m = w * w, d ** (2 * m)
    # x^(2m) = a^(2m) / b^(2m) = a^(2m) d^(4m) / (w^(2m) d^(2m))
    terms = [(a ** (2 * m) * d2m * d2m, 1)]
    f = 1  # prod_{j<l} (u+ - jw)(u- - jw)
    for ell in range(m + 1):
        k, e = _over(sigma_series(m, ell, y), d2m)
        t = f * k * w2 ** (m - ell)
        terms.append((t if ell % 2 else -t, e))
        f *= (up - ell * w) * (um - ell * w)
    return _sum_over(terms, w2**m * d2m)


# ---------------------------------------------------------------------------
# The printed simplified formulas (the corollary table), stored once as
# ansatz records; see the module docstring.
# ---------------------------------------------------------------------------

def _power2_ints(n: int, c: int) -> tuple[int, int]:
    e = 2 * n + c
    return (1 << e, 1) if e >= 0 else (1, 1 << -e)


# Each prefactor as (int pair (num, den) at n >= 1 and shift c, den > 0 and
# the pair not always in lowest terms; plain text; LaTeX).  In both texts
# "{c}" stands for the shift c of 2^(2n+c): "" when c = 0, else signed.
_PREFACTOR = {
    "unit": (lambda n, c: (1, 1), "1", ""),
    "sign": (lambda n, c: (-1 if n % 2 else 1, 1), "(-1)^n", "(-1)^n"),
    "central": (lambda n, c: (math.comb(2 * n, n), 1), "binom(2n,n)", r"\binom{2n}{n}"),
    "bracket": (lambda n, c: _bracket_ints(2 * n, n), "[2n,n]", r"\genfrac{[}{]}{0pt}{}{2n}{n}"),
    "power2": (_power2_ints, "2^(2n{c})", "2^{2n{c}}"),
}
PREFACTORS = tuple(_PREFACTOR)


@dataclass(frozen=True)
class AnsatzTerm:
    """One structured term: prefactor * poly(deg<=degree) / prod(a*n+b)."""

    prefactor: str
    degree: int
    roots: tuple[tuple[int, int], ...] = ()
    shift: int = 0  # only for power2: the c in 2^(2n+c)

    def __post_init__(self) -> None:
        if self.prefactor not in PREFACTORS:
            raise DomainError(f"unknown prefactor {self.prefactor!r}")
        require_ints("AnsatzTerm", degree=self.degree, shift=self.shift)
        if self.shift and self.prefactor != "power2":
            raise DomainError(f"AnsatzTerm: only power2 takes a shift, got {self.shift!r}")
        if self.degree < 0:
            raise DomainError(f"degree must be >= 0, got {self.degree}")
        if type(self.roots) is not tuple:
            raise DomainError(f"AnsatzTerm: roots must be a tuple of (a, b), got {self.roots!r}")
        for root in self.roots:
            if type(root) is not tuple or len(root) != 2:
                raise DomainError(f"AnsatzTerm: a root must be a pair (a, b), got {root!r}")
            a, b = root
            if type(a) is not int or type(b) is not int:
                require_ints("AnsatzTerm", root_a=a, root_b=b)
            if a == 0:
                raise DomainError(f"a root a*n + b needs a != 0, got {(a, b)}")

    def prefactor_texts(self) -> tuple[str, str]:
        """The prefactor as (plain text, LaTeX), with its shift filled in."""
        _, text, tex = _PREFACTOR[self.prefactor]
        c = f"{self.shift:+d}" if self.shift else ""
        return text.replace("{c}", c), tex.replace("{c}", c)

    def root_product(self, n: int) -> int:
        out = 1
        for a, b in self.roots:
            out *= a * n + b
        return out

    def excluded_ns(self) -> set[int]:
        """Positive integers where a denominator root vanishes."""
        out = set()
        for a, b in self.roots:
            if (-b) % a == 0 and -b // a >= 1:
                out.add(-b // a)
        return out

    def describe(self, coeffs: Optional[Sequence[Fraction]] = None) -> str:
        """The term's shape in plain text, or the term itself given its coefficients."""
        pf = self.prefactor_texts()[0]
        poly = f"poly(deg<={self.degree})" if coeffs is None else f"({_poly_text(coeffs, 'n')})"
        s = f"{pf} * {poly}"
        if self.roots:
            den = " ".join(f"({_poly_text((b, a), 'n')})" for a, b in self.roots)
            s += f" / {den}"
        return s


@dataclass(frozen=True)
class Ansatz:
    """A sum of at most three structured terms."""

    terms: tuple[AnsatzTerm, ...]

    def __post_init__(self) -> None:
        terms = self.terms
        if type(terms) is not tuple or any(type(t) is not AnsatzTerm for t in terms):
            raise DomainError(f"an ansatz needs a tuple of AnsatzTerm, got {terms!r}")
        if not 1 <= len(terms) <= 3:
            raise DomainError(f"an ansatz has 1..3 terms, got {len(terms)}")

    @property
    def unknowns(self) -> int:
        return sum(t.degree + 1 for t in self.terms)

    def basis_row(self, n: int) -> tuple[list[int], int]:
        """The basis at n >= 1 over one denominator: (ints, den) with den > 0.

        Term t with prefactor pair (P, Q) from ``_PREFACTOR`` and root
        product r contributes the basis values P n^j / (Q r), j = 0..degree.
        den is the lcm over the terms of Q |r|, so each basis value is
        ints[j] / den and no Fraction is built.
        """
        if type(n) is not int:
            require_ints("Ansatz.basis_row", n=n)
        if n < 1:
            raise DomainError(f"Ansatz.basis_row requires n >= 1, got {n}")
        parts = []
        den = 1
        for t in self.terms:
            p, q = _PREFACTOR[t.prefactor][0](n, t.shift)
            r = t.root_product(n)
            if not r:
                raise DomainError(f"n={n} hits a denominator root of {t.describe()}")
            d = q * abs(r)
            parts.append((t.degree, -p if r < 0 else p, d))
            den = math.lcm(den, d)
        ints: list[int] = []
        for degree, x, d in parts:
            x *= den // d
            ints.append(x)
            for _ in range(degree):
                x *= n
                ints.append(x)
        return ints, den

    def value(self, nums: Sequence[int], n: int, den: int = 1) -> Fraction:
        """The ansatz at n with coefficients nums[j] / den, as one Fraction.

        nums run over the terms in order, each term's lowest degree first.
        The sum of nums[j] * ints[j] over ``basis_row(n)`` is taken in int.
        """
        require_ordered("Ansatz.value", "coefficients", nums, abc.Sequence)
        ints, row_den = self.basis_row(n)
        if len(nums) != len(ints) or set(map(type, nums)) != {int}:
            raise DomainError(f"Ansatz.value: needs {len(ints)} int coefficients, got {nums!r}")
        if type(den) is not int or den < 1:
            raise DomainError(f"Ansatz.value: den must be a positive int, got {den!r}")
        return Fraction(sum(map(operator.mul, ints, nums)), row_den * den)

    def excluded_ns(self) -> set[int]:
        out: set[int] = set()
        for t in self.terms:
            out |= t.excluded_ns()
        return out

    def describe(self) -> str:
        return "  +  ".join(t.describe() for t in self.terms)


def _odd_roots(count: int, first: int) -> tuple[tuple[int, int], ...]:
    """((2, -first), (2, -first-2), ...) -- denominators (2n-first)(2n-first-2)..."""
    return tuple((2, -(first + 2 * i)) for i in range(count))


def _int_roots(count: int) -> tuple[tuple[int, int], ...]:
    """((1, -1), ..., (1, -count)) -- denominators (n-1)...(n-count)."""
    return tuple((1, -j) for j in range(1, count + 1))


def family_ansatz(family: str, parity: str, t: int) -> Optional[Ansatz]:
    """The structural shape of a family's closed forms for half exponent t.

    Every printed formula with m >= 1 has this shape; it extends to any
    int t >= 0.  Returns None for even D (open).  Any other argument
    raises DomainError.
    """
    if family not in FAMILIES or parity not in ("even", "odd") or type(t) is not int or t < 0:
        raise DomainError(f"family_ansatz({family!r}, {parity!r}, {t!r}): no such shape")
    if family == "A" and parity == "even":
        return Ansatz((AnsatzTerm("power2", t, shift=-(1 + t)),))
    if family == "A" and parity == "odd":
        return Ansatz((AnsatzTerm("central", t + 1),))
    if family == "B" and parity == "even":
        return Ansatz((AnsatzTerm("central", 1),))  # the zero formula for n > t
    if family == "B" and parity == "odd":
        return Ansatz((AnsatzTerm("central", t + 1, roots=_odd_roots(t + 1, 1)),))
    if family == "C" and parity == "even":
        return Ansatz((AnsatzTerm("sign", max(3 * t - 1, 0), roots=_odd_roots(t, 3)),))
    if family == "C" and parity == "odd":
        return Ansatz(
            (
                AnsatzTerm("sign", 3 * t + 1, roots=_int_roots(t + 1)),
                AnsatzTerm("bracket", t + 1, roots=_int_roots(t + 1)),
            )
        )
    if family == "D" and parity == "odd":
        return Ansatz((AnsatzTerm("bracket", t + 1), AnsatzTerm("unit", 2 * t)))
    return None


def _power_tex(i: int) -> str:
    return "" if i == 0 else "n" if i == 1 else f"n^{i}" if i < 10 else f"n^{{{i}}}"


def _poly_tex(coeffs: Sequence[int]) -> str:
    """An integer polynomial, lowest degree first, as LaTeX highest degree first."""
    text = ""
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c:
            digits = str(abs(c)) if abs(c) != 1 or i == 0 else ""
            text += ("-" if c < 0 else "+") + digits + _power_tex(i)
    return text.lstrip("+") or "0"


def _term_tex(term: AnsatzTerm, num: tuple[int, ...], den: int) -> str:
    """One nonzero term, led by its sign: prefactor * num(n) / (den * roots(n))."""
    low = next(i for i, c in enumerate(num) if c)
    top = max(i for i, c in enumerate(num) if c)
    sign = -1 if num[top] < 0 else 1
    rest = [sign * c for c in num[low : top + 1]]  # num = sign * n^low * rest(n)
    if len(rest) == 1:
        text = ("" if rest[0] == 1 and low else str(rest[0])) + _power_tex(low)
    elif low:
        text = f"{_power_tex(low)}({_poly_tex(rest)})"
    else:
        text = _poly_tex(rest)
    pf = term.prefactor_texts()[1]
    lead = "-" if sign < 0 else "+"
    if den != 1 or term.roots:
        below = (str(den) if den != 1 else "") + "".join(
            f"({_poly_tex((b, a))})" for a, b in term.roots
        )
        return lead + pf + rf"\frac{{{text}}}{{{below}}}"
    if text == "1":
        return lead + (pf or "1")
    bare_sum = len(rest) > 1 and not low
    return lead + pf + (f"({text})" if pf and bare_sum else text)


@dataclass(frozen=True)
class PrintedForm:
    """One printed simplified formula: an ansatz with exact coefficients.

    For n >= min_n, term i contributes
    prefactor(n) * numerators[i](n) / (denominators[i] * roots(n)), with
    numerators lowest degree first.  ``points`` holds printed values (n, v)
    that replace the ansatz at single n, such as B_2's chi(n=1).
    """

    family: str
    power: int
    ansatz: Ansatz
    numerators: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]
    min_n: int = 1
    points: tuple[tuple[int, int], ...] = ()

    # The expected coefficients over their lcm (``series._over_lcm``), as
    # ``Ansatz.value`` takes them.
    _coeffs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = self.ansatz.terms
        if not len(terms) == len(self.numerators) == len(self.denominators):
            raise DomainError(f"{self.label}: one numerator and denominator per term")
        for term, num, den in zip(terms, self.numerators, self.denominators):
            if len(num) != term.degree + 1 or den < 1:
                raise DomainError(
                    f"{self.label}: {term.describe()} needs {term.degree + 1} numerator "
                    f"coefficients and a positive denominator, got {num} / {den}"
                )
        coeffs, scale = _over_lcm(self.expected)
        object.__setattr__(self, "_coeffs", tuple(coeffs))
        object.__setattr__(self, "_scale", scale)

    @property
    def label(self) -> str:
        return f"{self.family}{self.power}"

    @property
    def expected(self) -> tuple[Fraction, ...]:
        """The coefficients that fitting the ansatz must recover."""
        return tuple(
            Fraction(c, den) for num, den in zip(self.numerators, self.denominators) for c in num
        )

    @property
    def region_note(self) -> Optional[str]:
        """Where the ansatz alone gives the printed value, unless that is every n >= 1."""
        start = max([self.min_n] + [k + 1 for k, _ in self.points])
        if not any(map(any, self.numerators)):
            return f"value 0, valid for n > {start - 1}"
        return f"valid for n > {start - 1}" if start > 1 else None

    def value(self, n: int) -> Fraction:
        """The printed value at n; the guard n >= min_n is the caller's to check."""
        if type(n) is not int:
            require_ints("PrintedForm.value", n=n)
        for k, v in self.points:
            if n == k:
                return Fraction(v)
        return self.ansatz.value(self._coeffs, n, self._scale)

    def latex(self) -> str:
        """LaTeX source of the formula (assumes amsmath)."""
        text = "".join(
            _term_tex(term, num, den)
            for term, num, den in zip(self.ansatz.terms, self.numerators, self.denominators)
            if any(num)
        )
        for k, v in self.points:
            diff = v - self.ansatz.value(self._coeffs, k, self._scale)
            if diff:
                q = abs(diff)
                scale = "" if q == 1 else rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}"
                text += ("-" if diff < 0 else "+") + scale + rf"\chi(n={k})"
        return text.lstrip("+") or "0"


def _form(
    family: str,
    m: int,
    *terms: tuple[tuple[int, ...], int],
    min_n: int = 1,
    points: tuple[tuple[int, int], ...] = (),
    ansatz: Optional[Ansatz] = None,
) -> PrintedForm:
    """A printed formula from one (numerator, denominator) pair per term of
    its family's shape (``family_ansatz``) unless an ansatz is given."""
    if ansatz is None:
        ansatz = family_ansatz(family, "odd" if m % 2 else "even", m // 2)
    numerators = tuple(num for num, _ in terms)
    denominators = tuple(den for _, den in terms)
    return PrintedForm(family, m, ansatz, numerators, denominators, min_n, points)


# One (numerator, denominator) pair per term of the family's shape, each
# numerator expanded and lowest degree first.  For example A_4(n) is
# 2^(2n-3) (-n + 3n^2), and C_1(n), on two terms over the root n - 1, is
# (-1)^n (1 + 2n) / (8(n-1)) + [2n,n] (-1 + 2n) / (8(n-1)).
COROLLARIES: dict[tuple[str, int], PrintedForm] = {
    (pf.family, pf.power): pf
    for pf in (
        _form(
            "A", 0, ((1,), 1), ((-1,), 2),
            ansatz=Ansatz((AnsatzTerm("power2", 0, shift=-1), AnsatzTerm("central", 0))),
        ),
        _form("A", 1, ((0, 1), 2)),
        _form("A", 2, ((0, 1), 1)),
        _form("A", 3, ((0, 0, 1), 2)),
        _form("A", 4, ((0, -1, 3), 1)),
        _form("A", 5, ((0, 0, -1, 2), 2)),
        _form("A", 6, ((0, 4, -15, 15), 1)),
        _form("A", 7, ((0, 0, 3, -8, 6), 2)),
        _form("A", 8, ((0, -34, 147, -210, 105), 1)),
        _form("A", 9, ((0, 0, -17, 54, -60, 24), 2)),
        _form("A", 10, ((0, 496, -2370, 4095, -3150, 945), 1)),
        _form("B", 0, ((1,), 2), ansatz=Ansatz((AnsatzTerm("central", 0),))),
        _form("B", 1, ((0, 1), 2)),
        _form("B", 2, ((0, 0), 1), points=((1, 1),)),
        _form("B", 3, ((0, 0, -1), 2)),
        _form("B", 5, ((0, 0, -1, 4), 2)),
        _form("B", 7, ((0, 0, -5, 24, -34), 2)),
        _form("B", 9, ((0, 0, -63, 344, -672, 496), 2)),
        # The even-B sums vanish identically past the exponent: 0 for n > m/2.
        *(_form("B", m, ((0, 0), 1), min_n=m // 2 + 1) for m in range(4, 17, 2)),
        _form(
            "C", 0, ((1,), 2), ((1,), 2),
            ansatz=Ansatz(
                (AnsatzTerm("bracket", 0), AnsatzTerm("sign", 0, roots=_odd_roots(1, 1)))
            ),
        ),
        _form("C", 1, ((1, 2), 8), ((-1, 2), 8), min_n=2),
        _form("C", 2, ((0, 1, 1), 2)),
        _form("C", 3, ((1, -4, -12, 4, 8), 32), ((-1, 4, -4), 32), min_n=3),
        _form("C", 4, ((0, 1, -4, -6, 1, 2), 2)),
        _form(
            "C", 5, ((3, -16, -4, 100, 0, -88, -8, 16), 64), ((-3, 16, -28, 16), 64), min_n=4
        ),
        _form("C", 6, ((0, 5, -26, 9, 70, 5, -33, -4, 4), 2)),
        _form(
            "C", 7,
            ((51, -320, 224, 1604, -2352, -1736, 2296, 960, -640, -160, 64), 256),
            ((-51, 320, -736, 736, -272), 256),
            min_n=5,
        ),
        _form("C", 8, ((0, 63, -380, 412, 680, -1022, -616, 532, 239, -98, -28, 8), 2)),
        _form(
            "C", 9,
            (
                (465, -3248, 4220, 12620, -32288, 4344, 36744, -11424, -18624, 3936, 4192,
                 -640, -352, 64),
                256,
            ),
            ((-465, 3248, -8828, 11712, -7648, 1984), 256),
            min_n=6,
        ),
        _form(
            "C", 10,
            (
                (0, 1575, -10502, 16589, 9206, -36530, 6396, 27834, -4980, -10083, 945, 1672,
                 -136, -112, 16),
                2,
            ),
        ),
        _form("D", 1, ((-1, 2), 4), ((1,), 4)),
        _form("D", 3, ((1, -4, 4), 8), ((-1, 4, 2), 8)),
        _form("D", 5, ((-1, 5, -8, 4), 4), ((1, -5, 3, 4, 1), 4)),
        _form("D", 7, ((17, -96, 192, -160, 48), 16), ((-17, 96, -108, -28, 42, 24, 4), 16)),
        _form(
            "D", 9,
            ((-31, 190, -436, 468, -240, 48), 4),
            ((31, -190, 283, -52, -98, 2, 22, 8, 1), 4),
        ),
    )
}


def b1_second_form(n: int) -> Fraction:
    """Alternative printed shape of the m = 1 alternating sum: C(2n-2, n-1), n >= 1."""
    require_ints("b1_second_form", n=n)
    if n < 1:
        raise DomainError(f"b1_second_form requires n >= 1, got {n}")
    return Fraction(binomial(2 * n - 2, n - 1))


def c_even_first_form(t: int, n: int) -> Fraction:
    """First printed bracket form of C_{2t}(n), t >= 1, with the global sign:

        (-1)^n sum_l (4n-2l+1)/(4n-4l-2) * falling(2n-1/2, 2l) / [2n-l+1, l+1]
            * sigma_{t,l}(n - 1/2)

    It equals ``even_moment_c`` (the second form), which verify checks.
    It stays a sum of Fraction products over ``sigma_row``, a reading
    independent of the int sums above.
    """
    _check_half_exponent("c_even_first_form", t, n)
    y = Fraction(2 * n - 1, 2)
    row = sigma_row(t, y)
    total = Fraction(0)
    for ell in range(t + 1):
        total += (
            Fraction(4 * n - 2 * ell + 1, 4 * n - 4 * ell - 2)
            * falling(y + n, 2 * ell)  # falling(2n - 1/2, 2l)
            / bracket(2 * n - ell + 1, ell + 1)
            * row[ell]
        )
    return (-1) ** n * total


def corollary_value(q: MomentQuery) -> EvalResult:
    """Look up the printed simplified formula for (family, m) and evaluate it.

    Raises NotTabulated when no printed formula exists and GuardViolated
    when n is below the formula's guard (guards sit exactly on the poles of
    the printed denominators, so no extension below them is possible).
    """
    if not isinstance(q, MomentQuery):
        raise DomainError(f"corollary_value needs a MomentQuery, got {q!r}")
    entry = COROLLARIES.get((q.family, q.m))
    if entry is None:
        raise NotTabulated(f"no printed formula for {q.family}_{q.m}")
    if q.n < entry.min_n:
        raise GuardViolated(
            f"printed formula for {q.family}_{q.m} requires n >= {entry.min_n}, got n={q.n}"
        )
    note = None if entry.min_n == 1 else f"printed form valid for n >= {entry.min_n}"
    return EvalResult(entry.value(q.n), "corollary", note)


def evaluate(q: MomentQuery, method: str) -> EvalResult:
    """Uniform entry point over the three evaluation routes."""
    if not isinstance(q, MomentQuery):
        raise DomainError(f"evaluate needs a MomentQuery, got {q!r}")
    if method == "oracle":
        return EvalResult(oracle(q), "oracle", None)
    if method == "theorem":
        return closed_form(q)
    if method == "corollary":
        return corollary_value(q)
    raise DomainError(f"method must be one of {METHODS}, got {method!r}")
