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
How formulas are fitted lives in ``conjecture``.

Two of the closed-form identities admit more than one plausible reading
(a shifted vs unshifted symmetric-function argument for odd C, and a
sign placement for odd D and even C).  All variants are implemented
behind keyword switches; the default is the reading that agrees with
the oracle, and the ``verify`` report records the evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    ConsistencyError,
    DomainError,
    GuardViolated,
    NoClosedFormKnown,
    NotTabulated,
    PreconditionViolated,
    require_ints,
    require_rationals,
)
from .exact import HALF, Scalar, binomial, bracket, central_binomial, falling, rising
from .sigma import sigma_row, sigma_series

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


# Above the 4080 cells of an m <= 16, n <= 60 table (flagship verify: 1189).
@lru_cache(maxsize=8192)
def oracle(q: MomentQuery) -> Fraction:
    """Evaluate the defining sum directly with exact arithmetic.

    A and B have integer summands, so their sum stays an ``int`` until the
    final conversion.
    """
    f, m, n = q.family, q.m, q.n
    total = 0
    for k in range(1, n + 1):
        w = math.comb(2 * n, n - k) if f in ("A", "B") else bracket(2 * n, n - k)
        term = w * k**m
        total += -term if f in ("B", "C") and k % 2 == 0 else term
    return Fraction(total)


# ---------------------------------------------------------------------------
# Closed forms, one per family/parity.  t is the half exponent: even sums
# have m = 2t, odd sums m = 2t + 1.  Each evaluator fetches the row
# sigma_{t,0..t}(y) once from sigma_row (one O(t^2) recurrence, cached per
# (t, y)) and reads sigma_{t,l} as row[l].  The row is total in y, so no
# pole bookkeeping is needed here.
# ---------------------------------------------------------------------------


def even_moment_a(t: int, n: int) -> Fraction:
    """A_{2t}(n) = sum_l (-1)^l 2^(2n-2l-1) falling(2n, 2l) sigma_{t,l}(n), t >= 1."""
    row = sigma_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += (
            (-1) ** ell
            * Fraction(2) ** (2 * n - 2 * ell - 1)
            * falling(2 * n, 2 * ell)
            * row[ell]
        )
    return total


def odd_moment_a(t: int, n: int) -> Fraction:
    """A_{2t+1}(n) = C(2n,n)/2 * sum_l (-1)^l falling(n,l) falling(n,l+1) sigma_{t,l}(n)."""
    row = sigma_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += (-1) ** ell * falling(n, ell) * falling(n, ell + 1) * row[ell]
    return central_binomial(n) * total / 2


def even_moment_b(t: int, n: int) -> Fraction:
    """B_{2t}(n) = (-1)^(n-1)/2 * sum_l falling(2n,2l) C(l, 2n-l) sigma_{t,l}(n), t >= 1.

    Every summand vanishes for n > t, which is the vanishing phenomenon the
    verify command checks on a grid.
    """
    row = sigma_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += falling(2 * n, 2 * ell) * binomial(ell, 2 * n - ell) * row[ell]
    return (-1) ** (n - 1) * total / 2


def odd_moment_b(t: int, n: int) -> Fraction:
    """B_{2t+1}(n) = sum_l (-1)^l falling(2n,2l) C(2n-2l-2, n-l-1) sigma_{t,l}(n)."""
    row = sigma_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += (
            (-1) ** ell
            * falling(2 * n, 2 * ell)
            * binomial(2 * n - 2 * ell - 2, n - ell - 1)
            * row[ell]
        )
    return total


def even_moment_c(t: int, n: int, global_sign: bool = True) -> Fraction:
    """C_{2t}(n) via two equivalent bracket forms, computed and compared, t >= 1.

    Summand (argument y = n - 1/2 throughout):

        form 1: (4n-2l+1)/(4n-4l-2) * falling(2n-1/2, 2l) / [2n-l+1, l+1] * sigma_{t,l}(y)
        form 2: (1/2)_l (1/2)_{l+1} / (2n-2l-1) * [2n, l] * sigma_{t,l}(y)

    The sign convention is switchable: ``global_sign=True`` multiplies the
    whole sum by (-1)^n (the reading that matches the oracle everywhere,
    see the verify report); ``False`` alternates (-1)^l per summand.
    """
    y = Fraction(2 * n - 1, 2)
    row = sigma_row(t, y)
    f1 = Fraction(0)
    f2 = Fraction(0)
    for ell in range(t + 1):
        s = row[ell]
        common = falling(y + n, 2 * ell)  # falling(2n - 1/2, 2l)
        term1 = (
            Fraction(4 * n - 2 * ell + 1, 4 * n - 4 * ell - 2)
            * common
            / bracket(2 * n - ell + 1, ell + 1)
            * s
        )
        term2 = (
            rising(HALF, ell)
            * rising(HALF, ell + 1)
            / (2 * n - 2 * ell - 1)
            * bracket(2 * n, ell)
            * s
        )
        sgn = 1 if global_sign else (-1) ** ell
        f1 += sgn * term1
        f2 += sgn * term2
    if global_sign:
        f1 *= (-1) ** n
        f2 *= (-1) ** n
    if f1 != f2:
        raise ConsistencyError(f"bracket forms disagree at t={t}, n={n}: {f1} vs {f2}")
    return f2


def odd_moment_c(t: int, n: int, shifted_sigma: bool = True) -> Fraction:
    """C_{2t+1}(n) for n > t + 1.

    (1/8) sum_l (-1)^l falling(2n-1/2, 2l) *
        { (2n-2l-1)/(n-l-1) [2n-2l, n-l] + (-1)^n (2n+1)(2l+1)/(n-l-1) [2n-2l, -l] }
        * sigma_{t,l}(y)

    ``shifted_sigma`` selects the symmetric-function argument: y = n - 1/2
    (True; the reading that matches the oracle) or y = n (False).
    """
    if n <= t + 1:
        raise PreconditionViolated(f"odd C closed form requires n > {t + 1}, got n={n}")
    y = Fraction(2 * n - 1, 2) if shifted_sigma else Fraction(n)
    half_arg = Fraction(4 * n - 1, 2)  # 2n - 1/2
    row = sigma_row(t, y)
    total = Fraction(0)
    for ell in range(t + 1):
        inner = Fraction(2 * n - 2 * ell - 1, n - ell - 1) * bracket(2 * n - 2 * ell, n - ell)
        inner += (
            (-1) ** n
            * Fraction((2 * n + 1) * (2 * ell + 1), n - ell - 1)
            * bracket(2 * n - 2 * ell, -ell)
        )
        total += (-1) ** ell * falling(half_arg, 2 * ell) * inner * row[ell]
    return total / 8


def odd_moment_d(t: int, n: int, sign_first_term_only: bool = True) -> Fraction:
    """D_{2t+1}(n) = sum_l falling(2n-1/2, 2l) *
        { (-1)^l (2n-2l-1)/4 [2n-2l, n-l] + (2l+1)/4 / [2n-l, l] } * sigma_{t,l}(n-1/2).

    ``sign_first_term_only`` pins where the alternating sign sits: on the
    diagonal bracket term only (True; matches the oracle) or on both terms
    (False).
    """
    y = Fraction(2 * n - 1, 2)
    half_arg = Fraction(4 * n - 1, 2)
    row = sigma_row(t, y)
    total = Fraction(0)
    for ell in range(t + 1):
        first = (
            (-1) ** ell
            * Fraction(2 * n - 2 * ell - 1, 4)
            * bracket(2 * n - 2 * ell, n - ell)
        )
        second = Fraction(2 * ell + 1, 4) / bracket(2 * n - ell, ell)
        if not sign_first_term_only:
            second *= (-1) ** ell
        total += falling(half_arg, 2 * ell) * (first + second) * row[ell]
    return total


def closed_form(q: MomentQuery) -> EvalResult:
    """Dispatch to the family/parity closed form, with validity guards.

    The even-power identities need exponent >= 2: they symmetrise the sum
    over -n..n, which only eliminates the k = 0 term when the power is
    positive.  Odd C needs n > t + 1 (denominators n - l - 1).  Even D has
    no known closed form and raises NoClosedFormKnown.
    """
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


def lambda_check(m: int, n: int) -> Fraction:
    """Residual of the vanishing identity

        sum_{l=0}^m (-1)^l falling(2n-1/2, 2l) [2n-2l, n-l] sigma_{m,l}(n-1/2) = [T^m] [2n, n]

    The right side is the constant bracket [2n, n] seen as a power series,
    so its T^m coefficient is [2n, n] for m = 0 and 0 for m >= 1.  The
    returned residual (left minus right) is 0 for every m >= 0, n >= 1.
    """
    require_ints("lambda_check", m=m, n=n)
    if m < 0 or n < 1:
        raise DomainError(f"lambda_check requires m >= 0 and n >= 1, got m={m}, n={n}")
    y = Fraction(2 * n - 1, 2)
    half_arg = Fraction(4 * n - 1, 2)
    total = Fraction(0)
    for ell in range(m + 1):
        total += (
            (-1) ** ell
            * falling(half_arg, 2 * ell)
            * bracket(2 * n - 2 * ell, n - ell)
            * sigma_series(m, ell, y)
        )
    if m == 0:
        total -= bracket(2 * n, n)
    return total


def lemma1_residual(m: int, x: Scalar, y: Scalar) -> Fraction:
    """Residual of the even-power expansion over shifted factorial pairs:

        x^(2m) - sum_{l=0}^m (-1)^l falling(y+x, l) falling(y-x, l) sigma_{m,l}(y)

    Identically 0 for every m >= 0 and all rational x, y.
    """
    require_ints("lemma1_residual", m=m)
    require_rationals("lemma1_residual", x=x, y=y)
    if m < 0:
        raise DomainError(f"lemma1_residual requires m >= 0, got {m}")
    x = Fraction(x)
    y = Fraction(y)
    total = Fraction(0)
    for ell in range(m + 1):
        total += (
            (-1) ** ell
            * falling(y + x, ell)
            * falling(y - x, ell)
            * sigma_series(m, ell, y)
        )
    return x ** (2 * m) - total


# ---------------------------------------------------------------------------
# The printed simplified formulas (the corollary table), stored once as
# ansatz records; see the module docstring.
# ---------------------------------------------------------------------------

PREFACTORS = ("unit", "sign", "central", "bracket", "power2")


def _poly_str(coeffs: Sequence[Scalar], var: str = "n") -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}")
        else:
            parts.append(f"{c}*{var}^{i}")
    return " + ".join(parts) if parts else "0"


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
        if self.degree < 0:
            raise DomainError(f"degree must be >= 0, got {self.degree}")

    def prefactor_value(self, n: int) -> Fraction:
        if self.prefactor == "unit":
            return Fraction(1)
        if self.prefactor == "sign":
            return Fraction(-1 if n % 2 else 1)
        if self.prefactor == "central":
            return central_binomial(n)
        if self.prefactor == "bracket":
            return bracket(2 * n, n)
        return Fraction(2) ** (2 * n + self.shift)

    def root_product(self, n: int) -> int:
        out = 1
        for a, b in self.roots:
            out *= a * n + b
        return out

    def excluded_ns(self) -> set[int]:
        """Positive integers where a denominator root vanishes."""
        out = set()
        for a, b in self.roots:
            if a != 0 and (-b) % a == 0 and -b // a >= 1:
                out.add(-b // a)
        return out

    def describe(self, coeffs: Optional[Sequence[Fraction]] = None) -> str:
        """The term's shape in plain text, or the term itself given its coefficients."""
        pf = {
            "unit": "1",
            "sign": "(-1)^n",
            "central": "binom(2n,n)",
            "bracket": "[2n,n]",
            "power2": f"2^(2n{self.shift:+d})" if self.shift else "2^(2n)",
        }[self.prefactor]
        poly = f"poly(deg<={self.degree})" if coeffs is None else f"({_poly_str(coeffs)})"
        s = f"{pf} * {poly}"
        if self.roots:
            den = " ".join(f"({_poly_str((b, a))})" for a, b in self.roots)
            s += f" / {den}"
        return s


@dataclass(frozen=True)
class Ansatz:
    """A sum of at most three structured terms."""

    terms: tuple[AnsatzTerm, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.terms) <= 3:
            raise DomainError(f"an ansatz has 1..3 terms, got {len(self.terms)}")

    @property
    def unknowns(self) -> int:
        return sum(t.degree + 1 for t in self.terms)

    def basis_at(self, n: int) -> list[Fraction]:
        row: list[Fraction] = []
        for t in self.terms:
            base = t.prefactor_value(n) / t.root_product(n)
            x = base
            row.append(base)
            for _ in range(t.degree):
                x *= n
                row.append(x)
        return row

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

    Every printed formula with m >= 1 has this shape; it extends to any t.
    Returns None for even D (open).
    """
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


def _horner(coeffs: tuple[int, ...], n: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * n + c
    return out


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


_PREFACTOR_TEX = {
    "unit": "",
    "sign": "(-1)^n",
    "central": r"\binom{2n}{n}",
    "bracket": r"\genfrac{[}{]}{0pt}{}{2n}{n}",
}


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
    if term.prefactor == "power2":
        pf = f"2^{{2n{term.shift:+d}}}" if term.shift else "2^{2n}"
    else:
        pf = _PREFACTOR_TEX[term.prefactor]
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

    def _ansatz_value(self, n: int) -> Fraction:
        total = Fraction(0)
        for term, num, den in zip(self.ansatz.terms, self.numerators, self.denominators):
            total += term.prefactor_value(n) * Fraction(_horner(num, n), den * term.root_product(n))
        return total

    def value(self, n: int) -> Fraction:
        """The printed value at n; the guard n >= min_n is the caller's to check."""
        for k, v in self.points:
            if n == k:
                return Fraction(v)
        return self._ansatz_value(n)

    def latex(self) -> str:
        """LaTeX source of the formula (assumes amsmath)."""
        text = "".join(
            _term_tex(term, num, den)
            for term, num, den in zip(self.ansatz.terms, self.numerators, self.denominators)
            if any(num)
        )
        for k, v in self.points:
            diff = v - self._ansatz_value(k)
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
    """Alternative printed shape of the m = 1 alternating sum: C(2n-2, n-1)."""
    return Fraction(binomial(2 * n - 2, n - 1))


def corollary_value(q: MomentQuery) -> EvalResult:
    """Look up the printed simplified formula for (family, m) and evaluate it.

    Raises NotTabulated when no printed formula exists and GuardViolated
    when n is below the formula's guard (guards sit exactly on the poles of
    the printed denominators, so no extension below them is possible).
    """
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
    if method == "oracle":
        return EvalResult(oracle(q), "oracle", None)
    if method == "theorem":
        return closed_form(q)
    if method == "corollary":
        return corollary_value(q)
    raise DomainError(f"method must be one of {METHODS}, got {method!r}")
