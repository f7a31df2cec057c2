"""Exact ansatz fitting over the rationals: how closed forms are fitted.

What a candidate looks like -- an ``Ansatz``, a sum of up to three terms,
each

    prefactor(n) * (polynomial in n of bounded degree) / (product of linear forms),

with prefactor drawn from the structural vocabulary of the printed
formulas (the central binomial C(2n,n), the central bracket [2n,n], a
power 2^(2n+c), the sign (-1)^n, or 1) -- is defined in ``moments``,
next to the printed formulas themselves.  This module fits it: the
unknown polynomial coefficients are linear, so they are determined
exactly from oracle samples by fraction-free integer elimination and then
checked on holdout points disjoint from the fit.  The system is built in
``int``: each row is the ansatz's ``basis_row`` at a sample n and the
oracle value there, both scaled by the lcm of their denominators.
``solve_exact`` divides each row's matrix part by its gcd, signed so the
first nonzero entry is positive, and factors each distinct normalised
matrix once: ``_bareiss`` is a module-level ``lru_cache`` of bound 32,
keyed by the normalised rows, and every right-hand side is replayed
through its stored row order, multipliers and pivots.  The root product of
every term and a one-term prefactor scale a whole row, so they normalise
away: on the same nodes, every one-term shape of degree d, whatever its
prefactor and root option, is the Vandermonde matrix (1, n, ..., n^d), and
each two-term shape is one matrix per prefactor pair and degree.  The
holdout check is ``Ansatz.value`` compared with the oracle, done in int:
the basis row summed against the coefficients over their lcm
(``series._over_lcm``, the package's one such conversion), cross-
multiplied with the oracle value's numerator and denominator, so no
Fraction is built per point.  ``fit`` takes no nodes: it
reads them from ``fitting_nodes``, the one node rule, so every fit has
HOLDOUT verification points and a candidate is ``verified`` exactly when
every one of them matches.

``rediscover_all`` refits every printed simplified formula in
``moments.COROLLARIES`` from oracle data alone and compares the
recovered coefficients with the printed ones.  ``explore_D_even`` runs
the same machinery over a finite ansatz catalogue for the even-power D
sums, where no closed form is known; it reports honest statuses and
never fabricates a result.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    DomainError,
    Inconsistent,
    SingularSystem,
    require_ints,
    require_ordered,
    require_rationals,
)
from .moments import (
    COROLLARIES,
    FAMILIES,
    Ansatz,
    AnsatzTerm,
    MomentQuery,
    PrintedForm,
    _int_roots,
    _odd_roots,
    oracle,
)
from .series import _coefficients, _over_lcm


@dataclass(frozen=True)
class ClosedFormCandidate:
    """A fitted candidate with its verification outcome."""

    family: str
    power: int
    ansatz: Ansatz
    coefficients: tuple[Fraction, ...]
    fitted_on: tuple[int, ...]
    verified_on: tuple[int, ...]
    status: str  # verified | refuted
    first_mismatch: Optional[int] = None

    def __post_init__(self) -> None:
        """Each field checked once, type tests first; DomainError names the
        first that is malformed.  The coefficients are ints or Fractions,
        one per unknown of the ansatz, so no float reaches ``value_at``."""
        where, ansatz, cs = "ClosedFormCandidate", self.ansatz, self.coefficients
        if self.family not in FAMILIES:
            raise DomainError(f"{where}: family must be one of {FAMILIES}, got {self.family!r}")
        if type(self.power) is not int:
            require_ints(where, power=self.power)
        if type(ansatz) is not Ansatz:
            raise DomainError(f"{where}: ansatz must be an Ansatz, got {ansatz!r}")
        if type(cs) is not tuple or len(_coefficients(where, cs)) != ansatz.unknowns:
            raise DomainError(f"{where}: needs a tuple of {ansatz.unknowns} coefficients, got {cs!r}")
        fitted, verified = self.fitted_on, self.verified_on
        if type(fitted) is not tuple or type(verified) is not tuple or not set(
            map(type, fitted + verified)
        ) <= {int}:
            raise DomainError(
                f"{where}: fitted_on and verified_on must be tuples of ints, "
                f"got {fitted!r} and {verified!r}"
            )
        if self.status not in ("verified", "refuted"):
            raise DomainError(f"{where}: status must be verified or refuted, got {self.status!r}")
        if self.first_mismatch is not None and type(self.first_mismatch) is not int:
            require_ints(where, first_mismatch=self.first_mismatch)

    def value_at(self, n: int) -> Fraction:
        """The candidate at n, through ``Ansatz.value`` with the coefficients over their lcm."""
        nums, scale = _over_lcm(self.coefficients)
        return self.ansatz.value(nums, n, scale)

    def term_coefficients(self) -> list[tuple[AnsatzTerm, tuple[Fraction, ...]]]:
        out = []
        i = 0
        for t in self.ansatz.terms:
            out.append((t, self.coefficients[i : i + t.degree + 1]))
            i += t.degree + 1
        return out

    def formula(self) -> str:
        parts = [t.describe(cs) for t, cs in self.term_coefficients() if any(cs)]
        return "  +  ".join(parts) if parts else "0"

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "power": self.power,
            "ansatz": self.ansatz.describe(),
            "coefficients": [str(c) for c in self.coefficients],
            "fitted_on": list(self.fitted_on),
            "verified_on": list(self.verified_on),
            "status": self.status,
            "first_mismatch": self.first_mismatch,
            "formula": self.formula(),
        }


@lru_cache(maxsize=32)
def _bareiss(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple, tuple]:
    """Bareiss fraction-free elimination (Math. Comp. 22, 1968) of int rows.

    Returns ``(order, uppers, multipliers)``: the original row index at
    each position after the pivot swaps; for pivot row c, its entries from
    column c on (the pivot first); and for column c, the entries that the
    rows below the pivot held in column c when step c eliminated them.
    After step c each entry below row c is the minor that borders the
    leading (c+1) x (c+1) block, so the division by the previous pivot is
    exact and no gcd is taken.  The pivot is the first nonzero entry at or
    below the diagonal, as in Gauss-Jordan.  A Bareiss entry is the Gauss
    entry times the leading minor, which is nonzero, so both raise
    SingularSystem on the same column.
    """
    nrows, ncols = len(rows), len(rows[0])
    work = [list(r) for r in rows]
    order = list(range(nrows))
    det = 1  # the leading minor of the rows pivoted so far
    for c in range(ncols):
        piv = next((i for i in range(c, nrows) if work[i][c]), None)
        if piv is None:
            raise SingularSystem(f"no pivot available for column {c}")
        work[c], work[piv] = work[piv], work[c]
        order[c], order[piv] = order[piv], order[c]
        p, tail = work[c][c], work[c][c + 1 :]
        # Column c of the rows below is left as it is: it holds their multiplier.
        for row in work[c + 1 :]:
            f = row[c]
            if f:
                row[c + 1 :] = [(p * a - f * b) // det for a, b in zip(row[c + 1 :], tail)]
            else:
                row[c + 1 :] = [p * a // det for a in row[c + 1 :]]
        det = p
    uppers = tuple(tuple(work[c][c:]) for c in range(ncols))
    multipliers = tuple(tuple(row[c] for row in work[c + 1 :]) for c in range(ncols))
    return tuple(order), uppers, multipliers


def solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve a square or overdetermined-consistent system exactly.

    Matrix rows and rhs are sequences of ``int`` or ``Fraction``; anything
    else raises DomainError.  The system runs through three steps:

    1. One pass over the rows validates each row and its rhs entry, makes
       them int and normalises them.  A row of ints with an int rhs is
       taken as it is; any other row, rhs included, is written as ints
       over the lcm of its denominators by ``series._over_lcm``.  The row
       is then divided by the gcd of its entries, signed so that the
       first nonzero entry is positive, and that is its part of the cache
       key; the rhs becomes the reduced fraction b / (that signed gcd).
       A row scale moves neither the solution nor which entries are
       zero, so the pivots, the permutation and every outcome stay those
       of the rows as given.
    2. The shape is checked after the pass: the row and rhs counts, an
       empty system, a ragged matrix, fewer rows than unknowns, in that
       order.
    3. The normalised matrix is factored once by ``_bareiss``, a
       module-level ``lru_cache`` of bound 32 keyed by the normalised
       rows, and each right-hand side is replayed through its row order,
       multipliers and pivots in O(u^2) int steps, over the lcm L of the
       rhs denominators.  Back substitution runs on x_j * det * L,
       integers by Cramer's rule, and the Fractions are built only at the
       end.

    The cache pays because normalising removes what a fit's rows share:
    the root product of every term and a one-term prefactor are a scale
    of the whole row.  So every one-term shape of a given degree on the
    same nodes is the Vandermonde matrix (1, n, ..., n^d), whatever its
    prefactor and root option, and a two-term shape is one matrix per
    prefactor pair and degree.

    Raises SingularSystem when the columns are dependent (no unique
    solution) and Inconsistent when extra rows contradict the solution.
    The residual it reports, the replayed entry over det * L, times the
    row's normalising gcd over its lcm scale, is the Schur complement
    that Gauss-Jordan left in that row.
    """
    require_ordered("solve_exact", "matrix", matrix, abc.Sequence)
    require_ordered("solve_exact", "rhs", rhs, abc.Sequence)
    key, gcds, nums, dens, scales = [], [], [], [], []
    for row, b in zip(matrix, rhs):
        if type(row) is not list and type(row) is not tuple:
            require_ordered("solve_exact", "each matrix row", row, abc.Sequence)
        scale = 1
        if type(b) is not int or not {int}.issuperset(map(type, row)):
            for v in (*row, b):
                if type(v) is not int and type(v) is not Fraction:
                    require_rationals("solve_exact", entry=v)
            (*row, b), scale = _over_lcm((*row, b))
        g = math.gcd(*row) or 1  # an all-zero row stays as it is
        for v in row:
            if v:
                if v < 0:
                    g = -g
                break
        h = math.gcd(b, g) if g > 0 else -math.gcd(b, g)
        key.append(tuple(row) if g == 1 else tuple([v // g for v in row]))
        gcds.append(g)
        nums.append(b // h)
        dens.append(g // h)
        scales.append(scale)
    nrows = len(key)
    if nrows != len(matrix) or nrows != len(rhs):
        raise DomainError("matrix and rhs lengths differ")
    if not key:
        raise SingularSystem("empty system")
    ncols = len(key[0])
    if any(len(a) != ncols for a in key):
        raise DomainError("ragged matrix")
    if nrows < ncols:
        raise SingularSystem(f"{nrows} equations for {ncols} unknowns")
    order, uppers, multipliers = _bareiss(tuple(key))

    lcm = math.lcm(*dens)
    y = [nums[i] * (lcm // dens[i]) for i in order]
    det = 1
    for c in range(ncols):
        p, yc = uppers[c][0], y[c]
        y[c + 1 :] = [(p * v - f * yc) // det for v, f in zip(y[c + 1 :], multipliers[c])]
        det = p
    for i in range(ncols, nrows):
        if y[i]:
            j = order[i]
            residual = Fraction(y[i] * gcds[j], det * lcm * scales[j])
            raise Inconsistent(f"row {i} reduces to 0 = {residual}")
    x_det = [0] * ncols
    for i in reversed(range(ncols)):
        u = uppers[i]
        acc = det * y[i] - sum(map(operator.mul, u[1:], x_det[i + 1 :]))
        x_det[i] = acc // u[0]
    return [Fraction(v, det * lcm) for v in x_det]


# The one holdout count: verification points after the fitted ones, for every
# refit of a printed formula and every shape of the even-D search.
HOLDOUT = 10


def fitting_nodes(power: int, ansatz: Ansatz):
    """Sample/holdout nodes: consecutive integers from power+2 (clears every
    printed guard and denominator root), HOLDOUT nodes directly after the samples."""
    require_ints("fitting_nodes", power=power)
    if power < 0:
        raise DomainError(f"fitting_nodes: power must be >= 0, got {power}")
    if not isinstance(ansatz, Ansatz):
        raise DomainError(f"fitting_nodes needs an Ansatz, got {ansatz!r}")
    n0 = power + 2
    excluded = ansatz.excluded_ns()
    if excluded:
        n0 = max(n0, max(excluded) + 1)
    u = ansatz.unknowns
    return list(range(n0, n0 + u)), list(range(n0 + u, n0 + u + HOLDOUT))


def fit(family: str, power: int, ansatz: Ansatz) -> ClosedFormCandidate:
    """Fit the ansatz coefficients to oracle values exactly, then verify.

    The nodes are ``fitting_nodes(power, ansatz)``: ``ansatz.unknowns``
    samples build a square system, and the HOLDOUT points after them
    verify it.  Status is ``verified`` when every holdout point matches
    exactly; a mismatch yields ``refuted`` with the smallest mismatching n
    recorded.
    """
    require_ints("fit", power=power)
    if not isinstance(ansatz, Ansatz):
        raise DomainError(f"fit needs an Ansatz, got {ansatz!r}")
    samples, holdout = fitting_nodes(power, ansatz)
    matrix, rhs = [], []
    for n in samples:
        ints, den = ansatz.basis_row(n)
        p, q = oracle(MomentQuery(family, power, n)).as_integer_ratio()
        scale = math.lcm(den, q)
        matrix.append([a * (scale // den) for a in ints])
        rhs.append(p * (scale // q))
    coeffs = tuple(solve_exact(matrix, rhs))

    # The holdout check of Ansatz.value against the oracle, in int: the
    # candidate is sum(ints * nums) / (den * scale), both denominators > 0.
    nums, scale = _over_lcm(coeffs)
    mismatch = None
    for n in holdout:
        ints, den = ansatz.basis_row(n)
        p, q = oracle(MomentQuery(family, power, n)).as_integer_ratio()
        if sum(map(operator.mul, ints, nums)) * q != p * den * scale:
            mismatch = n
            break
    status = "verified" if mismatch is None else "refuted"
    return ClosedFormCandidate(
        family, power, ansatz, coeffs, tuple(samples), tuple(holdout), status, mismatch
    )


# ---------------------------------------------------------------------------
# The printed formulas as fitting targets.
# ---------------------------------------------------------------------------


def printed_forms() -> list[PrintedForm]:
    """Every printed simplified formula as an exact fitting target."""
    return sorted(COROLLARIES.values(), key=lambda pf: (pf.family, pf.power))


@dataclass(frozen=True)
class RediscoveryEntry:
    """A printed formula and the candidate refitted for it."""

    printed: PrintedForm
    candidate: ClosedFormCandidate

    def __post_init__(self) -> None:
        if not isinstance(self.printed, PrintedForm):
            raise DomainError(f"RediscoveryEntry needs a PrintedForm, got {self.printed!r}")
        if not isinstance(self.candidate, ClosedFormCandidate):
            raise DomainError(
                f"RediscoveryEntry needs a ClosedFormCandidate, got {self.candidate!r}"
            )

    @property
    def ok(self) -> bool:
        return (
            self.candidate.status == "verified"
            and self.candidate.coefficients == self.printed.expected
        )

    def to_dict(self) -> dict:
        return {
            "label": self.printed.label,
            "family": self.printed.family,
            "power": self.printed.power,
            "status": self.candidate.status,
            "coefficients_match_printed": self.ok,
            "expected": [str(c) for c in self.printed.expected],
            "candidate": self.candidate.to_dict(),
            "note": self.printed.region_note,
        }


@dataclass
class RediscoveryReport:
    """One RediscoveryEntry per printed formula."""

    entries: list[RediscoveryEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.entries, list) or not all(
            isinstance(e, RediscoveryEntry) for e in self.entries
        ):
            raise DomainError(
                f"RediscoveryReport needs a list of RediscoveryEntry, got {self.entries!r}"
            )

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[RediscoveryEntry]:
        return [e for e in self.entries if not e.ok]

    def to_dict(self) -> dict:
        return {
            "all_ok": self.all_ok,
            "entries": [e.to_dict() for e in self.entries],
        }


def rediscover_all() -> RediscoveryReport:
    """Refit every printed formula from oracle data; compare coefficients."""
    return RediscoveryReport(
        [RediscoveryEntry(pf, fit(pf.family, pf.power, pf.ansatz)) for pf in printed_forms()]
    )


# ---------------------------------------------------------------------------
# Search for the open case: even-power D sums.
# ---------------------------------------------------------------------------


# The catalogue's shapes as tuples of prefactors, in catalogue order: the
# one-term shapes, then the two-term ones.
PAIR_SHAPES = (("bracket", "unit"), ("sign", "bracket"), ("sign", "unit"))
SHAPES = (("unit",), ("sign",), ("central",), ("bracket",), ("power2",)) + PAIR_SHAPES


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the even-D ansatz catalogue."""

    max_degree: int = 4
    max_roots: int = 2

    def __post_init__(self) -> None:
        require_ints("SearchConfig", max_degree=self.max_degree, max_roots=self.max_roots)
        if self.max_degree < 0 or self.max_roots < 0:
            raise DomainError("search bounds must be >= 0")


def _root_options(max_roots: int) -> list[tuple[tuple[int, int], ...]]:
    opts: list[tuple[tuple[int, int], ...]] = [()]
    for r in range(1, max_roots + 1):
        opts.append(_odd_roots(r, 3))  # (2n-3)(2n-5)...
        opts.append(_odd_roots(r, 1))  # (2n-1)(2n-3)...
        opts.append(_int_roots(r))  # (n-1)(n-2)...
    return opts


def search_catalogue(config: SearchConfig) -> list[Ansatz]:
    """Deterministic, finite catalogue of candidate shapes."""
    if not isinstance(config, SearchConfig):
        raise DomainError(f"the search needs a SearchConfig, got {config!r}")
    roots_menu = _root_options(config.max_roots)
    degrees = range(config.max_degree + 1)
    # Each distinct term is built once, and every shape that holds it shares it.
    term = {
        (pf, roots, d): AnsatzTerm(pf, d, roots)
        for pf in {pf for shape in SHAPES for pf in shape}
        for roots in roots_menu
        for d in degrees
    }
    return [
        Ansatz(tuple(term[pf, roots, d] for pf in shape))
        for shape in SHAPES
        for roots in roots_menu
        for d in degrees
    ]


def _explore(m: int, config: SearchConfig) -> tuple[int, list[ClosedFormCandidate]]:
    """``explore_D_even``'s search and the number of shapes it attempted,
    read from the one catalogue it builds."""
    require_ints("explore_D_even", m=m)
    if m < 0:
        raise DomainError(f"half exponent must be >= 0, got {m}")
    power = 2 * m
    catalogue = search_catalogue(config)
    out: list[ClosedFormCandidate] = []
    for ansatz in catalogue:
        try:
            cand = fit("D", power, ansatz)
        except SingularSystem:  # fit solves a square system: never Inconsistent
            continue
        out.append(cand)
    return len(catalogue), out


def explore_D_even(m: int, config: SearchConfig = SearchConfig()) -> list[ClosedFormCandidate]:
    """Fit every catalogue shape to the even sum D_{2m} and report honestly.

    Returns one candidate per attempted shape, with its exact status;
    shapes that produce a singular system are skipped.  No closed form is
    known for this family/parity, so a ``verified`` candidate would be a
    genuine (conjectural) discovery; an empty or fully refuted list is the
    expected outcome.
    """
    return _explore(m, config)[1]
