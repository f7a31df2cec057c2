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
oracle value there, both scaled by the lcm of their denominators.  The
holdout check evaluates the candidate through ``Ansatz.value``, the same
int row summed against the coefficients.  A candidate is only
``verified`` when every holdout point matches exactly; with no holdout
it can only be ``underdetermined``.

``rediscover_all`` refits every printed simplified formula in
``moments.COROLLARIES`` from oracle data alone and compares the
recovered coefficients with the printed ones.  ``explore_D_even`` runs
the same machinery over a finite ansatz catalogue for the even-power D
sums, where no closed form is known; it reports honest statuses and
never fabricates a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, Inconsistent, SingularSystem, require_ints, require_rationals
from .moments import (
    COROLLARIES,
    PREFACTORS,
    Ansatz,
    AnsatzTerm,
    MomentQuery,
    PrintedForm,
    _int_roots,
    _odd_roots,
    oracle,
)


@dataclass(frozen=True)
class ClosedFormCandidate:
    """A fitted candidate with its verification outcome."""

    family: str
    power: int
    ansatz: Ansatz
    coefficients: tuple[Fraction, ...]
    fitted_on: tuple[int, ...]
    verified_on: tuple[int, ...]
    status: str  # verified | refuted | underdetermined
    first_mismatch: Optional[int] = None

    def value_at(self, n: int) -> Fraction:
        """The candidate at n, through ``Ansatz.value`` with the coefficients over their lcm."""
        cs = self.coefficients
        scale = math.lcm(*[c.denominator for c in cs])
        return self.ansatz.value([c.numerator * (scale // c.denominator) for c in cs], n, scale)

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


def solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve a square or overdetermined-consistent system exactly.

    Entries must be ``int`` or ``Fraction``; anything else raises
    DomainError.  Each row, rhs included, is first multiplied by the lcm
    of its denominators: a row scale does not move the solution, and every
    entry becomes an ``int``.  Bareiss fraction-free elimination (Math.
    Comp. 22, 1968) then runs in ``int``.  After step c each entry below
    row c is the minor that borders the leading (c+1) x (c+1) block, so
    the division by the previous pivot is exact and no gcd is taken.  The
    pivot is the first nonzero entry at or below the diagonal, as in
    Gauss-Jordan.  A Bareiss entry is the Gauss entry times the leading
    minor, which is nonzero, so both raise SingularSystem on the same
    column.  Back substitution runs on x_j * det, integers by Cramer's
    rule, and the Fractions are built only at the end.

    Raises SingularSystem when the columns are dependent (no unique
    solution) and Inconsistent when extra rows contradict the solution.
    The residual it reports, the Bareiss entry over det times the row
    scale, is the Schur complement that Gauss-Jordan left in that row.
    """
    rows, scales = [], []
    for row, b in zip(matrix, rhs):
        vals = [*row, b]
        scale = 1
        for v in vals:
            if type(v) is not int and type(v) is not Fraction:
                require_rationals("solve_exact", entry=v)
            scale = math.lcm(scale, v.denominator)
        rows.append([v.numerator * (scale // v.denominator) for v in vals])
        scales.append(scale)
    if len(rows) != len(matrix) or len(rows) != len(rhs):
        raise DomainError("matrix and rhs lengths differ")
    if not rows:
        raise SingularSystem("empty system")
    ncols = len(rows[0]) - 1
    if any(len(r) != ncols + 1 for r in rows):
        raise DomainError("ragged matrix")
    nrows = len(rows)
    if nrows < ncols:
        raise SingularSystem(f"{nrows} equations for {ncols} unknowns")

    det = 1  # the leading minor of the rows pivoted so far
    for c in range(ncols):
        piv = next((i for i in range(c, nrows) if rows[i][c]), None)
        if piv is None:
            raise SingularSystem(f"no pivot available for column {c}")
        rows[c], rows[piv] = rows[piv], rows[c]
        scales[c], scales[piv] = scales[piv], scales[c]
        p, tail = rows[c][c], rows[c][c + 1 :]
        # Column c of the rows below is left as it is: nothing reads it again.
        for row in rows[c + 1 :]:
            f = row[c]
            if f:
                row[c + 1 :] = [(p * a - f * b) // det for a, b in zip(row[c + 1 :], tail)]
            else:
                row[c + 1 :] = [p * a // det for a in row[c + 1 :]]
        det = p
    for i in range(ncols, nrows):
        if rows[i][ncols]:
            residual = Fraction(rows[i][ncols], det * scales[i])
            raise Inconsistent(f"row {i} reduces to 0 = {residual}")
    x_det = [0] * ncols
    for i in reversed(range(ncols)):
        row = rows[i]
        acc = det * row[ncols] - sum(row[j] * x_det[j] for j in range(i + 1, ncols))
        x_det[i] = acc // row[i]
    return [Fraction(v, det) for v in x_det]


def _sorted_nodes(name: str, nodes: Sequence[int]) -> list[int]:
    """The nodes as a sorted list, after checking that each one is an int."""
    try:
        it = iter(nodes)
    except TypeError:
        raise DomainError(f"fit: {name} must be an iterable of ints, got {nodes!r}") from None
    out = list(it)
    for n in out:
        if type(n) is not int:
            raise DomainError(f"fit: the nodes in {name} must be ints, got {n!r}")
    return sorted(out)


def fit(
    family: str,
    power: int,
    ansatz: Ansatz,
    sample_ns: Sequence[int],
    holdout_ns: Sequence[int],
) -> ClosedFormCandidate:
    """Fit the ansatz coefficients to oracle values exactly, then verify.

    The first `ansatz.unknowns` sample points (in increasing order) build a
    square system; remaining samples join the holdout as verification
    points.  Status is ``verified`` only when every verification point
    matches exactly and at least one exists; a mismatch yields ``refuted``
    with the smallest mismatching n recorded.
    """
    if not isinstance(ansatz, Ansatz):
        raise DomainError(f"fit needs an Ansatz, got {ansatz!r}")
    samples = _sorted_nodes("sample_ns", sample_ns)
    holdout = _sorted_nodes("holdout_ns", holdout_ns)
    if len(set(samples)) != len(samples) or len(set(holdout)) != len(holdout):
        raise DomainError("duplicate nodes")
    if set(samples) & set(holdout):
        raise DomainError("holdout nodes must be disjoint from sample nodes")
    excluded = ansatz.excluded_ns()
    for n in samples + holdout:
        if n < 1:
            raise DomainError(f"nodes must be >= 1, got {n}")
        if n in excluded:
            raise DomainError(f"node n={n} hits a denominator root of the ansatz")
    u = ansatz.unknowns
    if len(samples) < u:
        raise DomainError(f"{u} unknowns need at least {u} sample nodes, got {len(samples)}")

    fitted = samples[:u]
    matrix, rhs = [], []
    for n in fitted:
        ints, den = ansatz.basis_row(n)
        v = oracle(MomentQuery(family, power, n))
        scale = math.lcm(den, v.denominator)
        matrix.append([a * (scale // den) for a in ints])
        rhs.append(v.numerator * (scale // v.denominator))
    coeffs = tuple(solve_exact(matrix, rhs))

    verify_pts = sorted(samples[u:] + holdout)
    cand = ClosedFormCandidate(
        family, power, ansatz, coeffs, tuple(fitted), tuple(verify_pts), "underdetermined"
    )
    if not verify_pts:
        return cand
    for n in verify_pts:
        if cand.value_at(n) != oracle(MomentQuery(family, power, n)):
            return replace(cand, status="refuted", first_mismatch=n)
    return replace(cand, status="verified")


# ---------------------------------------------------------------------------
# The printed formulas as fitting targets.
# ---------------------------------------------------------------------------


def printed_forms() -> list[PrintedForm]:
    """Every printed simplified formula as an exact fitting target."""
    return sorted(COROLLARIES.values(), key=lambda pf: (pf.family, pf.power))


@dataclass(frozen=True)
class RediscoveryEntry:
    printed: PrintedForm
    candidate: ClosedFormCandidate

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
    entries: list[RediscoveryEntry] = field(default_factory=list)

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


# The one holdout count: verification points after the fitted ones, for every
# refit of a printed formula and every shape of the even-D search.
HOLDOUT = 10


def fitting_nodes(power: int, ansatz: Ansatz):
    """Sample/holdout nodes: consecutive integers from power+2 (clears every
    printed guard and denominator root), HOLDOUT nodes directly after the samples."""
    require_ints("fitting_nodes", power=power)
    n0 = power + 2
    excluded = ansatz.excluded_ns()
    if excluded:
        n0 = max(n0, max(excluded) + 1)
    u = ansatz.unknowns
    return list(range(n0, n0 + u)), list(range(n0 + u, n0 + u + HOLDOUT))


def rediscover_all() -> RediscoveryReport:
    """Refit every printed formula from oracle data; compare coefficients."""
    report = RediscoveryReport()
    for pf in printed_forms():
        cand = fit(pf.family, pf.power, pf.ansatz, *fitting_nodes(pf.power, pf.ansatz))
        report.entries.append(RediscoveryEntry(pf, cand))
    return report


# ---------------------------------------------------------------------------
# Search for the open case: even-power D sums.
# ---------------------------------------------------------------------------


# The two-term shapes of the catalogue, as (prefactor, prefactor) pairs; every
# prefactor in PREFACTORS also gives the one-term shapes.
PAIR_SHAPES = (("bracket", "unit"), ("sign", "bracket"), ("sign", "unit"))


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
    out: list[Ansatz] = []
    roots_menu = _root_options(config.max_roots)
    for pf in PREFACTORS:
        for roots in roots_menu:
            for d in range(config.max_degree + 1):
                out.append(Ansatz((AnsatzTerm(pf, d, roots),)))
    for p1, p2 in PAIR_SHAPES:
        for roots in roots_menu:
            for d in range(config.max_degree + 1):
                out.append(Ansatz((AnsatzTerm(p1, d, roots), AnsatzTerm(p2, d, roots))))
    return out


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
            cand = fit("D", power, ansatz, *fitting_nodes(power, ansatz))
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
