"""The invariant suite behind ``moments verify``.

Every identity the package relies on is checked on explicit grids with
exact arithmetic (no tolerances anywhere): oracle vs closed form, oracle
vs printed table, the vanishing identity, the even-power expansion
residual, bracket structure, the three sigma routes, the series-level
telescoping step, and the evidence for each reading of the ambiguous
closed-form variants.  The report is deterministic for a fixed config
(including the seed of the random rational panels), so two runs are
byte-identical.

Each grid check is written as a generator that walks its grid and yields
one verdict per case: None when the case holds, a witness dict
describing it when it fails.  The decorator ``_first_witness`` is the
one place that counts the cases and stops at the first witness; the
failing case is counted, so a decorated ``check_*`` returns ``(cases,
witness)`` with ``witness`` None on a pass.  A call of a decorated check
does the whole check's work, so timing that call from outside times the
check.  The three variant-evidence checks weigh a fixed list of
witnesses at once and return ``(cases, witness, details)``.  A check does
not know its own name.  The table in ``run_verification`` names every
check and states its family gate, and ``_run_check`` turns a check's
return, or the exception it raised, into a ``CheckResult``.
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from . import moments
from .errors import DomainError, require_ints
from .exact import HALF, bracket, central_binomial, falling, rising
from .moments import (
    COROLLARIES,
    FAMILIES,
    MomentQuery,
    b1_second_form,
    even_moment_b,
    even_moment_c,
    lambda_check,
    lemma1_residual,
    odd_moment_c,
    odd_moment_d,
    oracle,
)
from .series import TruncatedSeries, geometric
from .sigma import sigma_explicit, sigma_monomial, sigma_poly, sigma_series


@dataclass(frozen=True)
class VerifyConfig:
    families: tuple[str, ...] = FAMILIES
    m_max: int = 8
    n_max: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        fams = self.families
        if type(fams) is not tuple or not fams or any(f not in FAMILIES for f in fams):
            raise DomainError(f"families must be a nonempty tuple from {FAMILIES}, got {fams!r}")
        if len(set(fams)) != len(fams):
            raise DomainError(f"families must be distinct, got {fams!r}")
        require_ints("VerifyConfig", m_max=self.m_max, n_max=self.n_max, seed=self.seed)
        if self.m_max < 0:
            raise DomainError(f"m_max must be >= 0, got {self.m_max}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")


# What a check returns: (cases, witness), where a witness of None passes;
# the variant-evidence checks add the evidence itself as details.
Found = tuple[int, Optional[dict]]
Evidence = tuple[int, Optional[dict], dict]
# What a grid check yields: one verdict per case, None when it holds.
Verdicts = Iterator[Optional[dict]]


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    cases: int
    witness: Optional[dict] = None
    details: Optional[dict] = None


@dataclass
class VerifyReport:
    config: VerifyConfig
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def first_failure(self) -> Optional[CheckResult]:
        for c in self.checks:
            if c.status != "pass":
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "all_pass": self.all_pass,
            "checks": [asdict(c) for c in self.checks],
        }


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


# ---------------------------------------------------------------------------
# Grid checks.
# ---------------------------------------------------------------------------


def _first_witness(check: Callable[..., Verdicts]) -> Callable[..., Found]:
    """Make a generator of verdicts a check: count the cases up to and
    including the first witness, and stop there.  The generator is not
    resumed after a witness, so it computes nothing past the failing case."""

    @functools.wraps(check)
    def run(*args) -> Found:
        cases = 0
        for witness in check(*args):
            cases += 1
            if witness is not None:
                return cases, witness
        return cases, None

    return run


def _theorem_domain(family: str, m: int, n_max: int) -> range:
    """n values on which the family's closed form is guarded valid."""
    if m % 2 == 0:
        if family == "D" or m == 0:
            return range(0)
        return range(1, n_max + 1)
    t = (m - 1) // 2
    if family == "C":
        return range(t + 2, n_max + 1)
    return range(1, n_max + 1)


@_first_witness
def check_oracle_vs_theorem(config: VerifyConfig) -> Verdicts:
    for family in config.families:
        for m in range(0, config.m_max + 1):
            for n in _theorem_domain(family, m, config.n_max):
                q = MomentQuery(family, m, n)
                lhs = moments.closed_form(q).value
                rhs = oracle(q)
                yield None if lhs == rhs else {
                    "family": family, "m": m, "n": n, "lhs": str(lhs), "rhs": str(rhs)
                }


@_first_witness
def check_oracle_vs_corollary(config: VerifyConfig) -> Verdicts:
    for (family, m), entry in sorted(COROLLARIES.items()):
        if family not in config.families:
            continue
        for n in range(entry.min_n, config.n_max + 1):
            lhs = entry.value(n)
            rhs = oracle(MomentQuery(family, m, n))
            yield None if lhs == rhs else {
                "family": family, "m": m, "n": n, "lhs": str(lhs), "rhs": str(rhs)
            }


@_first_witness
def check_bracket_form_agreement(config: VerifyConfig) -> Verdicts:
    """The two printed shapes of the even-C closed form agree term by term."""
    for t in range(1, config.m_max // 2 + 1):
        for n in range(1, config.n_max + 1):
            f1 = moments.c_even_first_form(t, n)
            f2 = even_moment_c(t, n)
            yield None if f1 == f2 else {
                "t": t, "n": n, "error": f"bracket forms disagree at t={t}, n={n}: {f1} vs {f2}"
            }


@_first_witness
def check_lambda_identity(config: VerifyConfig) -> Verdicts:
    for m in range(0, config.m_max + 1):
        for n in range(1, config.n_max + 1):
            v = lambda_check(m, n)
            yield None if v == 0 else {"m": m, "n": n, "value": str(v)}


@_first_witness
def check_lemma_residuals(config: VerifyConfig) -> Verdicts:
    rng = random.Random(config.seed)
    for m in range(0, config.m_max + 1):
        for _ in range(50):
            x = _rand_fraction(rng)
            y = _rand_fraction(rng)
            r = lemma1_residual(m, x, y)
            yield None if r == 0 else {"m": m, "x": str(x), "y": str(y), "residual": str(r)}


# ---------------------------------------------------------------------------
# Bracket structure.
# ---------------------------------------------------------------------------


@_first_witness
def check_bracket_symmetry() -> Verdicts:
    for n in range(0, 41):
        for k in range(0, n + 1):
            yield None if bracket(n, k) == bracket(n, n - k) else {"n": n, "k": k}


@_first_witness
def check_bracket_recurrence() -> Verdicts:
    for n in range(1, 31):
        factor = Fraction(4 * n - 1, 2 * (2 * n - 1))  # (2n - 1/2)/(2n - 1)
        for k in range(-n, n + 1):
            lhs = bracket(2 * n, n - k)
            rhs = factor * (bracket(2 * n - 1, n - k) + bracket(2 * n - 1, n - k - 1))
            yield None if lhs == rhs else {"n": n, "k": k, "lhs": str(lhs), "rhs": str(rhs)}


@_first_witness
def check_bracket_inverse() -> Verdicts:
    """One case per (n, l) covers both identities; the second is not
    computed once the first fails."""
    for n in range(2, 21):
        for ell in range(1, n):
            a = bracket(2 * n - 2 * ell, -ell)
            if a * bracket(2 * n - ell, ell) != (-1) ** ell:
                yield {"n": n, "l": ell, "id": 1}
            else:
                b = bracket(2 * n - 2 * ell, -ell - 1)
                held = b * bracket(2 * n - ell + 1, ell + 1) == (-1) ** (ell + 1)
                yield None if held else {"n": n, "l": ell, "id": 2}


# ---------------------------------------------------------------------------
# Sigma structure.
# ---------------------------------------------------------------------------


def _sigma_panel(rng: random.Random) -> list[Fraction]:
    panel = [Fraction(k) for k in range(1, 13)]
    panel += [Fraction(2 * k - 1, 2) for k in range(1, 13)]
    panel += [_rand_fraction(rng) for _ in range(20)]
    return panel


@_first_witness
def check_sigma_three_way(config: VerifyConfig) -> Verdicts:
    rng = random.Random(config.seed + 1)
    panel = _sigma_panel(rng)
    # Whether (l, y) is off the explicit form's pole does not depend on m.
    off_pole = [
        [falling(2 * y, 1 + 2 * ell) != 0 for y in panel] for ell in range(config.m_max + 1)
    ]
    for m in range(0, config.m_max + 1):
        for ell in range(0, m + 1):
            for y, explicit_defined in zip(panel, off_pole[ell]):
                a = sigma_series(m, ell, y)
                b = sigma_monomial(m, ell, y)
                yield None if a == b else {
                    "m": m, "l": ell, "y": str(y), "series": str(a), "monomial": str(b)
                }
                if explicit_defined:
                    c = sigma_explicit(m, ell, y)
                    yield None if a == c else {
                        "m": m, "l": ell, "y": str(y), "series": str(a), "explicit": str(c)
                    }


@_first_witness
def check_sigma_poly_shape(config: VerifyConfig) -> Verdicts:
    for m in range(0, config.m_max + 1):
        for ell in range(0, m + 1):
            p = sigma_poly(m, ell)
            shaped = p.degree == 2 * (m - ell) and p.leading == math.comb(m, ell)
            yield None if shaped else {
                "m": m, "l": ell, "degree": p.degree, "leading": str(p.leading)
            }
            for k in range(1, 4):
                y = Fraction(2 * k - 1, 2)
                yield None if p(y) == sigma_series(m, ell, y) else {"m": m, "l": ell, "y": str(y)}


def _lambda_series(n: int, ell: int, inverse: TruncatedSeries) -> TruncatedSeries:
    """(1/2)_{2n} T^l / (1/2)_{n-l}^2 times ``inverse``: 1 / prod_{j<l}
    (1 - T(n-j-1/2)^2) for lambda_l, with the factor j = l for its step."""
    c = rising(HALF, 2 * n) / rising(HALF, n - ell) ** 2
    return TruncatedSeries.monomial(ell, inverse.order).scale(c) * inverse


@_first_witness
def check_series_telescoping(config: VerifyConfig) -> Verdicts:
    """Consecutive terms of the vanishing-identity kernel collapse:
    lambda_l + lambda_{l+1} equals lambda_l with one extra geometric factor.
    The products over j < l are built once per n as one running list."""
    order = max(config.m_max, 1)
    for n in range(1, 11):
        inverse = [TruncatedSeries.constant(1, order)]
        for j in range(config.m_max + 1):
            inverse.append(inverse[j] * geometric(Fraction(2 * n - 2 * j - 1, 2) ** 2, order))
        for ell in range(0, config.m_max + 1):
            inv, inv_next = inverse[ell], inverse[ell + 1]
            lhs = _lambda_series(n, ell, inv) + _lambda_series(n, ell + 1, inv_next)
            rhs = _lambda_series(n, ell, inv_next)
            yield None if lhs == rhs else {"n": n, "l": ell}


# ---------------------------------------------------------------------------
# Family-specific structure.
# ---------------------------------------------------------------------------


@_first_witness
def check_b_even_vanishing(config: VerifyConfig) -> Verdicts:
    for t in range(1, config.m_max + 1):
        for n in range(t + 1, config.n_max + 1):
            v = even_moment_b(t, n)
            yield None if v == 0 else {"t": t, "n": n, "value": str(v)}


@_first_witness
def check_c_even_parity_shape(config: VerifyConfig) -> Verdicts:
    """(-1)^n C_{2t}(n) / (n(n+1)) is a positive rational once every
    denominator factor of the printed form is positive (n > t)."""
    for t in range(1, config.m_max // 2 + 1):
        for n in range(t + 1, config.n_max + 1):
            v = oracle(MomentQuery("C", 2 * t, n)) * (-1) ** n / (n * (n + 1))
            yield None if v > 0 else {"t": t, "n": n, "value": str(v)}


@_first_witness
def check_warmup_forms(config: VerifyConfig) -> Verdicts:
    """The hand-telescoped small cases, including the second printed shape
    of the m = 1 alternating binomial sum."""
    for n in range(1, config.n_max + 1):
        targets = []
        if "A" in config.families:
            targets.append(("A", 0, Fraction(2) ** (2 * n - 1) - central_binomial(n) / 2))
            targets.append(("A", 1, central_binomial(n) * n / 2))
        if "B" in config.families:
            targets.append(("B", 0, central_binomial(n) / 2))
            targets.append(("B", 1, b1_second_form(n)))
        if "C" in config.families:
            targets.append(
                ("C", 0, bracket(2 * n, n) / 2 + Fraction((-1) ** n, 4 * n - 2))
            )
        for family, m, expected in targets:
            got = oracle(MomentQuery(family, m, n))
            yield None if got == expected else {
                "family": family, "m": m, "n": n, "lhs": str(expected), "rhs": str(got)
            }


# ---------------------------------------------------------------------------
# Evidence for the ambiguous closed-form readings.
# ---------------------------------------------------------------------------


def _variant_evidence(form, switch, family, offset, points, chosen, rejected) -> Evidence:
    """The oracle decides between ``form``'s two readings of ``switch``: at
    each (t, n) in ``points`` it is ``family`` with exponent 2t + offset."""
    rows = []
    ok = True
    for t, n in points:
        target = oracle(MomentQuery(family, 2 * t + offset, n))
        chosen_val = form(t, n, **{switch: True})
        rejected_val = form(t, n, **{switch: False})
        rows.append(
            {
                "t": t,
                "n": n,
                "oracle": str(target),
                "chosen_value": str(chosen_val),
                "rejected_value": str(rejected_val),
            }
        )
        ok = ok and chosen_val == target and rejected_val != target
    details = {"chosen": chosen, "rejected": rejected, "witnesses": rows}
    return len(points), None if ok else details, details


def check_c_odd_argument_evidence() -> Evidence:
    return _variant_evidence(
        odd_moment_c, "shifted_sigma", "C", 1, ((1, 3), (2, 5)),
        "sigma argument y = n - 1/2", "sigma argument y = n",
    )


def check_d_odd_sign_evidence() -> Evidence:
    return _variant_evidence(
        odd_moment_d, "sign_first_term_only", "D", 1, ((1, 2), (2, 3)),
        "(-1)^l on the diagonal bracket term only", "(-1)^l on both terms",
    )


def check_c_even_sign_evidence() -> Evidence:
    return _variant_evidence(
        even_moment_c, "global_sign", "C", 0, ((1, 2), (1, 3)),
        "global factor (-1)^n", "alternating factor (-1)^l per term",
    )


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _run_check(name: str, check, *args) -> CheckResult:
    """Run one check and name its result: a witness fails it, none passes
    it.  An exception it raises fails that check, with "<Type>: <message>"
    as witness and the raising frame as detail, and leaves the remaining
    checks to run."""
    try:
        cases, witness, *details = check(*args)
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
        return CheckResult(
            name, "fail", 0, {"error": f"{type(exc).__name__}: {exc}"}, {"raised_at": where}
        )
    return CheckResult(name, "pass" if witness is None else "fail", cases, witness, *details)


def run_verification(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the full invariant suite and return a deterministic report.

    The table is the one place that names each check; a check with a
    family gate runs only when that family is selected.  It is built per
    call, so a ``check_*`` replaced on the module is the one that runs.
    """
    if not isinstance(config, VerifyConfig):
        raise DomainError(f"run_verification needs a VerifyConfig, got {config!r}")
    table = (
        # name, family gate, check, arguments
        ("oracle-vs-theorem-grid", None, check_oracle_vs_theorem, config),
        ("oracle-vs-corollary-table", None, check_oracle_vs_corollary, config),
        ("c-even-two-bracket-forms", "C", check_bracket_form_agreement, config),
        ("lambda-vanishing-identity", None, check_lambda_identity, config),
        ("power-expansion-residual", None, check_lemma_residuals, config),
        ("bracket-symmetry", None, check_bracket_symmetry),
        ("bracket-recurrence", None, check_bracket_recurrence),
        ("bracket-negative-index-inverse", None, check_bracket_inverse),
        ("sigma-three-way", None, check_sigma_three_way, config),
        ("sigma-poly-shape", None, check_sigma_poly_shape, config),
        ("series-telescoping-step", None, check_series_telescoping, config),
        ("b-even-vanishing", "B", check_b_even_vanishing, config),
        ("c-even-parity-shape", "C", check_c_even_parity_shape, config),
        ("warmup-closed-forms", None, check_warmup_forms, config),
        ("variant-evidence-c-odd-sigma-argument", "C", check_c_odd_argument_evidence),
        ("variant-evidence-c-even-global-sign", "C", check_c_even_sign_evidence),
        ("variant-evidence-d-odd-sign-placement", "D", check_d_odd_sign_evidence),
    )
    report = VerifyReport(config)
    for name, family, check, *args in table:
        if family is None or family in config.families:
            report.checks.append(_run_check(name, check, *args))
    return report
