"""The invariant suite behind ``moments verify``.

Every identity the package relies on is checked on explicit grids with
exact arithmetic (no tolerances anywhere): oracle vs closed form, oracle
vs printed table, the vanishing identity, the even-power expansion
residual, bracket structure, the three sigma routes, the series-level
telescoping step, and the evidence for each reading of the ambiguous
closed-form variants.  The report is deterministic for a fixed config
(including the seed of the random rational panels), so two runs are
byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import moments
from .errors import ConsistencyError, DomainError
from .exact import HALF, bracket, central_binomial, falling, rising
from .moments import (
    COROLLARIES,
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

ALL_FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class VerifyConfig:
    families: tuple[str, ...] = ALL_FAMILIES
    m_max: int = 8
    n_max: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.families or any(f not in ALL_FAMILIES for f in self.families):
            raise DomainError(f"families must be a nonempty subset of {ALL_FAMILIES}")
        if self.m_max < 0:
            raise DomainError(f"m_max must be >= 0, got {self.m_max}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    cases: int
    witness: Optional[dict] = None
    details: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cases": self.cases,
            "witness": self.witness,
            "details": self.details,
        }


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
            "config": {
                "families": list(self.config.families),
                "m_max": self.config.m_max,
                "n_max": self.config.n_max,
                "seed": self.config.seed,
            },
            "all_pass": self.all_pass,
            "checks": [c.to_dict() for c in self.checks],
        }


def _passfail(name: str, cases: int, witness: Optional[dict], details: Optional[dict] = None) -> CheckResult:
    return CheckResult(name, "fail" if witness else "pass", cases, witness, details)


def _rand_fraction(rng: random.Random, span: int = 30, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


# ---------------------------------------------------------------------------
# Grid checks.
# ---------------------------------------------------------------------------


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


def check_oracle_vs_theorem(config: VerifyConfig) -> CheckResult:
    cases = 0
    witness = None
    for family in config.families:
        for m in range(0, config.m_max + 1):
            for n in _theorem_domain(family, m, config.n_max):
                q = MomentQuery(family, m, n)
                lhs = moments.closed_form(q).value
                rhs = oracle(q)
                cases += 1
                if lhs != rhs:
                    witness = {"family": family, "m": m, "n": n, "lhs": str(lhs), "rhs": str(rhs)}
                    return _passfail("oracle-vs-theorem-grid", cases, witness)
    return _passfail("oracle-vs-theorem-grid", cases, witness)


def check_oracle_vs_corollary(config: VerifyConfig) -> CheckResult:
    cases = 0
    for (family, m), entry in sorted(COROLLARIES.items()):
        if family not in config.families:
            continue
        for n in range(entry.min_n, config.n_max + 1):
            lhs = entry.value(n)
            rhs = oracle(MomentQuery(family, m, n))
            cases += 1
            if lhs != rhs:
                witness = {"family": family, "m": m, "n": n, "lhs": str(lhs), "rhs": str(rhs)}
                return _passfail("oracle-vs-corollary-table", cases, witness)
    return _passfail("oracle-vs-corollary-table", cases, None)


def check_bracket_form_agreement(config: VerifyConfig) -> CheckResult:
    """The two printed shapes of the even-C closed form agree term by term."""
    cases = 0
    witness = None
    for t in range(1, config.m_max // 2 + 1):
        for n in range(1, config.n_max + 1):
            try:
                even_moment_c(t, n)  # compares both forms internally
            except ConsistencyError as exc:
                witness = {"t": t, "n": n, "error": str(exc)}
                return _passfail("c-even-two-bracket-forms", cases, witness)
            cases += 1
    return _passfail("c-even-two-bracket-forms", cases, witness)


def check_lambda_identity(config: VerifyConfig) -> CheckResult:
    cases = 0
    for m in range(0, config.m_max + 1):
        for n in range(1, config.n_max + 1):
            cases += 1
            v = lambda_check(m, n)
            if v != 0:
                return _passfail(
                    "lambda-vanishing-identity", cases, {"m": m, "n": n, "value": str(v)}
                )
    return _passfail("lambda-vanishing-identity", cases, None)


def check_lemma_residuals(config: VerifyConfig, pairs_per_m: int = 50) -> CheckResult:
    rng = random.Random(config.seed)
    cases = 0
    for m in range(0, config.m_max + 1):
        for _ in range(pairs_per_m):
            x = _rand_fraction(rng)
            y = _rand_fraction(rng)
            cases += 1
            r = lemma1_residual(m, x, y)
            if r != 0:
                return _passfail(
                    "power-expansion-residual",
                    cases,
                    {"m": m, "x": str(x), "y": str(y), "residual": str(r)},
                )
    return _passfail("power-expansion-residual", cases, None)


# ---------------------------------------------------------------------------
# Bracket structure.
# ---------------------------------------------------------------------------


def check_bracket_symmetry(n_top: int = 40) -> CheckResult:
    cases = 0
    for n in range(0, n_top + 1):
        for k in range(0, n + 1):
            cases += 1
            if bracket(n, k) != bracket(n, n - k):
                return _passfail("bracket-symmetry", cases, {"n": n, "k": k})
    return _passfail("bracket-symmetry", cases, None)


def check_bracket_recurrence(n_top: int = 30) -> CheckResult:
    cases = 0
    for n in range(1, n_top + 1):
        factor = Fraction(4 * n - 1, 2 * (2 * n - 1))  # (2n - 1/2)/(2n - 1)
        for k in range(-n, n + 1):
            cases += 1
            lhs = bracket(2 * n, n - k)
            rhs = factor * (bracket(2 * n - 1, n - k) + bracket(2 * n - 1, n - k - 1))
            if lhs != rhs:
                return _passfail(
                    "bracket-recurrence", cases, {"n": n, "k": k, "lhs": str(lhs), "rhs": str(rhs)}
                )
    return _passfail("bracket-recurrence", cases, None)


def check_bracket_inverse(n_top: int = 20) -> CheckResult:
    cases = 0
    for n in range(2, n_top + 1):
        for ell in range(1, n):
            cases += 1
            a = bracket(2 * n - 2 * ell, -ell)
            if a * bracket(2 * n - ell, ell) != (-1) ** ell:
                return _passfail("bracket-negative-index-inverse", cases, {"n": n, "l": ell, "id": 1})
            b = bracket(2 * n - 2 * ell, -ell - 1)
            if b * bracket(2 * n - ell + 1, ell + 1) != (-1) ** (ell + 1):
                return _passfail("bracket-negative-index-inverse", cases, {"n": n, "l": ell, "id": 2})
    return _passfail("bracket-negative-index-inverse", cases, None)


# ---------------------------------------------------------------------------
# Sigma structure.
# ---------------------------------------------------------------------------


def _sigma_panel(rng: random.Random) -> list[Fraction]:
    panel = [Fraction(k) for k in range(1, 13)]
    panel += [Fraction(2 * k - 1, 2) for k in range(1, 13)]
    panel += [_rand_fraction(rng) for _ in range(20)]
    return panel


def check_sigma_three_way(config: VerifyConfig) -> CheckResult:
    rng = random.Random(config.seed + 1)
    panel = _sigma_panel(rng)
    cases = 0
    for m in range(0, config.m_max + 1):
        for ell in range(0, m + 1):
            for y in panel:
                a = sigma_series(m, ell, y)
                b = sigma_monomial(m, ell, y)
                cases += 1
                if a != b:
                    return _passfail(
                        "sigma-three-way",
                        cases,
                        {"m": m, "l": ell, "y": str(y), "series": str(a), "monomial": str(b)},
                    )
                if falling(2 * y, 1 + 2 * ell) != 0:
                    c = sigma_explicit(m, ell, y)
                    cases += 1
                    if a != c:
                        return _passfail(
                            "sigma-three-way",
                            cases,
                            {"m": m, "l": ell, "y": str(y), "series": str(a), "explicit": str(c)},
                        )
    return _passfail("sigma-three-way", cases, None)


def check_sigma_poly_shape(config: VerifyConfig) -> CheckResult:
    cases = 0
    for m in range(0, config.m_max + 1):
        for ell in range(0, m + 1):
            p = sigma_poly(m, ell)
            cases += 1
            if p.degree != 2 * (m - ell) or p.leading != math.comb(m, ell):
                return _passfail(
                    "sigma-poly-shape",
                    cases,
                    {"m": m, "l": ell, "degree": p.degree, "leading": str(p.leading)},
                )
            for k in range(1, 4):
                y = Fraction(2 * k - 1, 2)
                cases += 1
                if p(y) != sigma_series(m, ell, y):
                    return _passfail("sigma-poly-shape", cases, {"m": m, "l": ell, "y": str(y)})
    return _passfail("sigma-poly-shape", cases, None)


def _lambda_series(n: int, ell: int, order: int, extra_factor: bool) -> TruncatedSeries:
    """The series (1/2)_{2n} T^l / ((1/2)_{n-l}^2 prod_{j<l} (1 - T(n-j-1/2)^2)),
    with the product extended to j = l when extra_factor is set."""
    c = rising(HALF, 2 * n) / rising(HALF, n - ell) ** 2
    s = TruncatedSeries.monomial(ell, order).scale(c)
    top = ell + 1 if extra_factor else ell
    for j in range(top):
        s = s * geometric(Fraction(2 * n - 2 * j - 1, 2) ** 2, order)
    return s


def check_series_telescoping(config: VerifyConfig, n_top: int = 10) -> CheckResult:
    """Consecutive terms of the vanishing-identity kernel collapse:
    lambda_l + lambda_{l+1} equals lambda_l with one extra geometric factor."""
    order = max(config.m_max, 1)
    cases = 0
    for n in range(1, n_top + 1):
        for ell in range(0, config.m_max + 1):
            lhs = _lambda_series(n, ell, order, False) + _lambda_series(n, ell + 1, order, False)
            rhs = _lambda_series(n, ell, order, True)
            cases += 1
            if lhs != rhs:
                return _passfail("series-telescoping-step", cases, {"n": n, "l": ell})
    return _passfail("series-telescoping-step", cases, None)


# ---------------------------------------------------------------------------
# Family-specific structure.
# ---------------------------------------------------------------------------


def check_b_even_vanishing(config: VerifyConfig) -> CheckResult:
    cases = 0
    for t in range(1, config.m_max + 1):
        for n in range(t + 1, config.n_max + 1):
            cases += 1
            v = even_moment_b(t, n)
            if v != 0:
                return _passfail("b-even-vanishing", cases, {"t": t, "n": n, "value": str(v)})
    return _passfail("b-even-vanishing", cases, None)


def check_c_even_parity_shape(config: VerifyConfig) -> CheckResult:
    """(-1)^n C_{2t}(n) / (n(n+1)) is a positive rational once every
    denominator factor of the printed form is positive (n > t)."""
    cases = 0
    for t in range(1, config.m_max // 2 + 1):
        for n in range(t + 1, config.n_max + 1):
            cases += 1
            v = oracle(MomentQuery("C", 2 * t, n)) * (-1) ** n / (n * (n + 1))
            if v <= 0:
                return _passfail("c-even-parity-shape", cases, {"t": t, "n": n, "value": str(v)})
    return _passfail("c-even-parity-shape", cases, None)


def check_warmup_forms(config: VerifyConfig) -> CheckResult:
    """The hand-telescoped small cases, including the second printed shape
    of the m = 1 alternating binomial sum."""
    cases = 0
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
            cases += 1
            got = oracle(MomentQuery(family, m, n))
            if got != expected:
                return _passfail(
                    "warmup-closed-forms",
                    cases,
                    {"family": family, "m": m, "n": n, "lhs": str(expected), "rhs": str(got)},
                )
    return _passfail("warmup-closed-forms", cases, None)


# ---------------------------------------------------------------------------
# Evidence for the ambiguous closed-form readings.
# ---------------------------------------------------------------------------


def _variant_evidence(name, chosen, rejected, witnesses, evaluate) -> CheckResult:
    """evaluate(witness, variant_flag) -> value; oracle decides the reading."""
    rows = []
    ok = True
    for w in witnesses:
        target = w["oracle"]
        chosen_val = evaluate(w, True)
        rejected_val = evaluate(w, False)
        rows.append(
            {
                **{k: v for k, v in w.items() if k != "oracle"},
                "oracle": str(target),
                "chosen_value": str(chosen_val),
                "rejected_value": str(rejected_val),
            }
        )
        if chosen_val != target or rejected_val == target:
            ok = False
    details = {"chosen": chosen, "rejected": rejected, "witnesses": rows}
    return CheckResult(name, "pass" if ok else "fail", len(witnesses), None if ok else details, details)


def check_c_odd_argument_evidence() -> CheckResult:
    witnesses = [
        {"t": 1, "n": 3, "oracle": oracle(MomentQuery("C", 3, 3))},
        {"t": 2, "n": 5, "oracle": oracle(MomentQuery("C", 5, 5))},
    ]
    return _variant_evidence(
        "variant-evidence-c-odd-sigma-argument",
        "sigma argument y = n - 1/2",
        "sigma argument y = n",
        witnesses,
        lambda w, flag: odd_moment_c(w["t"], w["n"], shifted_sigma=flag),
    )


def check_d_odd_sign_evidence() -> CheckResult:
    witnesses = [
        {"t": 1, "n": 2, "oracle": oracle(MomentQuery("D", 3, 2))},
        {"t": 2, "n": 3, "oracle": oracle(MomentQuery("D", 5, 3))},
    ]
    return _variant_evidence(
        "variant-evidence-d-odd-sign-placement",
        "(-1)^l on the diagonal bracket term only",
        "(-1)^l on both terms",
        witnesses,
        lambda w, flag: odd_moment_d(w["t"], w["n"], sign_first_term_only=flag),
    )


def check_c_even_sign_evidence() -> CheckResult:
    witnesses = [
        {"t": 1, "n": 2, "oracle": oracle(MomentQuery("C", 2, 2))},
        {"t": 1, "n": 3, "oracle": oracle(MomentQuery("C", 2, 3))},
    ]
    return _variant_evidence(
        "variant-evidence-c-even-global-sign",
        "global factor (-1)^n",
        "alternating factor (-1)^l per term",
        witnesses,
        lambda w, flag: even_moment_c(w["t"], w["n"], global_sign=flag),
    )


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def run_verification(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the full invariant suite and return a deterministic report."""
    report = VerifyReport(config)
    add = report.checks.append

    add(check_oracle_vs_theorem(config))
    add(check_oracle_vs_corollary(config))
    if "C" in config.families:
        add(check_bracket_form_agreement(config))
    add(check_lambda_identity(config))
    add(check_lemma_residuals(config))
    add(check_bracket_symmetry())
    add(check_bracket_recurrence())
    add(check_bracket_inverse())
    add(check_sigma_three_way(config))
    add(check_sigma_poly_shape(config))
    add(check_series_telescoping(config))
    if "B" in config.families:
        add(check_b_even_vanishing(config))
    if "C" in config.families:
        add(check_c_even_parity_shape(config))
    add(check_warmup_forms(config))
    if "C" in config.families:
        add(check_c_odd_argument_evidence())
        add(check_c_even_sign_evidence())
    if "D" in config.families:
        add(check_d_odd_sign_evidence())
    return report
