"""Acceptance suite: every exit criterion on its stated grid, all exact.

Each test prints one PASS line on success; any failure is a hard assert
with the offending grid point in the message.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from binomial_moments.conjecture import rediscover_all
from binomial_moments.errors import NoClosedFormKnown, PreconditionViolated
from binomial_moments.exact import bracket, falling
from binomial_moments.moments import (
    COROLLARIES,
    MomentQuery,
    closed_form,
    even_moment_b,
    lambda_check,
    lemma1_residual,
    oracle,
)
from binomial_moments.sigma import sigma_explicit, sigma_monomial, sigma_series
from binomial_moments.verify import VerifyConfig, run_verification

F = Fraction

M_MAX = 8
N_MAX = 30

TESTS = Path(__file__).resolve().parent


def _ok(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS")


def test_criterion_1_grid_equivalence():
    start = time.perf_counter()
    cases = 0
    for family in "ABCD":
        for m in range(0, M_MAX + 1):
            for n in range(1, N_MAX + 1):
                q = MomentQuery(family, m, n)
                try:
                    value = closed_form(q).value
                except (PreconditionViolated, NoClosedFormKnown):
                    continue
                assert value == oracle(q), f"{family} m={m} n={n}"
                cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 830
    assert elapsed <= 60, f"grid took {elapsed:.1f}s"
    _ok(1, f"oracle/theorem grid equivalence, {cases} points in {elapsed:.1f}s")


def test_criterion_2_corollary_reproduction():
    cases = 0
    for (family, m), entry in sorted(COROLLARIES.items()):
        for n in range(entry.min_n, N_MAX + 1):
            assert entry.value(n) == oracle(MomentQuery(family, m, n)), f"{family}{m} n={n}"
            cases += 1
    anchors = [("A", 2, 3, 48), ("B", 2, 1, 1), ("B", 2, 2, 0), ("C", 2, 2, 3), ("D", 1, 2, 9)]
    for family, m, n, expected in anchors:
        q = MomentQuery(family, m, n)
        assert oracle(q) == expected
        assert COROLLARIES[(family, m)].value(n) == expected
    _ok(2, f"all printed formulas match oracle, {cases} points plus anchors")


def test_criterion_3_sigma_three_way():
    rng = random.Random(20240811)
    panel = [F(k) for k in range(1, 13)]
    panel += [F(2 * k - 1, 2) for k in range(1, 13)]
    panel += [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(20)]
    cases = 0
    for m in range(0, M_MAX + 1):
        for ell in range(0, m + 1):
            for y in panel:
                a = sigma_series(m, ell, y)
                assert a == sigma_monomial(m, ell, y), (m, ell, y)
                cases += 1
                if falling(2 * y, 1 + 2 * ell) != 0:
                    assert a == sigma_explicit(m, ell, y), (m, ell, y)
                    cases += 1
    _ok(3, f"sigma three-way agreement, {cases} comparisons")


def test_criterion_4_lemma_residuals():
    rng = random.Random(61803)
    for m in range(0, M_MAX + 1):
        for _ in range(50):
            x = F(rng.randint(-30, 30), rng.randint(1, 12))
            y = F(rng.randint(-30, 30), rng.randint(1, 12))
            assert lemma1_residual(m, x, y) == 0, (m, x, y)
    _ok(4, "power-expansion residual zero on 50 random pairs per m <= 8")


def test_criterion_5_lambda_identity():
    for m in range(1, M_MAX + 1):
        for n in range(1, 21):
            assert lambda_check(m, n) == 0, (m, n)
    _ok(5, "vanishing identity on 1 <= m <= 8, 1 <= n <= 20")


def test_criterion_6_b_even_vanishing():
    cases = 0
    for t in range(1, M_MAX + 1):
        for n in range(t + 1, N_MAX + 1):
            assert even_moment_b(t, n) == 0, (t, n)
            assert oracle(MomentQuery("B", 2 * t, n)) == 0, (t, n)
            cases += 1
    _ok(6, f"even alternating sums vanish for n > t, {cases} points")


def test_criterion_7_bracket_structure():
    for n in range(0, 41):
        for k in range(0, n + 1):
            assert bracket(n, k) == bracket(n, n - k)
    for n in range(1, 31):
        factor = F(4 * n - 1, 2 * (2 * n - 1))
        for k in range(-n, n + 1):
            assert bracket(2 * n, n - k) == factor * (
                bracket(2 * n - 1, n - k) + bracket(2 * n - 1, n - k - 1)
            )
    for n in range(2, 21):
        for ell in range(1, n):
            assert bracket(2 * n - 2 * ell, -ell) * bracket(2 * n - ell, ell) == (-1) ** ell
            assert bracket(2 * n - 2 * ell, -ell - 1) * bracket(2 * n - ell + 1, ell + 1) == (
                -1
            ) ** (ell + 1)
    _ok(7, "bracket symmetry, recurrence, and negative-index inverses")


def test_criterion_8_rediscovery():
    report = rediscover_all()
    assert report.all_ok, [e.printed.label for e in report.failures()]
    for e in report.entries:
        assert e.candidate.status == "verified", e.printed.label
        assert e.candidate.coefficients == e.printed.expected, e.printed.label
        disjoint = set(e.candidate.verified_on) - set(e.candidate.fitted_on)
        assert len(disjoint) >= 10, e.printed.label
    degree_12 = next(e for e in report.entries if e.printed.label == "C10")
    assert degree_12.printed.ansatz.terms[0].degree == 14  # n(n+1) x degree-12 numerator
    degree_9 = next(e for e in report.entries if e.printed.label == "C7")
    assert degree_9.printed.ansatz.terms[0].degree == 10  # (2n+1) x degree-9 numerator
    _ok(8, f"{len(report.entries)} printed formulas refit coefficient-for-coefficient")


def test_criterion_9_variant_evidence_recorded():
    report = run_verification(VerifyConfig(m_max=4, n_max=8, seed=0)).to_dict()
    by_name = {c["name"]: c for c in report["checks"]}
    for name in (
        "variant-evidence-c-odd-sigma-argument",
        "variant-evidence-d-odd-sign-placement",
        "variant-evidence-c-even-global-sign",
    ):
        check = by_name[name]
        assert check["status"] == "pass", name
        witnesses = check["details"]["witnesses"]
        assert len(witnesses) >= 2, name
        for w in witnesses:
            assert w["chosen_value"] == w["oracle"]
            assert w["rejected_value"] != w["oracle"]
    chosen = by_name["variant-evidence-c-odd-sigma-argument"]["details"]["chosen"]
    assert chosen == "sigma argument y = n - 1/2"
    _ok(9, "ambiguous-reading resolutions recorded with oracle witnesses")


def test_flagship_cli_verify_run(tmp_path):
    # the headline run: every check at full grid size through the CLI
    from binomial_moments.cli import main

    out = tmp_path / "report.json"
    code = main(["verify", "--m-max", str(M_MAX), "--n-max", str(N_MAX), "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    assert report["all_pass"] is True
    assert all(c["status"] == "pass" for c in report["checks"])
    _ok("*", f"flagship verify run, {len(report['checks'])} checks all pass")


def test_criterion_10_verify_determinism():
    cmd = [
        sys.executable,
        "-m",
        "binomial_moments.cli",
        "verify",
        "--m-max",
        "3",
        "--n-max",
        "8",
        "--seed",
        "3",
    ]
    # the checkout's src first, so the run needs no installed package
    path = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["all_pass"] is True
    _ok(10, "byte-identical verify reports for identical config and seed")


def test_verify_report_matches_pinned_bytes():
    """The report of the criterion-10 config, byte for byte as pinned."""
    golden = (TESTS / "verify_report_m3_n8_seed3.json").read_bytes()
    report = run_verification(VerifyConfig(m_max=3, n_max=8, seed=3))
    assert json.dumps(report.to_dict(), indent=2).encode() == golden
