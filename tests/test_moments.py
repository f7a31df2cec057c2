import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_moments.errors import (
    DomainError,
    GuardViolated,
    NoClosedFormKnown,
    NotTabulated,
    PreconditionViolated,
)
from binomial_moments.moments import (
    COROLLARIES,
    MomentQuery,
    b1_second_form,
    closed_form,
    corollary_value,
    evaluate,
    even_moment_b,
    even_moment_c,
    lambda_check,
    lemma1_residual,
    odd_moment_c,
    odd_moment_d,
    oracle,
)

F = Fraction

small_fraction = st.fractions(min_value=-12, max_value=12, max_denominator=7)


class TestQueryValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            MomentQuery("E", 1, 1)
        with pytest.raises(DomainError):
            MomentQuery("A", -1, 1)
        with pytest.raises(DomainError):
            MomentQuery("A", 1, 0)

    @pytest.mark.parametrize("m, n", [(2.0, 3), (2, 3.0), (True, 3), (2, True), (F(2), 3)])
    def test_rejects_non_int_exponent_and_size(self, m, n):
        # a float would leak into the exact sums (A_2.0(3) summed to 48.0)
        with pytest.raises(DomainError):
            MomentQuery("A", m, n)


class TestOracle:
    def test_known_values(self):
        assert oracle(MomentQuery("A", 1, 2)) == 6
        assert oracle(MomentQuery("C", 2, 2)) == 3
        assert oracle(MomentQuery("D", 1, 2)) == 9
        assert oracle(MomentQuery("B", 2, 1)) == 1
        assert oracle(MomentQuery("B", 2, 2)) == 0

    @given(family=st.sampled_from("AB"), m=st.integers(0, 12), n=st.integers(1, 80))
    @settings(max_examples=100, deadline=None)
    def test_integer_sum_matches_fraction_reference(self, family, m, n):
        ref = Fraction(0)
        for k in range(1, n + 1):
            term = Fraction(math.comb(2 * n, n - k)) * k**m
            ref += -term if family == "B" and k % 2 == 0 else term
        got = oracle(MomentQuery(family, m, n))
        assert type(got) is Fraction and got == ref

    def test_sign_pattern(self):
        # the m = 0 sums pair up: A_0(n) + B_0(n) = 2^(2n-1)
        for n in range(1, 10):
            assert oracle(MomentQuery("A", 0, n)) + oracle(MomentQuery("B", 0, n)) == 2 ** (
                2 * n - 1
            )


class TestClosedForm:
    def test_examples(self):
        assert closed_form(MomentQuery("A", 4, 2)).value == 20
        assert closed_form(MomentQuery("B", 6, 5)).value == 0
        r = closed_form(MomentQuery("C", 1, 2))
        assert r.value == oracle(MomentQuery("C", 1, 2))
        assert r.value == corollary_value(MomentQuery("C", 1, 2)).value
        assert r.method == "theorem"

    def test_guards(self):
        with pytest.raises(NoClosedFormKnown):
            closed_form(MomentQuery("D", 0, 5))
        with pytest.raises(NoClosedFormKnown):
            closed_form(MomentQuery("D", 6, 3))
        for family in "ABC":
            with pytest.raises(PreconditionViolated):
                closed_form(MomentQuery(family, 0, 5))
        with pytest.raises(PreconditionViolated):
            closed_form(MomentQuery("C", 3, 2))  # odd C needs n > t + 1 = 2
        assert closed_form(MomentQuery("C", 3, 3)).value == -28

    def test_matches_oracle_on_small_grid(self):
        for family in "ABCD":
            for m in range(0, 6):
                for n in range(1, 13):
                    q = MomentQuery(family, m, n)
                    try:
                        r = closed_form(q)
                    except (PreconditionViolated, NoClosedFormKnown):
                        continue
                    assert r.value == oracle(q), (family, m, n)

    @pytest.mark.parametrize("n", [100, 150])
    @pytest.mark.parametrize(
        "family, m",
        [(f, m) for f in "ABCD" for m in (1, 2, 7, 8) if (f, m % 2) != ("D", 0)],
    )
    def test_matches_oracle_at_large_n(self, family, m, n):
        q = MomentQuery(family, m, n)
        assert closed_form(q).value == oracle(q)

    def test_even_b_vanishing(self):
        for t in range(1, 5):
            for n in range(t + 1, 16):
                assert even_moment_b(t, n) == 0


class TestCorollaryValue:
    def test_examples(self):
        assert corollary_value(MomentQuery("A", 2, 3)).value == 48
        assert corollary_value(MomentQuery("B", 2, 1)).value == 1
        assert corollary_value(MomentQuery("B", 2, 2)).value == 0
        assert corollary_value(MomentQuery("B", 1, 3)).value == 6
        assert corollary_value(MomentQuery("D", 1, 2)).value == 9

    def test_b1_second_form_agrees(self):
        for n in range(1, 20):
            assert corollary_value(MomentQuery("B", 1, n)).value == b1_second_form(n)

    def test_not_tabulated(self):
        with pytest.raises(NotTabulated):
            corollary_value(MomentQuery("A", 11, 3))
        with pytest.raises(NotTabulated):
            corollary_value(MomentQuery("D", 2, 3))

    def test_guards(self):
        with pytest.raises(GuardViolated):
            corollary_value(MomentQuery("C", 9, 5))  # needs n >= 6
        with pytest.raises(GuardViolated):
            corollary_value(MomentQuery("B", 6, 3))  # zero form needs n > 3
        assert corollary_value(MomentQuery("C", 9, 6)).method == "corollary"

    def test_guards_sit_on_poles(self):
        # below each guard the printed denominator vanishes, so the printed
        # forms cannot extend further down
        guarded = [(fam, m, e) for (fam, m), e in COROLLARIES.items() if fam == "C" and m % 2 == 1]
        for fam, m, entry in guarded:
            t = (m - 1) // 2
            assert entry.min_n == t + 2

    def test_rendered_latex(self):
        assert COROLLARIES[("A", 2)].latex() == "2^{2n-2}n"
        assert COROLLARIES[("B", 2)].latex() == r"\chi(n=1)"
        assert COROLLARIES[("C", 1)].latex() == (
            r"(-1)^n\frac{2n+1}{8(n-1)}+\genfrac{[}{]}{0pt}{}{2n}{n}\frac{2n-1}{8(n-1)}"
        )

    def test_whole_table_matches_oracle(self):
        for (family, m), entry in sorted(COROLLARIES.items()):
            for n in range(entry.min_n, 16):
                assert entry.value(n) == oracle(MomentQuery(family, m, n)), (family, m, n)


class TestRoutesAgree:
    """Inside every printed guard the three routes give one value; below a
    guard the printed form refuses with GuardViolated."""

    @given(family=st.sampled_from("ABCD"), m=st.integers(0, 12), n=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_three_routes(self, family, m, n):
        q = MomentQuery(family, m, n)
        entry = COROLLARIES.get((family, m))
        if entry is None:
            with pytest.raises(NotTabulated):
                corollary_value(q)
            return
        if n < entry.min_n:
            with pytest.raises(GuardViolated):
                corollary_value(q)
            return
        want = oracle(q)
        assert corollary_value(q).value == want
        if m == 0:  # the symmetrised even-power theorem needs exponent >= 2
            with pytest.raises(PreconditionViolated):
                closed_form(q)
        else:
            assert closed_form(q).value == want

    def test_every_guard_refuses_just_below(self):
        guarded = [(key, e.min_n) for key, e in COROLLARIES.items() if e.min_n > 1]
        assert guarded
        for (family, m), min_n in guarded:
            with pytest.raises(GuardViolated):
                corollary_value(MomentQuery(family, m, min_n - 1))
            assert corollary_value(MomentQuery(family, m, min_n)).value == oracle(
                MomentQuery(family, m, min_n)
            )


class TestVariantEvidence:
    def test_c_odd_sigma_argument(self):
        for t, n in ((1, 3), (2, 5)):
            target = oracle(MomentQuery("C", 2 * t + 1, n))
            assert odd_moment_c(t, n, shifted_sigma=True) == target
            assert odd_moment_c(t, n, shifted_sigma=False) != target

    def test_d_odd_sign_placement(self):
        for t, n in ((1, 2), (2, 3)):
            target = oracle(MomentQuery("D", 2 * t + 1, n))
            assert odd_moment_d(t, n, sign_first_term_only=True) == target
            assert odd_moment_d(t, n, sign_first_term_only=False) != target

    def test_c_even_global_sign(self):
        for t, n in ((1, 2), (1, 3), (2, 4)):
            target = oracle(MomentQuery("C", 2 * t, n))
            assert even_moment_c(t, n, global_sign=True) == target
            assert even_moment_c(t, n, global_sign=False) != target


class TestIdentities:
    def test_lambda_check_examples(self):
        assert lambda_check(1, 3) == 0
        assert lambda_check(4, 6) == 0
        for n in range(1, 8):
            assert lambda_check(0, n) == 0

    def test_lambda_check_grid(self):
        for m in range(0, 7):
            for n in range(1, 11):
                assert lambda_check(m, n) == 0

    def test_lambda_check_validation(self):
        with pytest.raises(DomainError):
            lambda_check(1, 0)
        with pytest.raises(DomainError):
            lambda_check(-1, 3)

    @pytest.mark.parametrize("m, n", [(True, 3), (1, True), (1.0, 3), (1, 3.0), (F(1), 3)])
    def test_lambda_check_rejects_non_int(self, m, n):
        lambda_check(1, 3)  # warm every cache the check reads
        with pytest.raises(DomainError):
            lambda_check(m, n)

    @pytest.mark.parametrize("m", [True, 2.0, F(2)])
    def test_lemma_residual_rejects_non_int(self, m):
        assert lemma1_residual(1, 1, 2) == 0
        with pytest.raises(DomainError):
            lemma1_residual(m, 1, 2)

    @pytest.mark.parametrize(
        "x, y", [(0.1, 2), (1, float("nan")), (float("nan"), 2), (True, 2), (1, "2"), (1, 2.0)]
    )
    def test_lemma_residual_rejects_inexact(self, x, y):
        with pytest.raises(DomainError):
            lemma1_residual(1, x, y)

    def test_lemma_residual_examples(self):
        assert lemma1_residual(0, F(5, 3), F(-2)) == 0
        assert lemma1_residual(1, F(2), F(5)) == 0
        assert lemma1_residual(3, F(7, 2), F(-2, 3)) == 0

    @given(m=st.integers(0, 6), x=small_fraction, y=small_fraction)
    @settings(max_examples=150, deadline=None)
    def test_lemma_residual_random(self, m, x, y):
        assert lemma1_residual(m, x, y) == 0


class TestEvaluate:
    def test_dispatch(self):
        q = MomentQuery("A", 2, 3)
        assert evaluate(q, "oracle").value == 48
        assert evaluate(q, "theorem").value == 48
        assert evaluate(q, "corollary").value == 48
        with pytest.raises(DomainError):
            evaluate(q, "guess")
