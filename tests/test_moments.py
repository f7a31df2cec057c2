import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_moments import moments
from binomial_moments.conjecture import ClosedFormCandidate
from binomial_moments.errors import (
    DomainError,
    GuardViolated,
    NoClosedFormKnown,
    NotTabulated,
    PreconditionViolated,
)
from binomial_moments.exact import HALF, binomial, bracket, central_binomial, falling, rising
from binomial_moments.moments import (
    COROLLARIES,
    PREFACTORS,
    Ansatz,
    AnsatzTerm,
    MomentQuery,
    _int_roots,
    _odd_roots,
    b1_second_form,
    c_even_first_form,
    closed_form,
    corollary_value,
    evaluate,
    even_moment_a,
    even_moment_b,
    even_moment_c,
    lambda_check,
    lemma1_residual,
    odd_moment_a,
    odd_moment_b,
    odd_moment_c,
    odd_moment_d,
    oracle,
)
from binomial_moments.sigma import sigma_row_ints, sigma_series
from binomial_moments.verify import VerifyConfig, check_lambda_identity, check_lemma_residuals

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

    @pytest.mark.parametrize(
        "name, method",
        [
            ("oracle", None),
            ("closed_form", None),
            ("corollary_value", None),
            ("evaluate", "oracle"),
            ("evaluate", "theorem"),
            ("evaluate", "corollary"),
        ],
    )
    @pytest.mark.parametrize("q", ["A", ("A", 2, 3), None, 3], ids=["str", "tuple", "none", "int"])
    def test_routes_refuse_a_non_query(self, name, method, q):
        # before, each raised AttributeError: ... has no attribute 'family'
        args = (q,) if method is None else (q, method)
        with pytest.raises(DomainError, match=f"^{name} needs a MomentQuery"):
            getattr(moments, name)(*args)

    def test_oracle_leaves_an_unhashable_argument_to_its_cache(self):
        with pytest.raises(TypeError):
            oracle(["A", 2, 3])


def split_from(family):
    """The least n at which the oracle sums ``family`` by binary splitting."""
    return 1024 if family in "AB" else 1


def whole_walk(family, m, n):
    """The defining sum as one walk of exact int steps from k = n down to 1."""
    ab = family in "AB"
    den = 1 if ab else math.prod(range(1, 2 * n, 2))
    w, total = den, 0
    for k in range(n, 0, -1):
        term = w * k**m
        total += -term if family in "BC" and k % 2 == 0 else term
        if ab:
            w = w * (n + k) // (n - k + 1)
        else:
            w = w * (2 * n + 2 * k - 1) // (2 * n - 2 * k + 1)
    return Fraction(total, den)


class TestOracle:
    def test_known_values(self):
        assert oracle(MomentQuery("A", 1, 2)) == 6
        assert oracle(MomentQuery("C", 2, 2)) == 3
        assert oracle(MomentQuery("D", 1, 2)) == 9
        assert oracle(MomentQuery("B", 2, 1)) == 1
        assert oracle(MomentQuery("B", 2, 2)) == 0

    @given(family=st.sampled_from("ABCD"), m=st.integers(0, 12), n=st.integers(1, 80))
    @settings(max_examples=100, deadline=None)
    def test_integer_sum_matches_fraction_reference(self, family, m, n):
        ref = Fraction(0)
        for k in range(1, n + 1):
            if family in "AB":
                w = Fraction(math.comb(2 * n, n - k))
            else:
                w = bracket(2 * n, n - k)
            term = w * k**m
            ref += -term if family in "BC" and k % 2 == 0 else term
        got = oracle(MomentQuery(family, m, n))
        assert type(got) is Fraction and got == ref

    @given(family=st.sampled_from("ABCD"), m=st.integers(0, 12), n=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_per_term_sum(self, family, m, n):
        # the reference builds every weight from scratch, as the oracle once
        # did: a math.comb for A and B, a bracket over (2n-1)!! for C and D
        ab = family in "AB"
        den = 1 if ab else math.prod(range(1, 2 * n, 2))
        total = 0
        for k in range(1, n + 1):
            if ab:
                w = math.comb(2 * n, n - k)
            else:
                b = bracket(2 * n, n - k)
                w = b.numerator * (den // b.denominator)
            term = w * k**m
            total += -term if family in "BC" and k % 2 == 0 else term
        got = oracle.__wrapped__(MomentQuery(family, m, n))
        assert type(got) is Fraction and got == Fraction(total, den)

    def test_reads_no_bracket(self, monkeypatch):
        # the oracle-vs-theorem check compares two separate implementations,
        # below and above the size where A and B start to split
        queries = [
            MomentQuery(family, 5, n) for family in "ABCD" for n in (12, split_from("A") + 1)
        ]
        expected = [closed_form(q).value for q in queries]
        imported = [
            name
            for name, obj in vars(moments).items()
            if callable(obj)
            and not inspect.isclass(obj)
            and getattr(obj, "__module__", "").startswith("binomial_moments.")
            and obj.__module__ != moments.__name__
        ]
        assert {"bracket", "binomial", "sigma_row_ints", "require_ints", "_poly_text"} <= set(
            imported
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called another module of the package")

        for name in imported:
            monkeypatch.setattr(moments, name, refuse)
        monkeypatch.setattr("binomial_moments.exact.bracket", refuse)
        assert [oracle.__wrapped__(q) for q in queries] == expected

    @pytest.mark.parametrize(
        "family, n",
        [
            (family, c * split_from(family) + d)
            for family in "AB"
            for c in (1, 2, 4)
            for d in (-1, 0, 1)
        ]
        # one leaf up to 32 terms, then two, then deeper trees
        + [
            (family, n)
            for family in "CD"
            for n in (1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257)
        ]
        + [(family, 3000) for family in "ABCD"],
    )
    def test_split_matches_the_whole_walk(self, monkeypatch, family, n):
        splits = []
        split = moments._split
        monkeypatch.setattr(moments, "_split", lambda *args: splits.append(args) or split(*args))
        for m in (0, 1, 2, 9, 12):
            got = oracle.__wrapped__(MomentQuery(family, m, n))
            assert type(got) is Fraction and got == whole_walk(family, m, n), m
        assert bool(splits) == (n >= split_from(family))

    @pytest.mark.parametrize("family", "ABCD")
    @pytest.mark.parametrize("n, hi, lo", [(5, 5, 1), (40, 40, 1), (300, 300, 1), (300, 180, 3)])
    def test_split_builds_no_unread_product(self, monkeypatch, family, n, hi, lo):
        # a run down to k = 1 is never a higher half, so its P is never read
        runs = {}
        split = moments._split

        def record(*args):
            runs[args[-2:]] = out = split(*args)
            return out

        monkeypatch.setattr(moments, "_split", record)
        s = 1 if family in "AB" else 2
        record(s, family in "BC", 3, n, hi, lo)
        assert (hi, lo) in runs
        for (top, bottom), (p, _, _) in runs.items():
            numerators = math.prod(range(s * (n + bottom) - s + 1, s * (n + top) - s + 2, s))
            assert p == (None if bottom == 1 else numerators), (top, bottom)

    def test_double_factorial_clears_every_bracket(self):
        # the common denominator the C/D oracle sums over
        for n in range(1, 301):
            den = math.prod(range(1, 2 * n, 2))
            for k in range(1, n + 1):
                assert den % bracket(2 * n, n - k).denominator == 0

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

    @pytest.mark.parametrize("n", [0, -3, 1.5, 2.0, True])
    def test_b1_second_form_refuses_outside_its_domain(self, n):
        # before, 0 and -3 gave 0, and 1.5 failed inside binomial
        with pytest.raises(DomainError, match="^b1_second_form"):
            b1_second_form(n)

    def test_not_tabulated(self):
        with pytest.raises(NotTabulated):
            corollary_value(MomentQuery("A", 11, 3))
        with pytest.raises(NotTabulated):
            corollary_value(MomentQuery("D", 2, 3))

    def test_validity_note_names_the_guard_only_when_there_is_one(self):
        assert corollary_value(MomentQuery("A", 2, 3)).validity_note is None
        assert (
            corollary_value(MomentQuery("C", 9, 6)).validity_note
            == "printed form valid for n >= 6"
        )

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


# Each prefactor at n and shift c as a Fraction, from the exact layer and
# Fraction arithmetic only: a reference independent of the int pairs that
# moments._PREFACTOR gives.
REFERENCE_PREFACTOR = {
    "unit": lambda n, c: F(1),
    "sign": lambda n, c: F((-1) ** n),
    "central": lambda n, c: central_binomial(n),
    "bracket": lambda n, c: bracket(2 * n, n),
    "power2": lambda n, c: F(2) ** (2 * n + c),
}


def reference_prefactor(t, n):
    return REFERENCE_PREFACTOR[t.prefactor](n, t.shift)


def reference_basis(ansatz, n):
    """prefactor(n) * n^j / root_product(n) for every term and j, in Fraction."""
    return [
        reference_prefactor(t, n) * n**j / math.prod(a * n + b for a, b in t.roots)
        for t in ansatz.terms
        for j in range(t.degree + 1)
    ]


def reference_value(ansatz, coeffs, n):
    """The term-by-term Fraction sum: prefactor(n) * poly(n) / root_product(n)."""
    total, i = F(0), 0
    for t in ansatz.terms:
        poly = sum(c * n**j for j, c in enumerate(coeffs[i : i + t.degree + 1]))
        total += reference_prefactor(t, n) * F(poly) / math.prod(a * n + b for a, b in t.roots)
        i += t.degree + 1
    return total


@st.composite
def ansatze(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        prefactor = draw(st.sampled_from(PREFACTORS))
        shift = draw(st.integers(-4, 4)) if prefactor == "power2" else 0
        count = draw(st.integers(0, 3))
        menu = [_odd_roots(count, 1), _odd_roots(count, 3), _int_roots(count)]
        roots = draw(st.sampled_from(menu))
        terms.append(AnsatzTerm(prefactor, draw(st.integers(0, 4)), roots, shift))
    return Ansatz(tuple(terms))


class TestAnsatzEvaluator:
    @given(ansatz=ansatze(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_int_row_matches_fraction_reference(self, ansatz, data):
        u = ansatz.unknowns
        nums = data.draw(st.lists(st.integers(-50, 50), min_size=u, max_size=u))
        den = data.draw(st.integers(1, 12))
        coeffs = tuple(data.draw(st.lists(small_fraction, min_size=u, max_size=u)))
        candidate = ClosedFormCandidate("D", 0, ansatz, coeffs, (), (), "refuted")
        excluded = ansatz.excluded_ns()
        for n in range(1, 13):
            if n in excluded:
                continue
            ints, row_den = ansatz.basis_row(n)
            assert type(row_den) is int and row_den > 0
            assert all(type(v) is int for v in ints)
            assert [F(v, row_den) for v in ints] == reference_basis(ansatz, n)
            got = ansatz.value(nums, n, den)
            assert type(got) is F
            assert got == reference_value(ansatz, nums, n) / den
            assert candidate.value_at(n) == reference_value(ansatz, coeffs, n)

    def test_negative_root_product(self):
        # (2n-3)(2n-5) = -1 at n = 2, below the second root
        ansatz = Ansatz((AnsatzTerm("bracket", 1, _odd_roots(2, 3)),))
        ints, den = ansatz.basis_row(2)
        assert den > 0
        assert [F(v, den) for v in ints] == [-bracket(4, 2), -2 * bracket(4, 2)]
        assert ansatz.value((2, 1), 2, 2) == -2 * bracket(4, 2)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, F(5, 2), "3"])
    def test_rejects_non_int_n(self, n):
        ansatz = Ansatz((AnsatzTerm("power2", 1, shift=-2),))
        with pytest.raises(DomainError):
            ansatz.basis_row(n)
        with pytest.raises(DomainError):
            ansatz.value((0, 1), n)
        for key in (("A", 2), ("B", 2), ("C", 1)):
            with pytest.raises(DomainError):
                COROLLARIES[key].value(n)

    def test_rejects_a_denominator_root(self):
        ansatz = Ansatz((AnsatzTerm("unit", 0), AnsatzTerm("sign", 1, _int_roots(2))))
        for n in (1, 2):
            with pytest.raises(DomainError):
                ansatz.basis_row(n)
        # the unit term is 2/2; the sign term is (-1)^3 n^j / 2 at n = 3
        assert ansatz.basis_row(3) == ([2, -1, -3], 2)

    @pytest.mark.parametrize("n", [0, -1, -3])
    @pytest.mark.parametrize("prefactor", PREFACTORS)
    def test_rejects_n_below_one(self, prefactor, n):
        ansatz = Ansatz((AnsatzTerm(prefactor, 1, shift=-1 if prefactor == "power2" else 0),))
        candidate = ClosedFormCandidate("D", 0, ansatz, (F(1), F(1, 2)), (), (), "refuted")
        with pytest.raises(DomainError):
            ansatz.basis_row(n)
        with pytest.raises(DomainError):
            ansatz.value((1, 2), n)
        with pytest.raises(DomainError):
            candidate.value_at(n)

    @pytest.mark.parametrize("n", [0, -1, -3])
    @pytest.mark.parametrize("family, m", [("A", 1), ("A", 4), ("D", 1)])
    def test_printed_form_rejects_n_below_one(self, family, m, n):
        with pytest.raises(DomainError):
            COROLLARIES[(family, m)].value(n)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Ansatz(("x",)),
            lambda: Ansatz([AnsatzTerm("unit", 0)]),
            lambda: Ansatz((AnsatzTerm("unit", 0), None)),
            lambda: Ansatz((AnsatzTerm("unit", 1),)).value(iter([1, 2]), 3),
            lambda: Ansatz((AnsatzTerm("unit", 1),)).value({0: 1, 1: 2}, 3),
        ],
        ids=["term-not-ansatz-term", "terms-list", "term-none", "coeffs-iterator", "coeffs-dict"],
    )
    def test_rejects_malformed_input(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize(
        "coeffs", [(1,), (1, 2, 3), (1, 0.5), (True, 1), (1, "2"), (1, F(1, 2))]
    )
    def test_rejects_bad_coefficients(self, coeffs):
        with pytest.raises(DomainError):
            Ansatz((AnsatzTerm("central", 1),)).value(coeffs, 3)

    @pytest.mark.parametrize("den", [0, -2, 2.0, True, F(1, 2)])
    def test_rejects_bad_denominator(self, den):
        with pytest.raises(DomainError):
            Ansatz((AnsatzTerm("central", 1),)).value((1, 2), 3, den)


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


# References for the seven closed forms: each theorem summed term by term
# in Fraction arithmetic, over sigma_{t,l} from the series route.


def fraction_row(t, y):
    return [sigma_series(t, ell, y) for ell in range(t + 1)]


def even_a_reference(t, n):
    row = fraction_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += (-1) ** ell * F(2) ** (2 * n - 2 * ell - 1) * falling(2 * n, 2 * ell) * row[ell]
    return total


def odd_a_reference(t, n):
    row = fraction_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += (-1) ** ell * falling(n, ell) * falling(n, ell + 1) * row[ell]
    return central_binomial(n) * total / 2


def even_b_reference(t, n):
    row = fraction_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += falling(2 * n, 2 * ell) * binomial(ell, 2 * n - ell) * row[ell]
    return (-1) ** (n - 1) * total / 2


def odd_b_reference(t, n):
    row = fraction_row(t, n)
    total = Fraction(0)
    for ell in range(t + 1):
        total += (
            (-1) ** ell
            * falling(2 * n, 2 * ell)
            * binomial(2 * n - 2 * ell - 2, n - ell - 1)
            * row[ell]
        )
    return total


def even_c_reference(t, n, global_sign=True):
    row = fraction_row(t, F(2 * n - 1, 2))
    total = Fraction(0)
    for ell in range(t + 1):
        term = (
            rising(HALF, ell)
            * rising(HALF, ell + 1)
            / (2 * n - 2 * ell - 1)
            * bracket(2 * n, ell)
            * row[ell]
        )
        total += term if global_sign or ell % 2 == 0 else -term
    return (-1) ** n * total if global_sign else total


def odd_c_reference(t, n, shifted_sigma=True):
    if n <= t + 1:
        raise PreconditionViolated(f"odd C closed form requires n > {t + 1}, got n={n}")
    row = fraction_row(t, F(2 * n - 1, 2) if shifted_sigma else F(n))
    total = Fraction(0)
    for ell in range(t + 1):
        inner = F(2 * n - 2 * ell - 1, n - ell - 1) * bracket(2 * n - 2 * ell, n - ell)
        inner += (
            (-1) ** n
            * F((2 * n + 1) * (2 * ell + 1), n - ell - 1)
            * bracket(2 * n - 2 * ell, -ell)
        )
        total += (-1) ** ell * falling(F(4 * n - 1, 2), 2 * ell) * inner * row[ell]
    return total / 8


def odd_d_reference(t, n, sign_first_term_only=True):
    row = fraction_row(t, F(2 * n - 1, 2))
    total = Fraction(0)
    for ell in range(t + 1):
        first = (-1) ** ell * F(2 * n - 2 * ell - 1, 4) * bracket(2 * n - 2 * ell, n - ell)
        second = F(2 * ell + 1, 4) / bracket(2 * n - ell, ell)
        if not sign_first_term_only:
            second *= (-1) ** ell
        total += falling(F(4 * n - 1, 2), 2 * ell) * (first + second) * row[ell]
    return total


# (form, its reference, the switch and its readings)
CLOSED_FORMS = [
    (even_moment_a, even_a_reference, None, (None,)),
    (odd_moment_a, odd_a_reference, None, (None,)),
    (even_moment_b, even_b_reference, None, (None,)),
    (odd_moment_b, odd_b_reference, None, (None,)),
    (even_moment_c, even_c_reference, "global_sign", (True, False)),
    (odd_moment_c, odd_c_reference, "shifted_sigma", (True, False)),
    (odd_moment_d, odd_d_reference, "sign_first_term_only", (True, False)),
]
READINGS = [
    pytest.param(form, ref, {} if switch is None else {switch: r}, id=f"{form.__name__}-{r}")
    for form, ref, switch, readings in CLOSED_FORMS
    for r in readings
]


def outcome(fn, *args, **kwargs):
    try:
        value = fn(*args, **kwargs)
    except PreconditionViolated as exc:
        return ("precondition", str(exc))
    return ("value", value, type(value))


class TestDiagonalBrackets:
    def test_ladder_matches_bracket_ints(self):
        # n <= t steps past the diagonal's origin to negative upper indices
        for t in range(13):
            for n in range(1, 81):
                ladder = moments._diagonal_brackets(n, t)
                assert len(ladder) == t + 1
                for ell, (num, den) in enumerate(ladder):
                    expected = moments._bracket_ints(2 * n - 2 * ell, n - ell)
                    assert Fraction(num, den) == Fraction(*expected), (t, n, ell)

    @given(t=st.integers(0, 12), n=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_odd_b_ladder_matches_a_comb_per_term(self, t, n):
        row, _ = sigma_row_ints(t, n)
        total = 0
        for ell in range(min(t, n - 1) + 1):
            k = n - ell - 1
            term = math.perm(2 * n, 2 * ell) * math.comb(2 * k, k) * row[ell]
            total += -term if ell % 2 else term
        assert odd_moment_b(t, n) == total


class TestIntClosedForms:
    """The int sums equal the term-by-term Fraction sums they replace, at
    every reading of every switch, from t = 0 and n = 1 up."""

    @pytest.mark.parametrize("form, reference, kwargs", READINGS)
    @given(t=st.integers(0, 12), n=st.integers(1, 80) | st.integers(200, 650))
    @settings(max_examples=50, deadline=None)
    def test_matches_fraction_reference(self, form, reference, kwargs, t, n):
        assert outcome(form, t, n, **kwargs) == outcome(reference, t, n, **kwargs)

    @pytest.mark.parametrize("form, reference, kwargs", READINGS)
    def test_matches_fraction_reference_on_a_grid(self, form, reference, kwargs):
        for t in range(0, 7):
            for n in range(1, 2 * t + 4):
                assert outcome(form, t, n, **kwargs) == outcome(reference, t, n, **kwargs)


EVALUATORS = [form for form, _, _, _ in CLOSED_FORMS] + [c_even_first_form]


@pytest.mark.parametrize("t", range(1, 5))
def test_c_even_first_form_matches_the_oracle(t):
    for n in range(1, 9):
        assert c_even_first_form(t, n) == oracle(MomentQuery("C", 2 * t, n)), n


@pytest.mark.parametrize(
    "t, n",
    [
        (1, 2.0),
        (1, 3.0),
        (1, True),
        (1, "4"),
        (1, F(4)),
        (1, 0),
        (1, -2),
        (1.0, 4),
        (True, 4),
        (-1, 4),
    ],
)
@pytest.mark.parametrize("form", EVALUATORS, ids=lambda f: f.__name__)
def test_closed_forms_reject_arguments_outside_their_domain(form, t, n):
    # an int sum such as 4 ** (n - l) would carry a float n into the value
    form(1, 4)  # warm every cache the form reads
    with pytest.raises(DomainError):
        form(t, n)


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


def lambda_reference(m, n):
    """Reference for ``lambda_check``: the same sum with one Fraction per
    product, reading sigma through ``moments.sigma_series`` as the check does."""
    y = Fraction(2 * n - 1, 2)
    half_arg = Fraction(4 * n - 1, 2)
    total = Fraction(0)
    for ell in range(m + 1):
        total += (
            (-1) ** ell
            * falling(half_arg, 2 * ell)
            * bracket(2 * n - 2 * ell, n - ell)
            * moments.sigma_series(m, ell, y)
        )
    if m == 0:
        total -= bracket(2 * n, n)
    return total


def lemma_reference(m, x, y):
    """Reference for ``lemma1_residual``: the same sum with one Fraction per
    product, reading sigma through ``moments.sigma_series`` as the check does."""
    x = Fraction(x)
    y = Fraction(y)
    total = Fraction(0)
    for ell in range(m + 1):
        total += (
            (-1) ** ell
            * falling(y + x, ell)
            * falling(y - x, ell)
            * moments.sigma_series(m, ell, y)
        )
    return x ** (2 * m) - total


# Numerators and denominators up to 10^3, negative values, and ints.
wide_rational = st.one_of(
    st.builds(Fraction, st.integers(-(10**3), 10**3), st.integers(1, 10**3)),
    st.integers(-50, 50),
)


@st.composite
def lemma_points(draw):
    """(x, y) free, or on an edge: y = 0, x = y or x = -y."""
    x, y = draw(wide_rational), draw(wide_rational)
    edge = draw(st.sampled_from(["free", "y = 0", "x = y", "x = -y"]))
    if edge == "y = 0":
        y = 0
    elif edge == "x = y":
        x = y
    elif edge == "x = -y":
        x = -y
    return x, y


def corrupt_sigma(bad):
    """``moments.sigma_series`` with 1/7 added to every entry at l = bad."""

    def wrong(m, ell, y):
        v = sigma_series(m, ell, y)
        return v + Fraction(1, 7) if ell == bad else v

    return wrong


class TestIdentitiesMatchFractionReferences:
    @given(m=st.integers(0, 8), xy=lemma_points())
    @settings(max_examples=300, deadline=None)
    def test_lemma_residual(self, m, xy):
        got = lemma1_residual(m, *xy)
        assert got == lemma_reference(m, *xy) == 0 and type(got) is Fraction

    @given(m=st.integers(0, 8), n=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_lambda_check(self, m, n):
        got = lambda_check(m, n)
        assert got == lambda_reference(m, n) == 0 and type(got) is Fraction

    @given(m=st.integers(0, 8), xy=lemma_points(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lemma_residual_of_a_wrong_sigma(self, m, xy, data):
        bad = data.draw(st.integers(0, m))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "sigma_series", corrupt_sigma(bad))
            got = lemma1_residual(m, *xy)
            assert got == lemma_reference(m, *xy) and type(got) is Fraction

    @given(m=st.integers(0, 8), n=st.integers(1, 40), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lambda_check_of_a_wrong_sigma(self, m, n, data):
        bad = data.draw(st.integers(0, m))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "sigma_series", corrupt_sigma(bad))
            got = lambda_check(m, n)
            assert got == lambda_reference(m, n) != 0 and type(got) is Fraction

    def test_wrong_sigma_residuals_are_pinned(self, monkeypatch):
        monkeypatch.setattr(moments, "sigma_series", corrupt_sigma(1))
        assert lemma1_residual(2, F(1, 3), F(-5, 2)) == F(221, 252)
        assert lambda_check(1, 2) == F(-15, 4)
        assert lambda_check(2, 3) == F(-165, 4)

    def test_failing_reports_keep_their_witnesses(self, monkeypatch):
        monkeypatch.setattr(moments, "sigma_series", corrupt_sigma(2))
        config = VerifyConfig(m_max=3, n_max=5, seed=7)
        got = (check_lemma_residuals(config), check_lambda_identity(config))
        assert got[0][1] is not None and got[1][1] is not None
        monkeypatch.setattr("binomial_moments.verify.lemma1_residual", lemma_reference)
        monkeypatch.setattr("binomial_moments.verify.lambda_check", lambda_reference)
        assert got == (check_lemma_residuals(config), check_lambda_identity(config))

    def test_lambda_check_reads_brackets_from_exact(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lambda_check read the theorem route's brackets")

        monkeypatch.setattr(moments, "_bracket_ints", refuse)
        assert lambda_check(4, 9) == 0


class TestEvaluate:
    def test_dispatch(self):
        q = MomentQuery("A", 2, 3)
        assert evaluate(q, "oracle").value == 48
        assert evaluate(q, "theorem").value == 48
        assert evaluate(q, "corollary").value == 48
        with pytest.raises(DomainError):
            evaluate(q, "guess")
