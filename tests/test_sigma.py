import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_moments import moments, sigma
from binomial_moments.errors import DenominatorPole, DomainError
from binomial_moments.exact import binomial, falling
from binomial_moments.series import Polynomial, geometric, series_mul
from binomial_moments.sigma import (
    sigma_explicit,
    sigma_monomial,
    sigma_poly,
    sigma_row,
    sigma_row_ints,
    sigma_series,
)
from binomial_moments.moments import lambda_check, lemma1_residual
from binomial_moments.verify import (
    VerifyConfig,
    check_lambda_identity,
    check_lemma_residuals,
    check_sigma_three_way,
)

F = Fraction

fractions_y = st.fractions(min_value=-15, max_value=15, max_denominator=8)
# the closed forms read sigma at integers n and half-integers n - 1/2
half_integers_y = st.integers(-31, 31).map(lambda k: Fraction(k, 2))


def test_top_index_is_one():
    for m in range(0, 7):
        for y in (F(0), F(3), F(-5, 2), F(7, 3)):
            assert sigma_series(m, m, y) == 1
            assert sigma_monomial(m, m, y) == 1


@given(y=fractions_y)
@settings(max_examples=60, deadline=None)
def test_first_nontrivial_values(y):
    assert sigma_series(1, 0, y) == y**2
    assert sigma_monomial(2, 0, y) == y**4
    assert sigma_series(2, 1, y) == y**2 + (y - 1) ** 2


def test_monomial_enumeration_example():
    # tuples (0,0), (0,1), (1,1) with shifts 25 and 16
    assert sigma_monomial(3, 1, F(5)) == 25 * 25 + 25 * 16 + 16 * 16 == 1281


def test_explicit_known_values():
    assert sigma_explicit(0, 0, F(3)) == 1
    assert sigma_explicit(1, 0, F(4)) == 16
    assert sigma_explicit(1, 1, F(5, 2)) == 1


def test_explicit_pole_raises():
    # falling(2y, 3) vanishes at y = 1 when l = 1
    with pytest.raises(DenominatorPole):
        sigma_explicit(1, 1, F(1))


def test_invalid_arguments():
    with pytest.raises(DomainError):
        sigma_series(2, 3, F(1))
    with pytest.raises(DomainError):
        sigma_monomial(-1, 0, F(1))
    with pytest.raises(DomainError):
        sigma_row(-1, F(1))


@pytest.mark.parametrize("m, ell", [(True, True), (1, True), (2.0, 1), (2, 1.0), (F(2), 1)])
@pytest.mark.parametrize("route", [sigma_series, sigma_monomial, sigma_explicit])
def test_rejects_non_int_indices(route, m, ell):
    with pytest.raises(DomainError):
        route(m, ell, F(7, 2))


INEXACT_Y = [0.1, 2.0, float("nan"), True, "1/2", None, [1]]


@pytest.mark.parametrize("y", INEXACT_Y)
@pytest.mark.parametrize("route", [sigma_series, sigma_monomial, sigma_explicit])
def test_rejects_inexact_argument(route, y):
    with pytest.raises(DomainError):
        route(1, 0, y)


@pytest.mark.parametrize("y", INEXACT_Y)
def test_row_rejects_inexact_argument(y):
    assert sigma_row(2, 2) == (16, 5, 1)  # warm the cache at y = 2
    with pytest.raises(DomainError):
        sigma_row(2, y)


def test_rejects_non_int_indices_with_warm_cache():
    # lru_cache alone would serve True and 2.0 from the entries of 1 and 2
    assert sigma_series(1, 1, 3) == 1
    assert sigma_series(2, 1, 3) == 13
    assert sigma_row(1, 3) == (9, 1)
    with pytest.raises(DomainError):
        sigma_series(True, True, 3)
    with pytest.raises(DomainError):
        sigma_series(2.0, 1, 3)
    for m in (True, 1.0):
        with pytest.raises(DomainError):
            sigma_row(m, 3)
    with pytest.raises(DomainError):
        sigma_poly(True, 0)


def test_three_way_agreement_grid():
    panel = (
        [F(k) for k in range(1, 9)]
        + [F(2 * k - 1, 2) for k in range(1, 9)]
        + [F(7, 3), F(-5, 4), F(0)]
    )
    for m in range(0, 6):
        for ell in range(0, m + 1):
            for y in panel:
                a = sigma_series(m, ell, y)
                assert a == sigma_monomial(m, ell, y)
                if falling(2 * y, 1 + 2 * ell) != 0:
                    assert a == sigma_explicit(m, ell, y)


@given(m=st.integers(0, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_three_way_agreement_random(m, data):
    ell = data.draw(st.integers(0, m))
    y = data.draw(fractions_y)
    a = sigma_series(m, ell, y)
    assert a == sigma_monomial(m, ell, y)
    if falling(2 * y, 1 + 2 * ell) != 0:
        assert a == sigma_explicit(m, ell, y)


def test_series_caches_one_row_per_m_and_y():
    sigma._sigma_series.cache_clear()
    assert [sigma_series(3, ell, F(5)) for ell in range(4)] == [15625, 1281, 50, 1]
    assert sigma_series(3, 1, 5) == 1281  # an int y hits the Fraction entry
    assert sigma_series(3, 2, F(10, 2)) == 50  # the key is y in lowest terms
    info = sigma._sigma_series.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 5)


def test_cross_check_routes_do_not_read_sigma_row(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cross-check route read sigma_row")

    monkeypatch.setattr(sigma, "_sigma_row", refuse)
    monkeypatch.setattr(sigma, "sigma_row", refuse)
    monkeypatch.setattr(sigma, "sigma_row_ints", refuse)
    # the residual checks live in moments, which imports the production row
    monkeypatch.setattr(moments, "sigma_row", refuse)
    monkeypatch.setattr(moments, "sigma_row_ints", refuse)
    sigma._sigma_series.cache_clear()
    assert sigma_series(3, 1, F(5)) == 1281
    assert sigma_monomial(3, 1, F(5)) == 1281
    assert sigma_explicit(3, 1, F(5)) == 1281
    assert check_sigma_three_way(VerifyConfig(m_max=3, n_max=1)) == (850, None)
    assert lemma1_residual(3, F(7, 2), F(-2, 3)) == 0
    assert lambda_check(3, 4) == 0
    assert check_lemma_residuals(VerifyConfig(m_max=3, n_max=1)) == (200, None)
    assert check_lambda_identity(VerifyConfig(m_max=3, n_max=2)) == (8, None)


def series_reference(m, y):
    """Reference for ``sigma._sigma_series``: the same truncated running
    product, with each factor's ratio (y - j)^2 built as a Fraction and
    passed to the checked ``geometric``."""
    y = Fraction(y)
    prod = geometric(y**2, m)
    row = [prod.coefficient(m)]
    for j in range(1, m + 1):
        prod = series_mul(prod.truncate(m - j), geometric((y - j) ** 2, m - j))
        row.append(prod.coefficient(m - j))
    return tuple(row)


@given(m=st.integers(0, 24), data=st.data())
@settings(max_examples=120, deadline=None)
def test_packed_series_row_matches_series_reference(m, data):
    # y = 0, an int in 0..m (one shift is 0, so that factor is skipped), a
    # half-integer, or p/q wide enough that the packed digits run to
    # thousands of bits
    y = data.draw(
        st.one_of(
            st.just(0),
            st.integers(0, m),
            st.integers(-(2 * m + 1), 2 * m + 1).map(lambda k: F(k, 2)),
            st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**4)),
        )
    )
    row = tuple(sigma_series(m, ell, y) for ell in range(m + 1))
    assert row == series_reference(m, y)
    assert all(type(v) is Fraction for v in row)


def monomial_reference(m, ell, y):
    """Reference for ``sigma_monomial``: the same enumeration with one
    Fraction per product."""
    y = Fraction(y)
    shifts = [(y - k) ** 2 for k in range(ell + 1)]
    total = Fraction(0)
    for tup in itertools.combinations_with_replacement(range(ell + 1), m - ell):
        total += math.prod((shifts[k] for k in tup), start=Fraction(1))
    return total


def explicit_reference(m, ell, y):
    """Reference for ``sigma_explicit``: the single sum over Fraction
    binomials, with the pole test and message the route must reproduce."""
    y = Fraction(y)
    den = falling(2 * y, 1 + 2 * ell)
    if den == 0:
        raise DenominatorPole(
            f"sigma_explicit({m}, {ell}, {y}): falling({2 * y}, {1 + 2 * ell}) = 0"
        )
    total = Fraction(0)
    for i in range(ell + 1):
        total += binomial(2 * y, i) * binomial(2 * ell - 2 * y, ell - i) * (y - i) ** (1 + 2 * m)
    return 2 * (-1) ** ell * total / den


def outcome(route, *args):
    try:
        value = route(*args)
    except DenominatorPole as exc:
        return ("pole", str(exc))
    return ("value", value, type(value))


# Large numerators and denominators, negative values, and the half-integer
# poles of the explicit form (2y in 0..2l).
wide_y = st.one_of(
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4)),
    st.integers(-21, 41).map(lambda k: Fraction(k, 2)),
    st.integers(-(10**6), 10**6),
)


@given(m=st.integers(0, 10), data=st.data())
@settings(max_examples=300, deadline=None)
def test_int_routes_match_fraction_references(m, data):
    ell = data.draw(st.integers(0, m))
    y = data.draw(wide_y)
    assert outcome(sigma_monomial, m, ell, y) == outcome(monomial_reference, m, ell, y)
    assert outcome(sigma_explicit, m, ell, y) == outcome(explicit_reference, m, ell, y)
    row = tuple(sigma_series(m, k, y) for k in range(m + 1))
    assert row == series_reference(m, y) and all(type(v) is Fraction for v in row)


def test_int_routes_match_references_at_every_pole():
    for m in range(0, 6):
        for ell in range(0, m + 1):
            for y in [Fraction(k, 2) for k in range(-4, 2 * ell + 3)]:
                got = outcome(sigma_explicit, m, ell, y)
                assert got == outcome(explicit_reference, m, ell, y)
                assert (got[0] == "pole") == (0 <= 2 * y <= 2 * ell)


def row_reference(m, y):
    """Reference for ``sigma_row``: the complete-homogeneous recurrence with
    one Fraction per product."""
    y = Fraction(y)
    shifts = [(y - j) ** 2 for j in range(m + 1)]
    row = [Fraction(1)]
    for k in range(1, m + 1):
        row = (
            [shifts[0] * row[0]]
            + [row[ell - 1] + shifts[ell] * row[ell] for ell in range(1, k)]
            + [row[k - 1]]
        )
    return tuple(row)


class TestSigmaRow:
    @given(m=st.integers(0, 14), y=wide_y)
    @settings(max_examples=300, deadline=None)
    def test_int_row_matches_fraction_reference(self, m, y):
        want = row_reference(m, y)
        ints, q = sigma_row_ints(m, y)
        assert q == Fraction(y).denominator and len(ints) == m + 1
        assert all(type(s) is int for s in ints)
        assert tuple(F(s, q ** (2 * (m - ell))) for ell, s in enumerate(ints)) == want
        got = sigma_row(m, y)
        assert got == want and all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("y", INEXACT_Y)
    def test_int_row_rejects_inexact_argument(self, y):
        assert sigma_row_ints(2, 2) == ((16, 5, 1), 1)
        with pytest.raises(DomainError):
            sigma_row_ints(2, y)

    @pytest.mark.parametrize("m", [-1, True, 1.0, F(1)])
    def test_int_row_rejects_bad_index(self, m):
        assert sigma_row_ints(1, 3) == ((9, 1), 1)
        with pytest.raises(DomainError):
            sigma_row_ints(m, 3)

    def test_int_row_keeps_the_denominator(self):
        # y = 7/2: S_l = 4^(2-l) sigma_{2,l}(7/2) = (2401, 25 + 49, 1)
        assert sigma_row_ints(2, F(7, 2)) == ((2401, 74, 1), 2)
        assert sigma_row(2, F(7, 2)) == (F(2401, 16), F(74, 4), 1)

    def test_known_rows(self):
        assert sigma_row(0, F(5)) == (1,)
        assert sigma_row(1, F(5)) == (25, 1)
        assert sigma_row(2, F(5)) == (625, 25 + 16, 1)
        assert sigma_row(3, F(5))[1] == 1281  # the monomial example above

    @given(m=st.integers(0, 24), y=st.one_of(fractions_y, half_integers_y))
    @settings(max_examples=40, deadline=None)
    def test_matches_series(self, m, y):
        assert sigma_row(m, y) == tuple(sigma_series(m, ell, y) for ell in range(m + 1))


class TestSigmaPoly:
    def test_known_polynomials(self):
        assert sigma_poly(2, 2) == Polynomial([1])
        assert sigma_poly(1, 0) == Polynomial([0, 0, 1])
        assert sigma_poly(2, 1) == Polynomial([1, -2, 2])

    def test_degree_and_leading_coefficient(self):
        for m in range(0, 7):
            for ell in range(0, m + 1):
                p = sigma_poly(m, ell)
                assert p.degree == 2 * (m - ell)
                # leading coefficient counts the weakly increasing tuples
                assert p.leading == math.comb(m, ell)

    @given(m=st.integers(0, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_evaluates_like_series(self, m, data):
        ell = data.draw(st.integers(0, m))
        y = data.draw(fractions_y)
        assert sigma_poly(m, ell)(y) == sigma_series(m, ell, y)
