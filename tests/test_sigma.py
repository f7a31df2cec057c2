import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_moments.errors import DenominatorPole, DomainError
from binomial_moments.exact import falling
from binomial_moments.series import Polynomial
from binomial_moments.sigma import (
    sigma_explicit,
    sigma_monomial,
    sigma_poly,
    sigma_row,
    sigma_series,
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


INEXACT_Y = [0.1, 2.0, float("nan"), True, "1/2", None]


@pytest.mark.parametrize("y", INEXACT_Y)
@pytest.mark.parametrize("route", [sigma_series, sigma_monomial, sigma_explicit])
def test_rejects_inexact_argument(route, y):
    with pytest.raises(DomainError):
        route(1, 0, y)


@pytest.mark.parametrize("y", INEXACT_Y)
def test_row_rejects_inexact_argument(y):
    assert sigma_row(2, 2) == (16, 5, 1)  # warm the typed cache at y = 2
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


class TestSigmaRow:
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
