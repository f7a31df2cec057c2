from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_moments.errors import DomainError, NegativeIndexPole
from binomial_moments.exact import (
    HALF,
    _rising_half,
    binomial,
    bracket,
    central_binomial,
    falling,
    rising,
)

F = Fraction

nonint_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=9
).filter(lambda q: q.denominator > 1)
any_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=9)


class TestRisingFalling:
    def test_empty_products_are_one(self):
        for x in (F(0), F(1), F(-7, 3), F(11, 2)):
            assert rising(x, 0) == 1
            assert falling(x, 0) == 1

    def test_known_values(self):
        assert rising(F(1, 2), 4) == F(105, 16)
        assert rising(F(1, 2), -1) == -2
        assert falling(5, 2) == 20
        assert falling(F(7, 2), 3) == F(105, 8)

    def test_negative_index_is_reciprocal_shift(self):
        # (x)_{-k} * (x-k)_k == 1
        for x in (F(1, 2), F(-3, 4), F(9, 2)):
            for k in range(1, 6):
                assert rising(x, -k) * rising(x - k, k) == 1
                assert falling(x, -k) * falling(x + k, k) == 1

    def test_poles_raise(self):
        with pytest.raises(NegativeIndexPole):
            rising(3, -5)  # x in {1..5}
        with pytest.raises(NegativeIndexPole):
            falling(-2, -3)  # x in {-1..-3}
        rising(6, -5)  # x outside the pole set is fine
        falling(1, -3)

    @given(x=nonint_fractions, a=st.integers(-6, 6), b=st.integers(-6, 6))
    @settings(max_examples=150, deadline=None)
    def test_shift_identity(self, x, a, b):
        # non-integer x never hits a pole, so both sides are always defined
        assert rising(x, a + b) == rising(x, a) * rising(x + a, b)

    @given(x=any_fractions, n=st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_reflection(self, x, n):
        assert falling(x, n) == (-1) ** n * rising(-x, n)


class TestBinomial:
    def test_known_values(self):
        assert binomial(4, 2) == 6
        assert binomial(-3, 2) == 6
        assert binomial(1, 3) == 0
        assert binomial(10, -2) == 0
        assert binomial(F(1, 2), 2) == F(-1, 8)

    @given(x=any_fractions, k=st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_matches_falling_quotient(self, x, k):
        import math

        assert binomial(x, k) == falling(x, k) / math.factorial(k)


class TestBracket:
    def test_known_values(self):
        assert bracket(4, 2) == F(35, 3)
        assert bracket(4, 1) == 7
        assert bracket(2, -1) == F(-1, 5)
        assert bracket(4, -1) == F(-1, 9)
        assert bracket(4, -1) == -1 / bracket(5, 1)

    def test_lower_zero_is_one(self):
        for n in range(0, 13):
            assert bracket(n, 0) == 1

    def test_symmetry(self):
        for n in range(0, 25):
            for k in range(0, n + 1):
                assert bracket(n, k) == bracket(n, n - k)

    def test_recurrence(self):
        for n in range(1, 12):
            factor = F(4 * n - 1, 2 * (2 * n - 1))
            for k in range(-n, n + 1):
                assert bracket(2 * n, n - k) == factor * (
                    bracket(2 * n - 1, n - k) + bracket(2 * n - 1, n - k - 1)
                )

    def test_negative_lower_inverse_identities(self):
        for n in range(2, 12):
            for ell in range(1, n):
                assert bracket(2 * n - 2 * ell, -ell) == (-1) ** ell / bracket(2 * n - ell, ell)
                assert bracket(2 * n - 2 * ell, -ell - 1) == (-1) ** (ell + 1) / bracket(
                    2 * n - ell + 1, ell + 1
                )

    @given(n=st.integers(-10, 20), k=st.integers(-10, 20))
    @settings(max_examples=200, deadline=None)
    def test_total_on_integers(self, n, k):
        v = bracket(n, k)
        assert v != 0  # a quotient of nonzero half-integer Pochhammers

    @given(u=st.integers(-80, 160), ell=st.integers(-80, 160))
    @settings(max_examples=300, deadline=None)
    def test_matches_pochhammer_quotient(self, u, ell):
        # covers the comb form (0 <= l <= u) and the factorial forms of
        # (1/2)_j for both signs of j
        assert bracket(u, ell) == rising(HALF, u) / (rising(HALF, ell) * rising(HALF, u - ell))

    @given(j=st.integers(-80, 160))
    @settings(max_examples=200, deadline=None)
    def test_rising_half_closed_form(self, j):
        assert _rising_half(j) == rising(HALF, j)


class TestIndexTypes:
    @pytest.mark.parametrize("index", [2.0, True, F(2), "2", None])
    @pytest.mark.parametrize("route", [rising, falling, binomial])
    def test_index_must_be_int(self, route, index):
        with pytest.raises(DomainError):
            route(F(7, 2), index)

    @pytest.mark.parametrize("upper, lower", [(5, 2.0), (5.0, 2), (True, 0), (4, False), (F(5), 2)])
    def test_bracket_indices_must_be_int(self, upper, lower):
        with pytest.raises(DomainError):
            bracket(upper, lower)

    def test_negative_indices_are_checked_too(self):
        with pytest.raises(DomainError):
            rising(F(1, 3), -2.0)
        with pytest.raises(DomainError):
            binomial(3, -1.0)
        with pytest.raises(DomainError):
            bracket(-3, -1.0)


class TestCentralBinomial:
    def test_known_values(self):
        assert central_binomial(0) == 1
        assert central_binomial(3) == 20
        assert central_binomial(5) == 252

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            central_binomial(-1)

    def test_matches_generalized_binomial(self):
        for n in range(0, 15):
            assert central_binomial(n) == binomial(2 * n, n)
