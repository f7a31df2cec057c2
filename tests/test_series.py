import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_moments import series
from binomial_moments.errors import (
    ConsistencyError,
    DomainError,
    DuplicateAbscissa,
    IndexOutOfOrder,
    OrderMismatch,
)
from binomial_moments.series import (
    Polynomial,
    TruncatedSeries,
    geometric,
    poly_interpolate,
    series_mul,
)

F = Fraction


def S(coeffs, order=None):
    order = order if order is not None else len(coeffs) - 1
    return TruncatedSeries.from_coeffs([F(c) for c in coeffs], order)


small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def series_pair(order):
    coeffs = st.lists(small_fraction, min_size=order + 1, max_size=order + 1)
    return st.tuples(coeffs, coeffs).map(
        lambda cc: (S(cc[0], order), S(cc[1], order))
    )


def mixed_coeffs(order):
    """Coefficient lists with zeros and unrelated denominators mixed in."""
    coeff = st.one_of(
        st.just(F(0)),
        small_fraction,
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    )
    return st.lists(coeff, min_size=order + 1, max_size=order + 1)


def fraction_series_mul(a, b):
    """The Fraction convolution that series_mul replaced, kept as a reference."""
    n = a.order
    out = [F(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj != 0:
                out[i + j] += ai * bj
    return TruncatedSeries(n, tuple(out))


class TestSeriesArithmetic:
    def test_mul_examples(self):
        assert S([1, 1, 0]) * S([1, -1, 0]) == S([1, 0, -1])
        assert geometric(1, 3) * S([1, -1, 0, 0]) == S([1, 0, 0, 0])
        prod = geometric(2, 3) * geometric(3, 3)
        assert prod.coeffs == (F(1), F(5), F(19), F(65))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            series_mul(S([1, 2]), S([1, 2, 3]))
        with pytest.raises(OrderMismatch):
            S([1, 2]) + S([1, 2, 3])

    def test_geometric_examples(self):
        assert geometric(0, 3) == S([1, 0, 0, 0])
        assert geometric(F(1, 2), 2) == S([1, F(1, 2), F(1, 4)])
        assert geometric(F(9, 4), 2) == S([1, F(9, 4), F(81, 16)])

    def test_coefficient(self):
        assert geometric(F(7, 3), 5).coefficient(0) == 1
        assert geometric(2, 5).coefficient(3) == 8
        with pytest.raises(IndexOutOfOrder):
            geometric(2, 5).coefficient(6)
        with pytest.raises(IndexOutOfOrder):
            geometric(2, 5).coefficient(-1)

    @given(st.integers(0, 12).flatmap(lambda o: series_pair(o)))
    @settings(max_examples=80, deadline=None)
    def test_mul_commutes(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(
        st.integers(0, 12).flatmap(
            lambda o: st.tuples(series_pair(o), series_pair(o)).map(
                lambda p: (p[0][0], p[0][1], p[1][0])
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_associates_and_distributes(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(
        st.integers(0, 10).flatmap(
            lambda o: st.tuples(mixed_coeffs(o), mixed_coeffs(o)).map(
                lambda cc: (S(cc[0], o), S(cc[1], o))
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_fraction_convolution(self, pair):
        a, b = pair
        got = series_mul(a, b)
        assert got == fraction_series_mul(a, b)
        assert all(type(c) is F for c in got.coeffs)

    @given(c=small_fraction, order=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_geometric_matches_running_product(self, c, order):
        got = geometric(c, order)
        ref = [F(1)]
        for _ in range(order):
            ref.append(ref[-1] * c)
        assert got.coeffs == tuple(ref)
        assert all(type(x) is F for x in got.coeffs)

    @given(c=small_fraction, order=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_geometric_inverts_linear_factor(self, c, order):
        linear = TruncatedSeries.from_coeffs([F(1), -F(c)], order)
        assert geometric(c, order) * linear == TruncatedSeries.constant(1, order)


# A Fraction-tuple reference for the int storage: each operation on plain
# coefficient tuples, as the series layer computed them before it stored
# int numerators over one denominator.
def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_scale(c, a):
    return tuple(c * x for x in a)


def ref_mul(a, b):
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(len(a)))


def ref_geometric(c, order):
    return tuple(F(c) ** k for k in range(order + 1))


def assert_stored(got, ref):
    """got holds the coefficients ref, in the canonical stored form."""
    assert got.coeffs == ref
    assert all(type(c) is F for c in got.coeffs)
    assert got.den > 0
    assert math.gcd(got.den, *got.nums) == 1
    same = TruncatedSeries(len(ref) - 1, ref)
    assert got == same
    assert hash(got) == hash(same)


wide_scalar = st.one_of(
    st.just(F(0)),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)


def coeff_pair(order):
    """Two coefficient tuples of one order, sometimes all zero."""
    coeffs = st.one_of(st.just([F(0)] * (order + 1)), mixed_coeffs(order)).map(tuple)
    return st.tuples(coeffs, coeffs)


class TestStoredForm:
    @given(cc=st.integers(0, 10).flatmap(coeff_pair), c=wide_scalar)
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_matches_fraction_reference(self, cc, c):
        a, b = cc
        sa, sb = TruncatedSeries(len(a) - 1, a), TruncatedSeries(len(b) - 1, b)
        assert_stored(sa, a)
        assert_stored(sa + sb, ref_add(a, b))
        assert_stored(sa - sb, ref_sub(a, b))
        assert_stored(sa - sa, ref_sub(a, a))
        assert_stored(sa.scale(c), ref_scale(F(c), a))
        assert_stored(c * sa, ref_scale(F(c), a))
        assert_stored(sa * sb, ref_mul(a, b))

    @given(c=wide_scalar, order=st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_geometric_matches_fraction_reference(self, c, order):
        assert_stored(geometric(c, order), ref_geometric(c, order))

    @given(
        cc=st.integers(0, 10).flatmap(coeff_pair),
        cut=st.integers(0, 10),
        c=wide_scalar,
    )
    @settings(max_examples=100, deadline=None)
    def test_truncate_matches_fraction_reference(self, cc, cut, c):
        a, b = cc
        order = len(a) - 1
        cut = min(cut, order)
        prod = TruncatedSeries(order, a) * geometric(c, order)
        assert_stored(prod.truncate(cut), ref_mul(a, ref_geometric(c, order))[: cut + 1])
        assert_stored(TruncatedSeries(order, b).truncate(cut), b[: cut + 1])

    def test_equal_series_from_different_routes(self):
        half, third = F(1, 2), F(1, 3)
        routes = [
            S([half, third]),
            S([half, 0]) + S([0, third]),
            S([1, third]) - S([half, 0]),
            S([3, 2]).scale(F(1, 6)),
            S([-3, -2]).scale(F(-1, 6)),
            (S([half, third, 5]) * TruncatedSeries.constant(1, 2)).truncate(1),
            TruncatedSeries(1, (half, third)),
            TruncatedSeries.from_coeffs([half, third, 7], 1),
        ]
        for s in routes:
            assert s == routes[0] and hash(s) == hash(routes[0])
            assert (s.nums, s.den) == ((3, 2), 6)
        zeros = [S([0, 0]), S([half, third]) - S([half, third]), S([half, third]).scale(0)]
        for s in zeros:
            assert (s.nums, s.den) == ((0, 0), 1)
            assert s == zeros[0] and hash(s) == hash(zeros[0])
        assert geometric(F(-2, 3), 2) == S([1, F(-2, 3), F(4, 9)])
        assert (geometric(F(-2, 3), 2).nums, geometric(F(-2, 3), 2).den) == ((9, -6, 4), 9)

    @pytest.mark.parametrize("attr", ["order", "nums", "den", "coeffs", "extra"])
    def test_assigning_an_attribute_raises(self, attr):
        s = S([F(1, 2), 3])
        with pytest.raises(AttributeError):
            setattr(s, attr, 1)
        assert s == S([F(1, 2), 3])

    @pytest.mark.parametrize("order", [1.0, True, F(1), "1", None, -1, 3, 10])
    def test_truncate_refuses_bad_orders(self, order):
        with pytest.raises(DomainError):
            S([1, 2, 3]).truncate(order)

    def test_truncate_keeps_order_and_reads(self):
        s = S([F(1, 2), F(1, 3), F(1, 4)])
        assert s.truncate(2) == s
        assert s.truncate(0) == TruncatedSeries.constant(F(1, 2), 0)
        assert s.truncate(1).coeffs == (F(1, 2), F(1, 3))


class TestPolynomial:
    def test_canonical_form(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Polynomial([0, 0]).coeffs == (F(0),)
        assert Polynomial().is_zero()
        assert Polynomial([3]).degree == 0

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((0,), "0"),
            ((3,), "3"),
            ((0, 0, 1), "1*y^2"),
            ((1, 0, F(-1, 2)), "1 + -1/2*y^2"),
            ((F(2, 3), 1), "2/3 + 1*y"),
        ],
    )
    def test_str(self, coeffs, text):
        assert str(Polynomial(coeffs)) == text

    def test_arithmetic_and_eval(self):
        p = Polynomial([1, 2]) * Polynomial([-1, 1])  # (1+2y)(y-1) = -1 - y + 2y^2
        assert p == Polynomial([-1, -1, 2])
        assert p(F(3, 2)) == F(2)
        assert (p + Polynomial([1, 1])) == Polynomial([0, 0, 2])
        assert p.scale(2) == Polynomial([-2, -2, 4])


class TestInterpolation:
    def test_constant(self):
        assert poly_interpolate([(0, 1), (1, 1), (2, 1)], 2) == Polynomial([1])

    def test_square(self):
        p = poly_interpolate([(0, 0), (1, 1), (2, 4), (3, 9)], 2)
        assert p == Polynomial([0, 0, 1])

    def test_sigma_sample(self):
        # samples of y^2 + (y-1)^2 at y = 0, 1, 2
        p = poly_interpolate([(0, 1), (1, 1), (2, 5)], 2)
        assert p == Polynomial([1, -2, 2])

    def test_duplicate_abscissa(self):
        with pytest.raises(DuplicateAbscissa):
            poly_interpolate([(0, 1), (0, 2), (1, 3)], 1)

    def test_inconsistent_extra_point(self):
        with pytest.raises(ConsistencyError):
            poly_interpolate([(0, 0), (1, 1), (2, 4), (3, 10)], 2)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            poly_interpolate([(0, 0), (1, 1)], 2)

    @given(
        coeffs=st.lists(small_fraction, min_size=1, max_size=6),
        extra=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_exact(self, coeffs, extra):
        p = Polynomial(coeffs)
        bound = len(coeffs) - 1
        xs = range(-2, bound + extra - 1)
        pts = [(F(x), p(x)) for x in xs]
        got = poly_interpolate(pts, bound)
        assert got == p
        assert all(got(x) == y for x, y in pts)


ONE = S([1, 0, 0])

# Each entry called with one argument that is not exact: a float (binary
# value), a bool, a str that Fraction would parse, or a float index.
INEXACT_CALLS = {
    "geometric float c": lambda: geometric(0.1, 2),
    "geometric str c": lambda: geometric("1/2", 2),
    "geometric bool c": lambda: geometric(True, 2),
    "geometric float order": lambda: geometric(1, 2.5),
    "geometric float-valued order": lambda: geometric(1, 2.0),
    "geometric bool order": lambda: geometric(1, True),
    "geometric str order": lambda: geometric(1, "2"),
    "from_coeffs float coefficients": lambda: TruncatedSeries.from_coeffs([0.5, 2.5], 2),
    "from_coeffs str coefficient": lambda: TruncatedSeries.from_coeffs(["1/2"], 2),
    "from_coeffs float order": lambda: TruncatedSeries.from_coeffs([1], 2.0),
    "constructor float and str coefficients": lambda: TruncatedSeries(1, (0.5, "x")),
    "constructor bool coefficient": lambda: TruncatedSeries(1, (F(1), True)),
    "constructor float order": lambda: TruncatedSeries(2.0, (F(1), F(0), F(0))),
    "constructor bool order": lambda: TruncatedSeries(True, (F(1), F(0))),
    "constant float": lambda: TruncatedSeries.constant(0.5, 2),
    "monomial bool exponent": lambda: TruncatedSeries.monomial(True, 2),
    "monomial float order": lambda: TruncatedSeries.monomial(1, 2.0),
    "coefficient float index": lambda: ONE.coefficient(1.0),
    "scale float": lambda: ONE.scale(0.5),
    "series times float": lambda: ONE * 0.5,
    "float times series": lambda: 0.5 * ONE,
    "polynomial float coefficient": lambda: Polynomial([0.1]),
    "polynomial bool coefficient": lambda: Polynomial([1, False]),
    "polynomial at float": lambda: Polynomial([1, 2])(0.5),
    "polynomial scale str": lambda: Polynomial([1]).scale("2"),
    "interpolate float points": lambda: poly_interpolate([(0.5, 1), (1, 2.5)], 1),
    "interpolate float degree bound": lambda: poly_interpolate([(0, 1), (1, 2)], 1.0),
}


@pytest.mark.parametrize("call", INEXACT_CALLS.values(), ids=INEXACT_CALLS.keys())
def test_entries_reject_inexact_arguments(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("c, order", [(F(1, 2), -1), (2, -3), (0, -1)])
def test_geometric_refuses_negative_orders(c, order):
    # geometric checks every argument before it builds any power;
    # INEXACT_CALLS holds the inexact ratios and orders
    with pytest.raises(DomainError):
        geometric(c, order)


def test_int_convolution_is_read_only_by_sigma():
    package = pathlib.Path(series.__file__).parent
    readers = [p.stem for p in sorted(package.glob("*.py")) if "_convolve" in p.read_text()]
    assert readers == ["series", "sigma"]


POLY = Polynomial([1, 2])

# Each arithmetic call with an operand of the wrong kind: a scalar where a
# series (or polynomial) belongs, the other container, or no sequence.
WRONG_OPERAND_CALLS = {
    "series plus int": lambda: ONE + 1,
    "series minus Fraction": lambda: ONE - F(1, 2),
    "series plus polynomial": lambda: ONE + POLY,
    "int plus series": lambda: 1 + ONE,
    "int minus series": lambda: 1 - ONE,
    "Fraction minus series": lambda: F(1, 2) - ONE,
    "series_mul by int": lambda: series_mul(ONE, 2),
    "series_mul of int": lambda: series_mul(2, ONE),
    "series_mul by polynomial": lambda: series_mul(ONE, POLY),
    "constructor None coefficients": lambda: TruncatedSeries(1, None),
    "from_coeffs None coefficients": lambda: TruncatedSeries.from_coeffs(None, 1),
    "polynomial plus int": lambda: POLY + 1,
    "polynomial minus Fraction": lambda: POLY - F(1, 2),
    "polynomial plus series": lambda: POLY + ONE,
    "int plus polynomial": lambda: 1 + POLY,
    "int minus polynomial": lambda: 1 - POLY,
    "Fraction plus polynomial": lambda: F(1, 2) + POLY,
    "polynomial times series": lambda: POLY * ONE,
    "polynomial None coefficients": lambda: Polynomial(None),
    # before, the interpolation calls raised TypeError or ValueError
    "interpolate int points": lambda: poly_interpolate(3, 0),
    "interpolate None points": lambda: poly_interpolate(None, 0),
    "interpolate int point": lambda: poly_interpolate([1, 2], 0),
    "interpolate int after a pair": lambda: poly_interpolate([(0, 1), 5], 0),
    "interpolate 1-tuple point": lambda: poly_interpolate([(0,)], 0),
    "interpolate 3-tuple point": lambda: poly_interpolate([(0, 1, 2)], 0),
    "interpolate str points": lambda: poly_interpolate("ab", 0),
    "interpolate None after a pair": lambda: poly_interpolate([(0, 1), None], 0),
}


@pytest.mark.parametrize("call", WRONG_OPERAND_CALLS.values(), ids=WRONG_OPERAND_CALLS.keys())
def test_arithmetic_rejects_wrong_operands(call):
    with pytest.raises(DomainError):
        call()


def test_int_coefficients_are_stored_as_fractions():
    series = TruncatedSeries(1, (1, F(1, 2)))
    assert series.coeffs == (F(1), F(1, 2))
    assert all(type(c) is F for c in series.coeffs)
    assert series == TruncatedSeries.from_coeffs([1, F(1, 2)], 1)
    assert all(type(c) is F for c in Polynomial([1, 2]).coeffs)
    assert type(Polynomial([1, 2])(3)) is F
