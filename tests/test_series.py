import copy
import fractions
import math
import pathlib
import pickle
import sys
from dataclasses import FrozenInstanceError
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
from binomial_moments.sigma import sigma_poly, sigma_series

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
        assert geometric(2, 5).coefficient(5) == 32
        with pytest.raises(IndexOutOfOrder):
            geometric(2, 5).coefficient(6)
        with pytest.raises(IndexOutOfOrder):
            geometric(2, 5).coefficient(-1)

    def test_monomial_examples(self):
        assert TruncatedSeries.monomial(0, 0) == TruncatedSeries.constant(1, 0)
        assert TruncatedSeries.monomial(0, 2) == S([1, 0, 0])
        assert TruncatedSeries.monomial(2, 2) == S([0, 0, 1])
        assert TruncatedSeries.monomial(3, 2) == S([0, 0, 0])
        for k, order in [(-1, 2), (1, -1)]:
            with pytest.raises(DomainError):
                TruncatedSeries.monomial(k, order)

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


over_lcm_values = st.lists(
    st.one_of(
        st.just(0),
        st.integers(-(10**6), 10**6),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    ),
    max_size=12,
)


class TestOverLcm:
    @given(cs=over_lcm_values)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_reference(self, cs):
        nums, den = series._over_lcm(cs)
        assert type(nums) is list and all(type(x) is int for x in nums)
        assert den == math.lcm(*[F(c).denominator for c in cs])
        assert [F(x, den) for x in nums] == [F(c) for c in cs]

    def test_examples(self):
        assert series._over_lcm([]) == ([], 1)
        assert series._over_lcm((F(1, 2), -1, F(-1, 3), 0)) == ([3, -6, -2, 0], 6)
        assert series._over_lcm(iter([F(2, 4), F(1, 4)])) == ([2, 1], 4)


class TestStoredForm:
    def test_constructor_stores_one_form_for_every_iterable(self):
        ints, halves = [-1, 0, 1], [F(1, 2), F(-1, 3), 5]
        for cs in (ints, tuple(ints), tuple(map(F, ints)), range(-1, 2), (c for c in ints)):
            s = TruncatedSeries(2, cs)
            assert (s.order, s.nums, s.den) == (2, (-1, 0, 1), 1)
        for cs in (halves, tuple(halves), (c for c in halves)):
            s = TruncatedSeries(2, cs)
            assert (s.order, s.nums, s.den) == (2, (3, -2, 30), 6)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: TruncatedSeries(-1, [1]), "series order must be >= 0, got -1"),
            (lambda: TruncatedSeries(-2, []), "series order must be >= 0, got -2"),
            (lambda: TruncatedSeries.from_coeffs([1], -1), "series order must be >= 0, got -1"),
            (lambda: TruncatedSeries.monomial(1, -1), "series order must be >= 0, got -1"),
            (lambda: geometric(F(1, 2), -3), "series order must be >= 0, got -3"),
            # with two faults, the order is checked last
            (
                lambda: TruncatedSeries(-1, "ab"),
                "TruncatedSeries: coefficients must be an ordered iterable "
                "(not a mapping, set, str or bytes), got 'ab'",
            ),
            (
                lambda: TruncatedSeries(-1, [1.5]),
                "TruncatedSeries: coefficient must be an int or a Fraction, got 1.5",
            ),
            (lambda: TruncatedSeries.monomial(-1, -1), "monomial exponent must be >= 0, got -1"),
            (lambda: geometric(1.5, -1), "geometric: c must be an int or a Fraction, got 1.5"),
        ],
    )
    def test_negative_order_message_and_precedence(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message

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

    def test_constructor_needs_order_plus_one_coefficients(self):
        with pytest.raises(DomainError, match="order 2 needs 3 coefficients, got 2"):
            TruncatedSeries(2, (F(1), F(2)))
        with pytest.raises(DomainError, match="order 0 needs 1 coefficients, got 2"):
            TruncatedSeries(0, [1, 2])

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


# A Fraction reference for Polynomial: coefficient lists as the class
# computed them before it stored int numerators over one denominator.
def ref_strip(cs):
    cs = [F(c) for c in cs] or [F(0)]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def ref_poly_eval(cs, x):
    return sum((c * x**k for k, c in enumerate(cs)), F(0))


def assert_poly_stored(got, ref):
    """got holds the coefficients ref in the canonical stored form."""
    assert got.coeffs == ref
    assert all(type(c) is F for c in got.coeffs)
    assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
    assert got.nums[-1] != 0 or got.nums == (0,) and got.den == 1
    same = Polynomial(ref)
    assert got == same and hash(got) == hash(same)
    assert (got.nums, got.den) == (same.nums, same.den)


def fraction_interpolate(points, degree_bound):
    """poly_interpolate as it ran over Fractions before it went fraction-free:
    Newton divided differences, the Newton form expanded one factor
    (y - x_i) at a time, and the extra points checked; the coefficient
    tuple, or ConsistencyError with the same message."""
    pts = [(F(x), F(y)) for x, y in points]
    need = degree_bound + 1
    xs = [x for x, _ in pts[:need]]
    coefs = [y for _, y in pts[:need]]
    for level in range(1, need):
        for i in range(need - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - level])
    poly = [coefs[-1]]
    for i in range(need - 2, -1, -1):
        poly = [F(0)] + poly
        for j in range(len(poly) - 1):
            poly[j] -= xs[i] * poly[j + 1]
        poly[0] += coefs[i]
    poly = ref_strip(poly)
    for x, y in pts[need:]:
        got = ref_poly_eval(poly, x)
        if got != y:
            raise ConsistencyError(
                f"point ({x}, {y}) off the degree-{degree_bound} interpolant (expected {got})"
            )
    return poly


def poly_coeffs(max_size=8):
    """Coefficient lists with zeros, trailing zeros and unrelated denominators."""
    coeff = st.one_of(st.just(F(0)), small_fraction, wide_scalar)
    return st.lists(coeff, min_size=0, max_size=max_size)


@st.composite
def interpolation_case(draw):
    """Distinct, unsorted rational nodes with denominators up to 12, a degree
    bound of 0..12, arbitrary values on the base nodes and 0..3 extra
    points, each on the interpolant or off it."""
    bound = draw(st.integers(0, 12))
    extra = draw(st.integers(0, 3))
    node = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    xs = draw(st.lists(node, min_size=bound + 1 + extra, max_size=bound + 1 + extra, unique=True))
    value = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=50)
    pts = [(x, draw(value)) for x in xs[: bound + 1]]
    curve = fraction_interpolate(pts, bound)
    for x in xs[bound + 1 :]:
        off = draw(st.one_of(st.just(F(0)), value))
        pts.append((x, ref_poly_eval(curve, x) + off))
    return pts, bound


class TestPolynomialStoredForm:
    @given(case=interpolation_case())
    @settings(max_examples=80, deadline=None)
    def test_interpolation_matches_fraction_newton(self, case):
        pts, bound = case
        try:
            ref = fraction_interpolate(pts, bound)
        except ConsistencyError as e:
            with pytest.raises(ConsistencyError) as got:
                poly_interpolate(pts, bound)
            assert str(got.value) == str(e)
        else:
            assert_poly_stored(poly_interpolate(pts, bound), ref)

    @given(a=poly_coeffs(), b=poly_coeffs(), c=wide_scalar, x=wide_scalar)
    @settings(max_examples=120, deadline=None)
    def test_arithmetic_matches_fraction_reference(self, a, b, c, x):
        pa, pb = Polynomial(a), Polynomial(b)
        ra, rb = ref_strip(a), ref_strip(b)
        assert_poly_stored(pa, ra)
        za, zb = (*ra, *[F(0)] * len(rb)), (*rb, *[F(0)] * len(ra))
        assert_poly_stored(pa + pb, ref_strip(ref_add(za, zb)))
        assert_poly_stored(pa - pb, ref_strip(ref_sub(za, zb)))
        assert_poly_stored(pa - pa, (F(0),))
        assert_poly_stored(pa * pb, ref_poly_mul(ra, rb))
        assert_poly_stored(pa.scale(c), ref_strip(ref_scale(F(c), ra)))
        assert_poly_stored(c * pa, ref_strip(ref_scale(F(c), ra)))
        assert pa(x) == ref_poly_eval(ra, F(x)) and type(pa(x)) is F
        assert pa.degree == len(ra) - 1 and pa.leading == ra[-1]
        assert pa.is_zero() == (ra == (F(0),))
        assert repr(pa) == f"Polynomial({list(ra)!r})"

    @given(a=poly_coeffs(), b=poly_coeffs(), c=small_fraction.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_equal_polynomials_store_equal_ints(self, a, b, c):
        p, q = Polynomial(a), Polynomial(b)
        routes = [
            Polynomial([*a, 0, 0]),
            (p + q) - q,
            p.scale(c).scale(1 / c),
            p * Polynomial([1]),
            (p * Polynomial([F(1, 3), c])).scale(3) - (p * Polynomial([0, 3 * c])),
        ]
        for r in routes:
            assert r == p and hash(r) == hash(p)
            assert (r.nums, r.den) == (p.nums, p.den)

    def test_stored_examples(self):
        half, third = F(1, 2), F(1, 3)
        assert (Polynomial([half, third]).nums, Polynomial([half, third]).den) == ((3, 2), 6)
        assert (Polynomial([0, 0]).nums, Polynomial([0, 0]).den) == ((0,), 1)
        assert (Polynomial().nums, Polynomial([]).den) == ((0,), 1)
        p = Polynomial([half, third]).scale(0)
        assert (p.nums, p.den) == ((0,), 1)
        q = Polynomial([F(-1, 4), 0, F(1, 6)])
        assert (q.nums, q.den) == ((-3, 0, 2), 12)
        assert (Polynomial([F(1, 2)]) * Polynomial([2, 4])) == Polynomial([1, 2])
        assert (Polynomial([F(1, 2)]) * Polynomial([2, 4])).den == 1
        assert q(F(-2, 3)) == F(-1, 4) + F(1, 6) * F(4, 9)
        # equal only to a polynomial, and hashed as its stored ints
        assert Polynomial([1]) != TruncatedSeries(0, [1])
        assert Polynomial([1, 2]) != (1, 2)
        assert hash(q) == hash(((-3, 0, 2), 12))

    def test_sigma_poly_matches_fraction_newton(self):
        # sigma_poly's consecutive integer nodes, where level k's denominator is k!
        for m in range(13):
            for ell in range(m + 1):
                deg = 2 * (m - ell)
                pts = [(F(y), sigma_series(m, ell, F(y))) for y in range(deg + 1)]
                assert_poly_stored(sigma_poly(m, ell), fraction_interpolate(pts, deg))

    def test_builds_no_fraction_until_read(self):
        """+, -, *, scale and interpolation without extra points run no
        Fraction constructor: only coeffs, leading and a value build one."""
        built = []

        def watch(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == fractions.__file__:
                if code.co_name in ("__new__", "_from_coprime_ints"):
                    built.append(code.co_name)

        p, q, c = Polynomial([F(1, 2), F(-2, 3), 5]), Polynomial([F(3, 7), 1]), F(-5, 6)
        pts = [(F(x, 3), F(x * x - 1, 5)) for x in range(-4, 5)]
        sys.setprofile(watch)
        try:
            r = ((p + q) - q) * p
            r = r.scale(c)
            s = poly_interpolate(pts, len(pts) - 1)
        finally:
            sys.setprofile(None)
        assert built == []
        assert r == (p * p).scale(c)
        assert s == Polynomial([F(-1, 5), 0, F(9, 5)])


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
    # before, each container below was read in its own order or as small
    # ints: a mapping by its keys, a set in hash order, bytes as byte values
    "from_coeffs dict coefficients": lambda: TruncatedSeries.from_coeffs({0: 5}, 2),
    "from_coeffs set coefficients": lambda: TruncatedSeries.from_coeffs({3, 1}, 2),
    "from_coeffs frozenset coefficients": lambda: TruncatedSeries.from_coeffs(frozenset({3}), 2),
    "from_coeffs bytes coefficients": lambda: TruncatedSeries.from_coeffs(b"\x01\x02", 2),
    "constructor dict coefficients": lambda: TruncatedSeries(1, {0: 1, 1: 2}),
    "constructor bytearray coefficients": lambda: TruncatedSeries(1, bytearray(b"\x01\x02")),
    "constructor set coefficients": lambda: TruncatedSeries(0, {1}),
    "polynomial bytes coefficients": lambda: Polynomial(b"\x01\x02"),
    "polynomial bytearray coefficients": lambda: Polynomial(bytearray(b"\x01\x02")),
    "polynomial dict coefficients": lambda: Polynomial({0: 1, 1: 2}),
    "polynomial set coefficients": lambda: Polynomial({1, 2}),
    "polynomial frozenset coefficients": lambda: Polynomial(frozenset({1})),
    "polynomial str coefficients": lambda: Polynomial("12"),
    "interpolate bytes point": lambda: poly_interpolate([b"\x01\x02"], 0),
    "interpolate bytearray point": lambda: poly_interpolate([(0, 1), bytearray(b"\x01\x02")], 0),
    "interpolate dict point": lambda: poly_interpolate([{0: 1, 1: 2}], 0),
    "interpolate set point": lambda: poly_interpolate([{0, 1}], 0),
    "interpolate dict points": lambda: poly_interpolate({(0, 1): "a"}, 0),
    "interpolate set points": lambda: poly_interpolate({(0, 1), (1, 2)}, 1),
    "interpolate frozenset points": lambda: poly_interpolate(frozenset({(0, 1)}), 0),
    "interpolate bytes points": lambda: poly_interpolate(b"\x01\x02", 0),
}


@pytest.mark.parametrize("call", WRONG_OPERAND_CALLS.values(), ids=WRONG_OPERAND_CALLS.keys())
def test_arithmetic_rejects_wrong_operands(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: 1 + POLY, "Polynomial.__radd__: operand must be a Polynomial, got 1"),
        (lambda: 1 - POLY, "Polynomial.__rsub__: operand must be a Polynomial, got 1"),
        (
            lambda: F(1) + ONE,
            "TruncatedSeries.__radd__: operand must be a TruncatedSeries, got Fraction(1, 1)",
        ),
        (lambda: 1 - ONE, "TruncatedSeries.__rsub__: operand must be a TruncatedSeries, got 1"),
        # called directly, with an operand of their own class, they still refuse
        (
            lambda: POLY.__radd__(POLY),
            "Polynomial.__radd__: operand must be a Polynomial, got Polynomial([Fraction(1, 1), "
            "Fraction(2, 1)])",
        ),
        (
            lambda: ONE.__rsub__(ONE),
            f"TruncatedSeries.__rsub__: operand must be a TruncatedSeries, got {ONE!r}",
        ),
    ],
    ids=[
        "int plus polynomial",
        "int minus polynomial",
        "Fraction plus series",
        "int minus series",
        "polynomial radd polynomial",
        "series rsub series",
    ],
)
def test_reflected_operators_refuse(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


SERIES_TEXT = "TruncatedSeries(order=2, nums=(1, 0, 0), den=1)"
POLY_TEXT = "Polynomial([Fraction(1, 1), Fraction(2, 1)])"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: POLY + ONE,
            DomainError,
            "Polynomial.__add__: operand must be a Polynomial, got " + SERIES_TEXT,
        ),
        (
            lambda: ONE + POLY,
            DomainError,
            "TruncatedSeries.__add__: operand must be a TruncatedSeries, got " + POLY_TEXT,
        ),
        (
            lambda: POLY - ONE,
            DomainError,
            "Polynomial.__sub__: operand must be a Polynomial, got " + SERIES_TEXT,
        ),
        (
            lambda: POLY * ONE,
            DomainError,
            "Polynomial.scale: c must be an int or a Fraction, got " + SERIES_TEXT,
        ),
        (
            lambda: ONE * POLY,
            DomainError,
            "TruncatedSeries.scale: c must be an int or a Fraction, got " + POLY_TEXT,
        ),
        (lambda: ONE + S([1, 2]), OrderMismatch, "orders differ: 2 vs 1"),
    ],
    ids=[
        "polynomial plus series",
        "series plus polynomial",
        "polynomial minus series",
        "polynomial times series",
        "series times polynomial",
        "series plus series of another order",
    ],
)
def test_forward_operators_refuse(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Polynomial([F(1, 2), 3]), "nums"),
        (lambda: Polynomial([F(1, 2), 3]), "den"),
        (lambda: TruncatedSeries(1, [F(1, 2), 3]), "order"),
        (lambda: TruncatedSeries(1, [F(1, 2), 3]), "nums"),
        (lambda: TruncatedSeries(1, [F(1, 2), 3]), "den"),
    ],
    ids=["Polynomial.nums", "Polynomial.den", "series.order", "series.nums", "series.den"],
)
def test_fields_refuse_assignment_and_deletion(make, name):
    obj = make()
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(obj, name, 0)
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(obj, name)
    assert obj == make() and hash(obj) == hash(make())


def test_a_refused_assignment_leaves_the_polynomial_usable():
    # before, p.den = 0 was stored and p(1) raised ZeroDivisionError
    p = Polynomial([1, 2])
    with pytest.raises(FrozenInstanceError):
        p.den = 0
    assert p(1) == 3


@pytest.mark.parametrize(
    "p",
    [Polynomial([F(1, 2), 0, -3]), TruncatedSeries(2, [F(1, 2), 0, -3])],
    ids=["Polynomial", "TruncatedSeries"],
)
def test_values_copy_and_pickle(p):
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is type(p) and q == p and hash(q) == hash(p)
        assert (q.nums, q.den) == ((1, 0, -6), 2)


NOT_PAIRS = {k: v for k, v in WRONG_OPERAND_CALLS.items() if k.startswith("interpolate")}


@pytest.mark.parametrize("call", NOT_PAIRS.values(), ids=NOT_PAIRS.keys())
def test_interpolation_names_what_is_not_a_pair(call):
    # one message for points that are not iterable, not pairs, or not in order
    with pytest.raises(DomainError, match=r"^poly_interpolate needs \(x, y\) pairs, got "):
        call()


def test_int_coefficients_are_stored_as_fractions():
    series = TruncatedSeries(1, (1, F(1, 2)))
    assert series.coeffs == (F(1), F(1, 2))
    assert all(type(c) is F for c in series.coeffs)
    assert series == TruncatedSeries.from_coeffs([1, F(1, 2)], 1)
    assert all(type(c) is F for c in Polynomial([1, 2]).coeffs)
    assert type(Polynomial([1, 2])(3)) is F


def test_ordered_containers_stay_accepted():
    cubic = Polynomial([1, 2])
    for coeffs in ([1, 2], (1, 2), range(1, 3), (c for c in [1, 2])):
        assert Polynomial(coeffs) == cubic
    series = TruncatedSeries.from_coeffs([1, 2], 2)
    for coeffs in ((1, 2), range(1, 3), (c for c in [1, 2])):
        assert TruncatedSeries.from_coeffs(coeffs, 2) == series
    assert TruncatedSeries(1, range(1, 3)) == series.truncate(1)
    line = Polynomial([1, 1])
    for points in ([(0, 1), [1, 2]], ((0, 1), (1, 2)), ((x, x + 1) for x in range(2))):
        assert poly_interpolate(points, 1) == line
    assert poly_interpolate([range(2), (x for x in (1, 2))], 1) == line
