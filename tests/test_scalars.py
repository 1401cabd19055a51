from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcat.scalars import HSeries, RATIONAL, RingMismatch, as_fraction, hseries_ring, replace

from conftest import is_canonical

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def hs(*coeffs, order=None):
    k = order if order is not None else len(coeffs) - 1
    return HSeries.from_coeffs([Fraction(c) for c in coeffs], k)


class TestHSeriesArithmetic:
    def test_add_and_sub(self):
        a = hs(1, 2, order=2)
        b = hs(0, 1, 3, order=2)
        assert (a + b).coeffs == (Fraction(1), Fraction(3), Fraction(3))
        assert (a - b).coeffs == (Fraction(1), Fraction(1), Fraction(-3))

    def test_mul_truncates(self):
        # (1 + h)(1 + h) = 1 + 2h + h^2, cut at order 1
        a = hs(1, 1, order=1)
        assert (a * a).coeffs == (Fraction(1), Fraction(2))

    def test_mul_by_scalar(self):
        a = hs(1, 2, order=1)
        assert (a * 3).coeffs == (Fraction(3), Fraction(6))
        assert (Fraction(1, 2) * a).coeffs == (Fraction(1, 2), Fraction(1))

    def test_hbar_is_nilpotent(self):
        h = HSeries.hbar(2)
        assert not h * h * h
        assert h * h

    def test_order_mismatch_rejected(self):
        with pytest.raises(RingMismatch):
            hs(1, 0) + hs(1, 0, 0)

    @given(st.lists(rationals, min_size=2, max_size=4),
           st.lists(rationals, min_size=2, max_size=4))
    def test_mul_constant_term_is_rational_product(self, xs, ys):
        k = 3
        a = HSeries.from_coeffs(xs, k)
        b = HSeries.from_coeffs(ys, k)
        assert (a * b).constant_term() == xs[0] * ys[0]


def naive_mul(a, b):
    """Full-length truncated product of two coefficient tuples."""
    return tuple(sum((a[i] * b[d - i] for i in range(d + 1)), Fraction(0))
                 for d in range(len(a)))


@st.composite
def series_triples(draw):
    """Three series of one order in 0..8, each with a drawn highest nonzero
    degree (so a drawn count of trailing zeros) and zeros below it; zero
    (-1) and constants (0) are drawn as often as all other degrees."""
    k = draw(st.integers(0, 8))

    def series():
        top = draw(st.one_of(st.sampled_from((-1, 0)), st.integers(-1, k)))
        cs = draw(st.lists(st.one_of(st.just(Fraction(0)), rationals),
                           min_size=top + 1, max_size=top + 1))
        if cs and not cs[-1]:
            cs[-1] = Fraction(1)
        return HSeries.from_coeffs(cs, k)

    return k, [series() for _ in range(3)]


class TestHSeriesAgainstFullLength:
    """Products stop at each operand's highest nonzero degree, and two
    constants multiply as one rational product; the values, sums and
    differences equal the full-length ones, also for products of products,
    whose kept degree is derived rather than scanned, and truth reads it."""

    @given(series_triples())
    def test_ring_operations(self, drawn):
        k, (a, b, c) = drawn
        ab = naive_mul(a.coeffs, b.coeffs)
        assert (a * b).coeffs == ab
        assert ((a * b) * c).coeffs == naive_mul(ab, c.coeffs)
        assert (a * (b * c)).coeffs == naive_mul(a.coeffs, naive_mul(b.coeffs, c.coeffs))
        assert ((a * b) * (a * b)).coeffs == naive_mul(ab, ab)
        assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        assert ((a * b) + c).coeffs == tuple(x + y for x, y in zip(ab, c.coeffs))
        assert ((a - b) * c).coeffs == naive_mul(
            tuple(x - y for x, y in zip(a.coeffs, b.coeffs)), c.coeffs)
        for v in (a * b, (a * b) * c, a + b, a - b):
            assert len(v.coeffs) == k + 1
            assert bool(v) == any(v.coeffs)
        for v in (a * b, b * a, (a * b) * c, a * (b * c), (a * b) * (a * b), (a - b) * c):
            assert bool(v) == any(v.coeffs)
            assert v._top == max((d for d, x in enumerate(v.coeffs) if x), default=-1)
        for v in (a, a * b, (a * b) * c, a + b, a - b, -a, a * Fraction(2, 3), 3 * a):
            assert all(is_canonical(x) for x in v.coeffs), v

    @given(series_triples())
    def test_equality_and_hash_ignore_the_kept_degree(self, drawn):
        k, (a, b, c) = drawn
        derived = (a * b) * c
        fresh = HSeries(k, derived.coeffs)
        assert derived == fresh and hash(derived) == hash(fresh)
        assert repr(derived) == repr(fresh)
        assert replace(derived, order=k) == fresh
        assert HSeries._fields == ("order", "coeffs")


class TestRing:
    def test_rational_coercion(self):
        assert RATIONAL.coerce("2/3") == Fraction(2, 3)
        assert RATIONAL.coerce(5) == Fraction(5)
        assert RATIONAL.coerce(Fraction(7, 2)) == Fraction(7, 2)

    def test_rational_rejects_series(self):
        with pytest.raises(RingMismatch):
            RATIONAL.coerce(HSeries.from_rational(1, 2))

    def test_series_ring_coercion(self):
        r = hseries_ring(2)
        v = r.coerce(["1", "0", "1/2"])
        assert v.coeffs == (Fraction(1), Fraction(0), Fraction(1, 2))
        w = r.coerce(3)
        assert w.coeffs == (Fraction(3), Fraction(0), Fraction(0))

    def test_series_ring_rejects_wrong_order(self):
        r = hseries_ring(2)
        with pytest.raises(RingMismatch):
            r.coerce(HSeries.from_rational(1, 3))

    def test_json_roundtrip(self):
        r = hseries_ring(1)
        v = r.coerce(["1/3", "-2"])
        assert r.coerce(r.to_json(v)) == v
        assert RATIONAL.coerce(RATIONAL.to_json(Fraction(-5, 4))) == Fraction(-5, 4)


class TestAsFraction:
    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError):
            as_fraction("1/0")

    def test_canonical_values(self):
        """An int where the value is integral, else a Fraction."""
        cases = [(5, 5, int), ("4/2", 2, int), ("-0/3", 0, int), (Fraction(6, 3), 2, int),
                 ("3/2", Fraction(3, 2), Fraction), (Fraction(-1, 4), Fraction(-1, 4), Fraction)]
        for x, value, kind in cases:
            for v in (as_fraction(x), RATIONAL.coerce(x)):
                assert v == value and type(v) is kind, (x, v)
        for v in (hseries_ring(1).coerce(["2/2", "1/3"]).coeffs,
                  HSeries.from_rational(Fraction(4, 2), 1).coeffs, HSeries.hbar(1).coeffs):
            assert all(is_canonical(x) for x in v), v

    def test_bools_become_the_ints_they_equal(self):
        # bool subclasses int: stored as it is, True would be an entry
        for b, n in ((True, 1), (False, 0)):
            for v in (as_fraction(b), RATIONAL.coerce(b), HSeries.from_rational(b, 1).coeffs[0],
                      hseries_ring(1).coerce([b, b]).coeffs[1]):
                assert v == n and type(v) is int

    def test_floats_are_refused(self):
        for x in (1.0, 0.5):
            with pytest.raises(TypeError):
                as_fraction(x)
            with pytest.raises(TypeError):
                RATIONAL.coerce(x)
