"""Exact rational polynomial arithmetic: ring axioms, evaluation, encoding."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbichrom.rationalpoly import ONE, X, ZERO, RationalPoly, x_minus_one_pow

from fraction_poly_ref import FractionPoly


def bounded_fractions(bound: int, max_denominator: int):
    """Every fraction with |value| <= bound and denominator <= max_denominator.

    Drawn as a denominator q and a numerator in -bound*q..bound*q, which
    covers the same values as st.fractions with those bounds but is far
    cheaper to generate.
    """
    return st.integers(min_value=1, max_value=max_denominator).flatmap(
        lambda q: st.integers(min_value=-bound * q, max_value=bound * q).map(
            lambda p: Fraction(p, q)
        )
    )


fractions_st = bounded_fractions(9, 6)
polys_st = st.lists(fractions_st, min_size=0, max_size=9).map(RationalPoly)
points_st = bounded_fractions(5, 4)


class TestCanonicalForm:
    def test_trailing_zeros_are_stripped(self):
        assert RationalPoly([1, 2, 0, 0]) == RationalPoly([1, 2])
        assert RationalPoly([0, 0]) == ZERO
        assert RationalPoly([]).degree() == -1

    def test_degree_and_leading_coefficient(self):
        p = RationalPoly([3, 0, Fraction(1, 2)])
        assert p.degree() == 2
        assert p.leading_coefficient() == Fraction(1, 2)
        assert ZERO.degree() == -1

    def test_scalar_equality(self):
        assert RationalPoly([5]) == 5
        assert RationalPoly([Fraction(1, 3)]) == Fraction(1, 3)
        assert ZERO == 0
        assert ONE == 1
        assert X != 1

    @given(polys_st)
    def test_hash_consistent_with_equality(self, p):
        assert hash(p) == hash(RationalPoly(list(p.coeffs)))


class TestRingAxioms:
    @given(polys_st, polys_st)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys_st, polys_st, polys_st)
    def test_addition_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polys_st)
    def test_additive_identity_and_inverse(self, p):
        assert p + ZERO == p
        assert p + (-p) == ZERO
        assert p - p == ZERO

    @given(polys_st, polys_st)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polys_st, polys_st, polys_st)
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys_st)
    def test_multiplicative_identity(self, p):
        assert p * ONE == p
        assert p * ZERO == ZERO

    @given(polys_st, polys_st, polys_st)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys_st, polys_st)
    def test_degree_of_product_adds(self, p, q):
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree() == p.degree() + q.degree()

    @given(polys_st, st.integers(min_value=-7, max_value=7))
    def test_scalar_multiplication_matches_constant_poly(self, p, c):
        assert c * p == RationalPoly([c]) * p
        assert p * c == c * p


class TestEvaluation:
    @given(polys_st, polys_st, points_st)
    def test_evaluation_respects_ring_operations(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (-p)(x) == -p(x)

    @given(polys_st)
    def test_constant_term_is_value_at_zero(self, p):
        assert p(0) == p.coefficient(0)

    def test_returns_exact_fractions(self):
        p = RationalPoly([Fraction(1, 3), Fraction(1, 2)])
        value = p(Fraction(1, 5))
        assert value == Fraction(1, 3) + Fraction(1, 10)
        assert isinstance(value, Fraction)


class TestPower:
    @given(polys_st, st.integers(min_value=0, max_value=4))
    def test_matches_repeated_multiplication(self, p, k):
        expected = ONE
        for _ in range(k):
            expected = expected * p
        assert p ** k == expected

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            X ** -1

    @given(st.integers(min_value=0, max_value=9))
    def test_x_minus_one_pow_binomial_coefficients(self, d):
        p = x_minus_one_pow(d)
        assert p.degree() == d
        for i in range(d + 1):
            assert p.coefficient(i) == (-1) ** (d - i) * math.comb(d, i)

    def test_x_minus_one_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            x_minus_one_pow(-1)


class TestSerialization:
    @given(polys_st)
    def test_round_trip_is_identity(self, p):
        den, ints = p.to_den_coeffs()
        assert RationalPoly.from_den_coeffs(den, ints) == p

    @given(polys_st)
    def test_common_denominator_is_lcm_of_reduced_denominators(self, p):
        den, ints = p.to_den_coeffs()
        assert den >= 1
        assert all(isinstance(c, int) for c in ints)
        denominators = [c.denominator for c in p.coeffs]
        if denominators:
            assert den == math.lcm(*denominators)
        else:
            assert den == 1
        assert [Fraction(c, den) for c in ints] == list(p.coeffs)

    def test_zero_poly_encoding(self):
        assert ZERO.to_den_coeffs() == (1, [])
        assert RationalPoly.from_den_coeffs(1, []) == ZERO

    def test_known_encoding(self):
        p = Fraction(1, 3) * RationalPoly([0, 2, -3, 1])
        assert p.to_den_coeffs() == (3, [0, 2, -3, 1])

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            RationalPoly.from_den_coeffs(0, [1])


# The integer-numerator core against the plain Fraction-tuple reference.
coeff_lists_st = st.lists(fractions_st, min_size=0, max_size=9)
two_term_st = st.tuples(fractions_st, fractions_st.filter(bool)).map(list)
scalars_st = st.one_of(st.integers(min_value=-12, max_value=12), fractions_st)


def same(p: RationalPoly, ref: FractionPoly) -> bool:
    """Same coefficients and the same wire encoding."""
    return p.coeffs == ref.coeffs and p.to_den_coeffs() == ref.to_den_coeffs()


class TestAgainstFractionReference:
    @given(coeff_lists_st)
    def test_construction_and_encoding(self, cs):
        assert same(RationalPoly(cs), FractionPoly(cs))

    @given(coeff_lists_st, coeff_lists_st)
    def test_add_sub_neg(self, cs, ds):
        p, q = RationalPoly(cs), RationalPoly(ds)
        rp, rq = FractionPoly(cs), FractionPoly(ds)
        assert same(p + q, rp + rq)
        assert same(p - q, rp - rq)
        assert same(-p, -rp)

    @given(coeff_lists_st, coeff_lists_st)
    def test_mul(self, cs, ds):
        assert same(RationalPoly(cs) * RationalPoly(ds), FractionPoly(cs) * FractionPoly(ds))

    @given(coeff_lists_st, scalars_st)
    def test_scalar_mul_and_add(self, cs, c):
        p, rp = RationalPoly(cs), FractionPoly(cs)
        assert same(p * c, rp * c)
        assert same(c * p, rp * c)
        assert same(p + c, rp + FractionPoly([c]))
        assert same(c - p, FractionPoly([c]) - rp)

    @given(st.one_of(coeff_lists_st, two_term_st), st.integers(min_value=0, max_value=6))
    def test_pow(self, cs, k):
        assert same(RationalPoly(cs) ** k, FractionPoly(cs) ** k)

    @given(two_term_st, st.integers(min_value=0, max_value=40))
    def test_binomial_pow_of_two_term_bases(self, cs, k):
        assert same(RationalPoly(cs) ** k, FractionPoly(cs) ** k)

    @given(coeff_lists_st, points_st)
    def test_eval(self, cs, x):
        value = RationalPoly(cs)(x)
        assert isinstance(value, Fraction)
        assert value == FractionPoly(cs)(x)

    @given(coeff_lists_st, coeff_lists_st, st.booleans())
    def test_equality_and_hash(self, cs, ds, padded_copy):
        if padded_copy:
            ds = cs + [Fraction(0)] * 2
        p, q = RationalPoly(cs), RationalPoly(ds)
        equal = FractionPoly(cs) == FractionPoly(ds)
        assert (p == q) is equal
        if equal:
            assert hash(p) == hash(q)

    @given(coeff_lists_st, st.integers(min_value=1, max_value=30))
    def test_from_den_coeffs_reduces_any_denominator(self, cs, den):
        ints = [int(c * den * 720) for c in cs]
        expected = FractionPoly([Fraction(c, den * 720) for c in ints])
        assert same(RationalPoly.from_den_coeffs(den * 720, ints), expected)

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(7)
        for _ in range(20):
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))]
            ds = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))]
            k = rng.randint(0, 5)
            got = RationalPoly(cs) ** k * RationalPoly(ds)
            expected = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                                      for i, c in enumerate(cs)), x) ** k * sympy.Poly(
                sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(ds)), x)
            want = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
            assert got == RationalPoly(want)
