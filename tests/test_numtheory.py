"""Number-theory helpers, cross-checked against gcd-counting brute force."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbichrom.numtheory import (
    alternating_totient_sum,
    divisors,
    is_prime,
    smallest_prime_factor,
    totient,
)


def brute_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, n))


class TestTotient:
    def test_known_values(self):
        assert totient(1) == 1
        assert totient(2) == 1
        assert totient(6) == 2
        assert totient(9) == 6
        assert totient(10) == 4
        assert totient(12) == 4
        assert totient(97) == 96

    @given(st.integers(min_value=1, max_value=2000))
    def test_matches_gcd_count(self, n):
        assert totient(n) == brute_totient(n)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    def test_multiplicative_on_coprime_arguments(self, a, b):
        if math.gcd(a, b) == 1:
            assert totient(a * b) == totient(a) * totient(b)

    @pytest.mark.parametrize("bad", [0, -1, -10])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            totient(bad)


class TestDivisors:
    def test_known_values(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        assert divisors(97) == [1, 97]

    @given(st.integers(min_value=1, max_value=5000))
    def test_exactly_the_divisors_in_ascending_order(self, n):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert len(set(ds)) == len(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestDivisorSums:
    @given(st.integers(min_value=1, max_value=2000))
    def test_totient_divisor_sum_is_n(self, n):
        assert sum(totient(n // d) for d in divisors(n)) == n

    @given(st.integers(min_value=1, max_value=1000))
    def test_alternating_sum_closed_form(self, n):
        expected = -n if n % 2 else 0
        assert alternating_totient_sum(n) == expected

    @given(st.integers(min_value=1, max_value=500))
    def test_alternating_sum_matches_termwise_evaluation(self, n):
        by_hand = sum((-1) ** d * brute_totient(n // d) for d in divisors(n))
        assert alternating_totient_sum(n) == by_hand

    def test_small_values(self):
        assert alternating_totient_sum(1) == -1
        assert alternating_totient_sum(2) == 0
        assert alternating_totient_sum(8) == 0
        assert alternating_totient_sum(9) == -9
        assert alternating_totient_sum(10) == 0


class TestPrimes:
    @given(st.integers(min_value=-5, max_value=3000))
    def test_is_prime_matches_trial_division(self, n):
        assert is_prime(n) == brute_is_prime(n)

    @given(st.integers(min_value=2, max_value=5000))
    def test_smallest_prime_factor_divides_and_is_minimal(self, n):
        f = smallest_prime_factor(n)
        assert n % f == 0
        assert is_prime(f)
        assert all(n % k for k in range(2, f))

    def test_smallest_prime_factor_rejects_tiny(self):
        with pytest.raises(ValueError):
            smallest_prime_factor(1)
