"""Exact integer number theory: divisors, Euler's totient, and the
divisor sums that feed the closed-form orbit-counting polynomials."""

from __future__ import annotations

from math import isqrt

__all__ = [
    "totient",
    "divisors",
    "alternating_totient_sum",
    "smallest_prime_factor",
    "is_prime",
]


def totient(n: int) -> int:
    """Count the integers in 1..n that are coprime to n.

    Factorization is by trial division; every n in this package is
    desk-scale (a few thousand at most).
    """
    if n < 1:
        raise ValueError(f"totient is defined for n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order, including 1 and n."""
    if n < 1:
        raise ValueError(f"divisors is defined for n >= 1, got {n}")
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def alternating_totient_sum(n: int) -> int:
    """Sum of (-1)^d * totient(n/d) over the divisors d of n.

    Computed literally, term by term.  That this equals -n for odd n and
    0 for even n is an identity the test suite checks, not a shortcut
    taken here.
    """
    if n < 1:
        raise ValueError(f"alternating_totient_sum is defined for n >= 1, got {n}")
    return sum((-1 if d % 2 else 1) * totient(n // d) for d in divisors(n))


def smallest_prime_factor(n: int) -> int:
    """Smallest prime factor of n >= 2, by trial division."""
    if n < 2:
        raise ValueError(f"smallest_prime_factor is defined for n >= 2, got {n}")
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n
