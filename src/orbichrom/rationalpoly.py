"""Univariate polynomials with exact rational coefficients.

A polynomial is stored as one positive common denominator ``den`` and a
dense tuple of integer numerators ``nums``, constant term first: the
polynomial is (nums[0] + nums[1] x + ...) / den.  Canonical form is no
trailing zeros and gcd(den, *nums) = 1, so ``den`` is the least common
multiple of the reduced coefficient denominators; the zero polynomial is
``(1, ())``.  Arithmetic runs on the integer numerators, and integer
polynomials (``den == 1``, such as every chromatic polynomial) never
compute a gcd.  ``fractions.Fraction`` appears only at the boundary: the
public constructor, scalar operands, evaluation results and the
``coeffs`` view.  All arithmetic is exact; nothing here ever rounds.

``(den, nums)`` is also the JSON and CSV encoding, so serialization
reads the stored fields without arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Union

Rational = Union[int, Fraction]

__all__ = [
    "RationalPoly",
    "ZERO",
    "ONE",
    "X",
    "x_minus_one_pow",
    "poly_to_json_dict",
    "poly_from_json_dict",
]


class RationalPoly:
    """Exact dense univariate polynomial.

    >>> p = RationalPoly([-1, 1]) ** 2       # (x - 1)^2
    >>> p.coeffs
    (Fraction(1, 1), Fraction(-2, 1), Fraction(1, 1))
    >>> p(Fraction(3, 2))
    Fraction(1, 4)
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        # Over the lcm of the reduced denominators, the numerators share
        # no factor with it, so the result is canonical once trimmed.
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        self._den = den if nums else 1
        self._nums = tuple(nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x^i (zero beyond the stored degree)."""
        if i < 0:
            raise ValueError("exponents are non-negative")
        if i >= len(self._nums):
            return Fraction(0)
        return Fraction(self._nums[i], self._den)

    def leading_coefficient(self) -> Fraction:
        if not self._nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __neg__(self) -> "RationalPoly":
        return _raw(self._den, tuple([-c for c in self._nums]))

    def __add__(self, other: object) -> "RationalPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other: object) -> "RationalPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other: object) -> "RationalPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other: object) -> "RationalPoly":
        if isinstance(other, int):
            return _make(self._den, [c * other for c in self._nums])
        if isinstance(other, Fraction):
            p = other.numerator
            return _make(self._den * other.denominator, [c * p for c in self._nums])
        if not isinstance(other, RationalPoly):
            return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _make(self._den * other._den, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalPoly":
        if k < 0:
            raise ValueError("negative powers of polynomials are undefined")
        if len(self._nums) == 2:
            return _binomial_pow(self._den, *self._nums, k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x: Rational) -> Fraction:
        """Evaluate exactly.

        With x = p/q, Horner's rule runs on the homogenised integers
        sum nums[i] p^i q^(deg-i); the single division comes last.
        """
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        nums = self._nums
        if not nums:
            return Fraction(0)
        acc = nums[-1]
        q_pow = 1
        for c in reversed(nums[:-1]):
            q_pow *= q
            acc = acc * p + c * q_pow
        return Fraction(acc, self._den * q_pow)

    def __repr__(self) -> str:
        return f"RationalPoly({list(self.coeffs)!r})"

    # Serialization: a polynomial travels as its common positive
    # denominator D plus the ascending integer list D*coeffs, which is
    # exactly the stored form.  Round-trips bit-exactly.

    def to_den_coeffs(self) -> tuple[int, list[int]]:
        return self._den, list(self._nums)

    @classmethod
    def from_den_coeffs(cls, den: int, coeffs: Iterable[int]) -> "RationalPoly":
        den = index(den)
        if den < 1:
            raise ValueError(f"common denominator must be >= 1, got {den}")
        return _make(den, [index(c) for c in coeffs])


def _raw(den: int, nums: tuple[int, ...]) -> RationalPoly:
    """Wrap fields that are already canonical."""
    p = object.__new__(RationalPoly)
    p._den = den
    p._nums = nums
    return p


def _make(den: int, nums: list[int]) -> RationalPoly:
    """Canonical polynomial nums/den from any positive den: trailing zeros
    dropped, common factor of den and nums divided out."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return ZERO
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    return _raw(den, tuple(nums))


def _combine(p: RationalPoly, q: RationalPoly, sign: int) -> RationalPoly:
    """p + sign * q, for sign = 1 or -1."""
    den, a, b = p._den, p._nums, q._nums
    if q._den != den:
        den = lcm(den, q._den)
        a = [c * (den // p._den) for c in a]
        b = [c * (den // q._den) for c in b]
    n = min(len(a), len(b))
    if sign > 0:
        out = [x + y for x, y in zip(a, b)]
        out += b[n:]
    else:
        out = [x - y for x, y in zip(a, b)]
        out += [-y for y in b[n:]]
    out += a[n:]
    return _make(den, out)


def _binomial_pow(den: int, a: int, b: int, k: int) -> RationalPoly:
    """((a + b x) / den)^k by the binomial theorem.

    The coefficients C(k, i) come from the Pascal-row recurrence
    C(k, i+1) = C(k, i) (k - i) / (i + 1), exact in integers.  Since
    gcd(den, a, b) = 1, no prime of den divides both a^k and b^k, so
    the result is canonical as built.
    """
    a_pows = [1] * (k + 1)
    for i in range(1, k + 1):
        a_pows[i] = a_pows[i - 1] * a
    nums = [0] * (k + 1)
    c = 1
    b_pow = 1
    for i in range(k + 1):
        nums[i] = c * a_pows[k - i] * b_pow
        c = c * (k - i) // (i + 1)
        b_pow *= b
    return _raw(den ** k, tuple(nums))


def _coerce(value: object) -> RationalPoly | None:
    if isinstance(value, RationalPoly):
        return value
    if isinstance(value, int):
        return _raw(1, (value,)) if value else ZERO
    if isinstance(value, Fraction):
        return _raw(value.denominator, (value.numerator,)) if value else ZERO
    return None


ZERO = _raw(1, ())
ONE = _raw(1, (1,))
X = _raw(1, (0, 1))


def x_minus_one_pow(d: int) -> RationalPoly:
    """(x - 1)^d, expanded.  The recurring building block of every closed
    form in this package."""
    if d < 0:
        raise ValueError(f"exponent must be >= 0, got {d}")
    return RationalPoly([-1, 1]) ** d


def poly_to_json_dict(p: RationalPoly) -> dict:
    """The JSON encoding {"den": D, "coeffs": [c0, c1, ...]}."""
    den, ints = p.to_den_coeffs()
    return {"den": den, "coeffs": ints}


def poly_from_json_dict(data: dict) -> RationalPoly:
    return RationalPoly.from_den_coeffs(data["den"], data["coeffs"])
