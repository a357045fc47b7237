"""Reference polynomial arithmetic for the tests: a dense tuple of
``fractions.Fraction`` coefficients, constant term first, no trailing
zeros.

This is the straightforward implementation that ``RationalPoly`` once
was.  It stays here, unchanged in its arithmetic, so that the
integer-numerator core can be checked against it operation by
operation.  It is deliberately slow; nothing outside the tests uses it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Rational = Union[int, Fraction]


class FractionPoly:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FractionPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly([-c for c in self._coeffs])

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other: object) -> "FractionPoly":
        if isinstance(other, (int, Fraction)):
            return FractionPoly([c * other for c in self._coeffs])
        if not isinstance(other, FractionPoly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return FractionPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FractionPoly":
        if k < 0:
            raise ValueError("negative powers of polynomials are undefined")
        result = FractionPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x: Rational) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"FractionPoly({list(self._coeffs)!r})"

    def to_den_coeffs(self) -> tuple[int, list[int]]:
        den = lcm(*(c.denominator for c in self._coeffs)) if self._coeffs else 1
        ints = [int(c * den) for c in self._coeffs]
        return den, ints
