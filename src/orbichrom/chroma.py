"""Chromatic and orbital chromatic polynomials, exactly.

The chromatic polynomial is computed by deletion and contraction over
exact integer coefficients, run on an explicit stack rather than by
Python recursion.  Each piece is factorised first, in the style of
Haggard, Pearce and Royle ("Computing Tutte polynomials", 2010):
connected components multiply, a graph with a cut vertex is the product
of its blocks divided by x for each extra block, and a tree on n
vertices closes at once as x(x-1)^(n-1); only what is left, a block on
three or more vertices, is split by deleting and contracting an edge.

The orbital chromatic polynomial of a graph relative to a group of its
automorphisms averages, over the group, the chromatic polynomials of the
quotient graphs obtained by collapsing each cycle of an element's
disjoint cycle decomposition; at positive integer arguments it counts
proper colorings up to symmetry.

For cycle graphs the module also provides the closed forms: the familiar
(x-1)^n + (-1)^n (x-1) for the plain chromatic polynomial, and
totient-weighted divisor sums for the orbital versions under the
rotation group and the full (dihedral) symmetry group.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .multigraph import (
    Multigraph,
    blocks,
    components,
    contract_edge,
    contract_partition,
    delete_edge,
    simplify,
)
from .numtheory import divisors, is_prime, smallest_prime_factor, totient
from .permgroup import Permutation, PermGroup, is_automorphism
from .rationalpoly import ONE, X, ZERO, RationalPoly, x_minus_one_pow

__all__ = [
    "chromatic_polynomial",
    "cycle_chromatic_closed",
    "path_chromatic_closed",
    "quotient_graph",
    "orbital_by_definition",
    "orbital_rotation_closed",
    "orbital_full_closed",
    "cycle_index_rotation_at",
    "fermat_check",
]


def chromatic_polynomial(g: Multigraph) -> RationalPoly:
    """Chromatic polynomial of a multigraph by factorising deletion-contraction.

    Any loop kills the polynomial; parallel edges are collapsed at every
    step since they impose the same constraint as a single edge.  The
    graph is split into connected components and each of those into
    blocks, whose polynomials multiply (divided by x once per shared cut
    vertex); a tree closes at once as x(x-1)^(n-1).  Only a block on
    three or more vertices is deleted and contracted, on its
    lexicographically smallest edge.  The result does not depend on that
    choice, and the tests check it.  The engine runs on an explicit
    stack, so its depth is bounded by memory rather than by Python's
    recursion limit.
    """
    return _chromatic_with_chooser(g, _smallest_edge)


def _smallest_edge(g: Multigraph) -> tuple[int, int]:
    return g.edges[0]


# Tasks on the engine's stack.  A task pushes its value onto the value
# stack, or schedules its parts and a combining task that pops their
# values; the parts run first, so their values lie on top when it does.
_CONNECTED = 0  # (_CONNECTED, connected multigraph without loops or parallels)
_PRODUCT = 1  # (_PRODUCT, parts, power of x to divide out, cache key or None)
_DIFFERENCE = 2  # (_DIFFERENCE, cache key): value under deletion minus value under contraction


def _chromatic_with_chooser(
    g: Multigraph, choose_edge: Callable[[Multigraph], tuple[int, int]]
) -> RationalPoly:
    if g.has_loop():
        return ZERO
    parts = components(simplify(g))
    tasks: list[tuple] = [(_PRODUCT, len(parts), 0, None)]
    tasks.extend((_CONNECTED, part) for part in parts)
    # The cache is keyed on relabeled connected pieces and lives for one
    # top-level call; trees are keyed on their vertex count alone.
    cache: dict[Multigraph, RationalPoly] = {}
    trees: dict[int, RationalPoly] = {}
    values: list[RationalPoly] = []
    while tasks:
        task = tasks.pop()
        kind = task[0]
        if kind == _CONNECTED:
            h = task[1]
            n = h.n
            if len(h.edges) == n - 1:
                tree = trees.get(n)
                if tree is None:
                    tree = trees[n] = X * x_minus_one_pow(n - 1)
                values.append(tree)
                continue
            found = cache.get(h)
            if found is not None:
                values.append(found)
                continue
            pieces = blocks(h)
            if len(pieces) > 1:
                tasks.append((_PRODUCT, len(pieces), len(pieces) - 1, h))
                tasks.extend((_CONNECTED, piece) for piece in pieces)
            else:
                # h is 2-connected on three or more vertices, so it has no
                # bridge: deleting an edge leaves it connected, and so does
                # contracting one, which cannot make a loop.
                e = choose_edge(h)
                tasks.append((_DIFFERENCE, h))
                tasks.append((_CONNECTED, simplify(contract_edge(h, e))))
                tasks.append((_CONNECTED, simplify(delete_edge(h, e))))
        elif kind == _PRODUCT:
            _, count, shift, key = task
            result = ONE
            for _ in range(count):
                result = result * values.pop()
            if shift:
                # Each block's polynomial has the factor x, so the low
                # coefficients dropped here are zero.
                den, nums = result.to_den_coeffs()
                result = RationalPoly.from_den_coeffs(den, nums[shift:])
            if key is not None:
                cache[key] = result
            values.append(result)
        else:
            contracted = values.pop()
            result = values.pop() - contracted
            cache[task[1]] = result
            values.append(result)
    return values.pop()


def cycle_chromatic_closed(n: int) -> RationalPoly:
    """(x-1)^n + (-1)^n (x-1): the cycle's chromatic polynomial."""
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    sign = -1 if n % 2 else 1
    return x_minus_one_pow(n) + sign * x_minus_one_pow(1)


def path_chromatic_closed(k_vertices: int) -> RationalPoly:
    """x (x-1)^(k-1): the chromatic polynomial of a path on k vertices."""
    if k_vertices < 1:
        raise ValueError(f"path needs at least one vertex, got {k_vertices}")
    return X * x_minus_one_pow(k_vertices - 1)


def quotient_graph(g: Multigraph, perm: Permutation) -> Multigraph:
    """Collapse each cycle of perm to one vertex, then drop parallel edges.

    perm is any permutation of the vertices, automorphism or not; loops
    created by the collapse survive (one per vertex).
    """
    if perm.degree != g.n:
        raise ValueError(
            f"permutation degree {perm.degree} does not match vertex count {g.n}"
        )
    return simplify(contract_partition(g, perm.cycles()))


def orbital_by_definition(g: Multigraph, group: PermGroup) -> RationalPoly:
    """Average of the quotient chromatic polynomials over a group.

    At a positive integer x the result counts equivalence classes of
    proper x-colorings of g, where two colorings are equivalent when one
    is the other composed with a group element.  Requires every element
    to be an automorphism of g; anything else would make the average
    meaningless, so it is rejected rather than computed.
    """
    if group.degree != g.n:
        raise ValueError(
            f"group degree {group.degree} does not match vertex count {g.n}"
        )
    for perm in group:
        if not is_automorphism(g, perm):
            raise ValueError(f"{perm!r} is not an automorphism of {g!r}")
    total = ZERO
    for perm in group:
        total = total + chromatic_polynomial(quotient_graph(g, perm))
    return total * Fraction(1, group.order())


def _divisor_sum(n: int, base: RationalPoly) -> RationalPoly:
    """Sum over divisors d of n of totient(n/d) * base^d."""
    total = ZERO
    for d in divisors(n):
        total = total + totient(n // d) * base ** d
    return total


def orbital_rotation_closed(n: int) -> RationalPoly:
    """Orbital chromatic polynomial of the n-cycle under rotations.

    (1/n) * sum_{d | n} totient(n/d) (x-1)^d, with an extra -(x-1) when
    n is odd.
    """
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    result = _divisor_sum(n, x_minus_one_pow(1)) * Fraction(1, n)
    if n % 2:
        result = result - x_minus_one_pow(1)
    return result


def orbital_full_closed(n: int) -> RationalPoly:
    """Orbital chromatic polynomial of the n-cycle under its full symmetry group.

    Odd n:  (1/2n) * sum_{d | n} totient(n/d) (x-1)^d - x/2 + 1/2.
    Even n: (1/2n) * sum_{d | n} totient(n/d) (x-1)^d + (1/4) x (x-1)^(n/2).
    """
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    result = _divisor_sum(n, x_minus_one_pow(1)) * Fraction(1, 2 * n)
    if n % 2:
        result = result - Fraction(1, 2) * x_minus_one_pow(1)
    else:
        result = result + Fraction(1, 4) * X * x_minus_one_pow(n // 2)
    return result


def cycle_index_rotation_at(n: int, x: RationalPoly) -> RationalPoly:
    """Cycle index of the rotation group with every variable set to x.

    Equals (1/n) * sum_{d | n} totient(n/d) x^d; substituting x-1 turns
    it into the even-n rotation orbital polynomial, which is what ties
    the closed forms to classical pattern counting.
    """
    if n < 1:
        raise ValueError(f"cycle index needs n >= 1, got {n}")
    return _divisor_sum(n, x) * Fraction(1, n)


def fermat_check(p: int, lambda_max: int) -> bool:
    """Check (k-1)^p = k-1 (mod p) for k = 0..lambda_max, two ways.

    The direct route verifies the congruence by modular arithmetic.  The
    structural route evaluates the rotation orbital polynomial of the
    p-cycle, (1/p)((k-1)^p + (p-1)(k-1)) - k + 1, and confirms it lands
    on a non-negative integer; because the polynomial counts orbits,
    its integrality forces the congruence.  Both routes must pass.
    """
    if not is_prime(p):
        if p >= 2:
            f = smallest_prime_factor(p)
            raise ValueError(f"{p} is not prime: {p} = {f} * {p // f}")
        raise ValueError(f"{p} is not prime")
    if lambda_max < 1:
        raise ValueError(f"lambda_max must be >= 1, got {lambda_max}")
    op = orbital_rotation_closed(p)
    for k in range(lambda_max + 1):
        if ((k - 1) ** p - (k - 1)) % p != 0:
            return False
        value = op(k)
        if value.denominator != 1 or value < 0:
            return False
    return True
