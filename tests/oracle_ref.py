"""Reference coloring counts for the tests: filter every map, mark whole orbits.

This is the enumeration ``orbichrom.oracle`` once was: all lam^n maps
0..n-1 -> 0..lam-1 are generated and filtered for properness, and orbits
are counted by marking every image of each unvisited proper coloring in
a ``seen`` set.  It stays here, unchanged apart from dropping the input
checks, so that the depth-first, least-representative oracle can be
checked against it.  Its time and memory grow as lam^n, so it only suits
small inputs; nothing outside the tests uses it.
"""

from __future__ import annotations

from itertools import product

from orbichrom.multigraph import Multigraph
from orbichrom.permgroup import PermGroup, Permutation


def _constraints(g: Multigraph) -> list[tuple[int, int]]:
    return sorted(set(g.edges))


def count_proper_colorings(g: Multigraph, lam: int) -> int:
    edges = _constraints(g)
    return sum(
        1
        for coloring in product(range(lam), repeat=g.n)
        if all(coloring[u] != coloring[v] for u, v in edges)
    )


def count_fixed_colorings(g: Multigraph, perm: Permutation, lam: int) -> int:
    edges = _constraints(g)
    images = perm.images
    return sum(
        1
        for coloring in product(range(lam), repeat=g.n)
        if all(coloring[images[v]] == coloring[v] for v in range(g.n))
        and all(coloring[u] != coloring[v] for u, v in edges)
    )


def count_coloring_orbits(g: Multigraph, group: PermGroup, lam: int) -> int:
    edges = _constraints(g)
    proper = (
        coloring
        for coloring in product(range(lam), repeat=g.n)
        if all(coloring[u] != coloring[v] for u, v in edges)
    )
    images = [perm.images for perm in group]
    seen: set[tuple[int, ...]] = set()
    orbits = 0
    for coloring in proper:
        if coloring in seen:
            continue
        orbits += 1
        for imgs in images:
            seen.add(tuple(coloring[imgs[v]] for v in range(g.n)))
    return orbits
