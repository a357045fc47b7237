"""Brute-force ground truth for coloring counts.

Everything in this module enumerates.  No clever counting, no transfer
matrices, no reuse of the polynomial machinery: the point of these
functions is to be an independent check on it, so they stay deliberately
dumb.  An explicit vertex cap (default 16, overridable through the
ORBICHROM_MAX_ORACLE_VERTICES environment variable) turns "this would
run forever" into a typed error.
"""

from __future__ import annotations

import os
from itertools import product

from .multigraph import Multigraph
from .permgroup import PermGroup, Permutation, is_automorphism

__all__ = [
    "CapacityError",
    "count_proper_colorings",
    "count_fixed_colorings",
    "count_coloring_orbits",
    "max_oracle_vertices",
]

_DEFAULT_MAX_VERTICES = 16
_ENV_VAR = "ORBICHROM_MAX_ORACLE_VERTICES"


class CapacityError(Exception):
    """The requested enumeration is too large for the brute-force oracle."""


def max_oracle_vertices() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return _DEFAULT_MAX_VERTICES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # reported below, like any cap under 1
    if cap < 1:
        raise ValueError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


def _check_capacity(g: Multigraph) -> None:
    cap = max_oracle_vertices()
    if g.n > cap:
        raise CapacityError(
            f"graph has {g.n} vertices; the enumeration oracle is capped at {cap}"
        )


def _constraints(g: Multigraph) -> list[tuple[int, int]]:
    # Parallel edges repeat a constraint; one copy each is enough.
    return sorted(set(g.edges))


def count_proper_colorings(g: Multigraph, lam: int) -> int:
    """Number of maps 0..n-1 -> {1..lam} proper on g, by full enumeration.

    All lam^n maps are generated as base-lam counters over the vertex
    index and filtered.  A loop makes every map improper, so any looped
    graph counts zero.
    """
    if lam < 0:
        raise ValueError(f"number of colors must be >= 0, got {lam}")
    _check_capacity(g)
    edges = _constraints(g)
    return sum(
        1
        for coloring in product(range(lam), repeat=g.n)
        if all(coloring[u] != coloring[v] for u, v in edges)
    )


def count_fixed_colorings(g: Multigraph, perm: Permutation, lam: int) -> int:
    """Proper colorings f of g with f(perm(v)) = f(v) for every vertex."""
    if lam < 0:
        raise ValueError(f"number of colors must be >= 0, got {lam}")
    if perm.degree != g.n:
        raise ValueError(
            f"permutation degree {perm.degree} does not match vertex count {g.n}"
        )
    _check_capacity(g)
    edges = _constraints(g)
    images = perm.images
    return sum(
        1
        for coloring in product(range(lam), repeat=g.n)
        if all(coloring[images[v]] == coloring[v] for v in range(g.n))
        and all(coloring[u] != coloring[v] for u, v in edges)
    )


def count_coloring_orbits(g: Multigraph, group: PermGroup, lam: int) -> int:
    """Number of proper colorings of g up to the action of group.

    Orbits are built explicitly: starting from each unvisited proper
    coloring f, the whole class {f o perm : perm in group} is marked.
    Deliberately not an average of fixed-point counts, so it stays
    independent of that identity.
    """
    if lam < 0:
        raise ValueError(f"number of colors must be >= 0, got {lam}")
    if group.degree != g.n:
        raise ValueError(
            f"group degree {group.degree} does not match vertex count {g.n}"
        )
    for perm in group:
        if not is_automorphism(g, perm):
            raise ValueError(f"{perm!r} is not an automorphism of {g!r}")
    _check_capacity(g)
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
