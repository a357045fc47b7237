"""Brute-force ground truth for coloring counts.

Everything in this module enumerates.  No clever counting, no transfer
matrices, no reuse of the polynomial machinery: the point of these
functions is to be an independent check on it, so they stay deliberately
dumb.  Proper colorings are listed one at a time by a depth-first search
that only ever extends a proper partial coloring, so the work follows
the number of proper colorings, not lam^n, and memory stays flat: an
orbit is counted at its lexicographically least member, so no coloring
is remembered.  An explicit vertex cap (default 16, overridable through
the ORBICHROM_MAX_ORACLE_VERTICES environment variable) turns "this
would run forever" into a typed error.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, Iterator

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


def _proper_colorings(g: Multigraph, lam: int) -> Iterator[tuple[int, ...]]:
    """Yield every proper coloring of g with colours 0..lam-1, in lexicographic order.

    Depth-first search over the vertices 0..n-1 in order, on an explicit
    stack of colour iterators: each vertex is offered only the colours
    that none of its earlier neighbours holds, so improper maps are never
    built.  The last vertex is expanded in one pass per prefix.  A looped
    graph has no proper coloring; the empty graph has exactly one.
    """
    n = g.n
    if g.has_loop():
        return
    if n == 0:
        yield ()
        return
    earlier: list[list[int]] = [[] for _ in range(n)]
    for u, v in _constraints(g):
        earlier[v].append(u)  # u < v: no loops are left
    colours = range(lam)
    last = n - 1
    head = [0] * last  # colours of vertices 0..last-1 on the current branch

    def free(v: int) -> list[int]:
        used = {head[u] for u in earlier[v]}
        return [c for c in colours if c not in used]

    if last == 0:
        for c in colours:
            yield (c,)
        return
    stack = [iter(free(0))]  # stack[v] walks the colours left for vertex v
    while stack:
        v = len(stack) - 1
        c = next(stack[v], None)
        if c is None:
            stack.pop()
            continue
        head[v] = c
        if v + 1 < last:
            stack.append(iter(free(v + 1)))
        else:
            prefix = tuple(head)
            for c in free(last):
                yield prefix + (c,)


def _composer(perm: Permutation) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map coloring -> coloring o perm on tuples, built in C by itemgetter.

    itemgetter with a single index returns a scalar, not a tuple.  A
    permutation of at most one point is the identity, so it gets
    ``tuple``, which hands a tuple back unchanged.
    """
    if perm.degree < 2:
        return tuple
    return itemgetter(*perm.images)


def count_proper_colorings(g: Multigraph, lam: int) -> int:
    """Number of maps 0..n-1 -> {1..lam} proper on g, by full enumeration.

    Every proper coloring is generated one at a time by a depth-first
    search that never extends an improper partial map, and counted.  A
    loop makes every map improper, so any looped graph counts zero.
    """
    if lam < 0:
        raise ValueError(f"number of colors must be >= 0, got {lam}")
    _check_capacity(g)
    return sum(1 for _ in _proper_colorings(g, lam))


def count_fixed_colorings(g: Multigraph, perm: Permutation, lam: int) -> int:
    """Proper colorings f of g with f(perm(v)) = f(v) for every vertex.

    Every proper coloring is enumerated and kept when composing it with
    perm gives it back.
    """
    if lam < 0:
        raise ValueError(f"number of colors must be >= 0, got {lam}")
    if perm.degree != g.n:
        raise ValueError(
            f"permutation degree {perm.degree} does not match vertex count {g.n}"
        )
    _check_capacity(g)
    compose = _composer(perm)
    return sum(1 for coloring in _proper_colorings(g, lam) if compose(coloring) == coloring)


def count_coloring_orbits(g: Multigraph, group: PermGroup, lam: int) -> int:
    """Number of proper colorings of g up to the action of group.

    Every proper coloring f is enumerated and counted when it is the
    lexicographically least member of its orbit {f o perm : perm in
    group}: each orbit has exactly one such member, so nothing needs to
    be remembered between colorings.  The test stops at the first image
    that is smaller, and tuple comparison stops at the first differing
    entry.  Deliberately not an average of fixed-point counts, so it
    stays independent of that identity.
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
    identity = Permutation.identity(g.n)
    # The identity gives f back, never a smaller image.
    images = [_composer(perm) for perm in group if perm != identity]
    orbits = 0
    for coloring in _proper_colorings(g, lam):
        for image in images:
            if image(coloring) < coloring:
                break
        else:
            orbits += 1
    return orbits
