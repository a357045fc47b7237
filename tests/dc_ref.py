"""Reference chromatic polynomials for the tests: plain recursive
deletion-contraction.

This is the engine ``chroma.chromatic_polynomial`` once was: no
component split, no forest or block leaves, one Python call per node.
It stays here, unchanged, so that the factorising stack-based engine
can be checked against it.  Its recursion depth grows with the edge
count, so it only suits small graphs; nothing outside the tests uses it.
"""

from __future__ import annotations

from typing import Callable

from orbichrom.multigraph import Multigraph, contract_edge, delete_edge, simplify
from orbichrom.rationalpoly import X, ZERO, RationalPoly


def smallest_edge(g: Multigraph) -> tuple[int, int]:
    return g.edges[0]


def chromatic_reference(
    g: Multigraph, choose_edge: Callable[[Multigraph], tuple[int, int]] = smallest_edge
) -> RationalPoly:
    cache: dict[Multigraph, RationalPoly] = {}

    def recurse(h: Multigraph) -> RationalPoly:
        if h.has_loop():
            return ZERO
        h = simplify(h)
        found = cache.get(h)
        if found is not None:
            return found
        if not h.edges:
            result = X ** h.n
        else:
            e = choose_edge(h)
            result = recurse(delete_edge(h, e)) - recurse(contract_edge(h, e))
        cache[h] = result
        return result

    return recurse(g)
