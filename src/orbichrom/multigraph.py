"""Finite undirected multigraphs with loops and parallel edges.

Vertices are always 0..n-1.  The edge multiset is kept as a sorted tuple
of (u, v) pairs with u <= v, so two graphs compare equal exactly when
they have the same vertex count and the same edge multiset.

Only outside input is validated: the public ``Multigraph(...)``
constructor checks and canonicalises every edge it is given.  A graph
derived inside the package from a graph that is already valid (a
simplification, a deletion, a contraction, a component or a block) is
built through the private ``_from_canonical``, which stores an edge
tuple the caller has already canonicalised and sorted, and checks
nothing.

Besides the data type this module provides the constructions the rest of
the package builds on: cycle graphs, parallel-edge collapse, partition
contraction, single-edge deletion/contraction, the split into connected
components and into blocks, and a tiny shape classifier that recognizes
cycles and paths (with optional end loops) up to isomorphism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

Edge = tuple[int, int]

__all__ = [
    "Multigraph",
    "ShapeDescriptor",
    "GraphParseError",
    "cycle_graph",
    "path_graph",
    "simplify",
    "contract_partition",
    "delete_edge",
    "contract_edge",
    "components",
    "blocks",
    "classify_shape",
    "parse_graph_text",
    "graph_to_text",
]


class GraphParseError(ValueError):
    """Raised when graph interchange text cannot be decoded."""


class Multigraph:
    """Immutable multigraph on vertices 0..n-1; loops and parallels allowed."""

    __slots__ = ("_n", "_edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"vertex count must be a non-negative integer, got {n!r}")
        canon: list[Edge] = []
        for e in edges:
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge endpoints must be integers, got {e!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} has an endpoint outside 0..{n - 1}")
            canon.append((u, v) if u <= v else (v, u))
        canon.sort()
        self._n = n
        self._edges = tuple(canon)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def edge_count(self) -> int:
        return len(self._edges)

    def has_loop(self) -> bool:
        return any(u == v for u, v in self._edges)

    def loop_vertices(self) -> set[int]:
        return {u for u, v in self._edges if u == v}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Multigraph({self._n}, {list(self._edges)!r})"


def _from_canonical(n: int, edges: tuple[Edge, ...]) -> Multigraph:
    """The trusted constructor: a graph on 0..n-1 with exactly these edges.

    edges must already be a sorted tuple of (u, v) pairs with
    0 <= u <= v < n; nothing is checked, canonicalised or sorted.
    """
    g = object.__new__(Multigraph)
    g._n = n
    g._edges = edges
    return g


@dataclass(frozen=True)
class ShapeDescriptor:
    """Isomorphism-level classification of a small graph.

    kind is "cycle", "path", or "other".  For cycles ``length`` counts
    edges (1 = a single looped vertex, 2 = a double edge); for paths it
    counts path edges, and ``end_loops`` says whether a loop sits at each
    end, normalized so a lone loop always reads (False, True).
    """

    kind: str
    length: int | None = None
    end_loops: tuple[bool, bool] | None = None

    @classmethod
    def cycle(cls, k: int) -> "ShapeDescriptor":
        return cls("cycle", k)

    @classmethod
    def path(cls, k: int, end_loops: tuple[bool, bool] = (False, False)) -> "ShapeDescriptor":
        a, b = end_loops
        return cls("path", k, (a, b) if (a, b) != (True, False) else (False, True))

    @classmethod
    def other(cls) -> "ShapeDescriptor":
        return cls("other")


def cycle_graph(n: int) -> Multigraph:
    """The cycle on n vertices.

    n = 1 is a single vertex with one loop and n = 2 is two vertices
    joined by two parallel edges; from n = 3 on it is the usual simple
    cycle 0-1-...-(n-1)-0.
    """
    if n < 1:
        raise ValueError(f"cycle_graph needs n >= 1, got {n}")
    if n == 1:
        return Multigraph(1, [(0, 0)])
    if n == 2:
        return Multigraph(2, [(0, 1), (0, 1)])
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(k_vertices: int) -> Multigraph:
    """The path on k_vertices vertices (k_vertices - 1 edges)."""
    if k_vertices < 1:
        raise ValueError(f"path_graph needs at least one vertex, got {k_vertices}")
    return Multigraph(k_vertices, [(i, i + 1) for i in range(k_vertices - 1)])


def simplify(g: Multigraph) -> Multigraph:
    """Collapse every parallel class to a single edge.

    Loops are parallel to each other, so at most one loop survives per
    vertex; it is kept rather than dropped because a loop forces the
    chromatic polynomial to vanish and must stay visible.  A graph that
    is already simple comes back as itself.
    """
    distinct = set(g.edges)
    if len(distinct) == len(g.edges):
        return g
    return _from_canonical(g.n, tuple(sorted(distinct)))


def contract_partition(g: Multigraph, blocks: Iterable[Iterable[int]]) -> Multigraph:
    """Contract each block of a vertex partition to a single vertex.

    Blocks are relabeled 0..k-1 in ascending order of their minimum
    original vertex.  Every original edge survives (as a loop when both
    endpoints share a block); no parallel-edge collapse happens here.
    """
    blocks = [sorted(b) for b in blocks]
    if any(not b for b in blocks):
        raise ValueError("partition blocks must be non-empty")
    blocks.sort(key=lambda b: b[0])
    n = g.n
    label: dict[int, int] = {}
    for i, block in enumerate(blocks):
        for v in block:
            if not (0 <= v < n):
                raise ValueError(f"partition mentions vertex {v} outside 0..{n - 1}")
            if v in label:
                raise ValueError(f"vertex {v} appears in more than one block")
            label[v] = i
    if len(label) != n:
        missing = sorted(set(range(n)) - set(label))
        raise ValueError(f"partition does not cover vertices {missing}")
    edges = []
    for u, v in g.edges:
        a, b = label[u], label[v]
        edges.append((a, b) if a <= b else (b, a))
    edges.sort()
    return _from_canonical(len(blocks), tuple(edges))


def delete_edge(g: Multigraph, e: Sequence[int]) -> Multigraph:
    """Remove one copy of edge e."""
    u, v = e
    key: Edge = (u, v) if u <= v else (v, u)
    edges = list(g.edges)
    try:
        edges.remove(key)
    except ValueError:
        raise ValueError(f"edge {key} not present in {g!r}") from None
    return _from_canonical(g.n, tuple(edges))


def contract_edge(g: Multigraph, e: Sequence[int]) -> Multigraph:
    """Merge the endpoints of a non-loop edge e.

    All parallel copies of e are removed first (they would only become
    loops at the merged vertex); everything else is carried through the
    two-endpoint block contraction.
    """
    u, v = e
    if u == v:
        raise ValueError(f"cannot contract the loop {tuple(e)}")
    key: Edge = (u, v) if u <= v else (v, u)
    if key not in g.edges:
        raise ValueError(f"edge {key} not present in {g!r}")
    remaining = tuple(f for f in g.edges if f != key)
    blocks = [[key[0], key[1]]] + [[w] for w in range(g.n) if w not in key]
    return contract_partition(_from_canonical(g.n, remaining), blocks)


def _relabel(vertices: Sequence[int], edges: Iterable[Edge]) -> Multigraph:
    """The subgraph on the given ascending vertices, relabeled 0..k-1 in order.

    edges are canonical pairs among those vertices; the relabelling is
    monotone, so each stays canonical and only their order is restored.
    """
    label = {v: i for i, v in enumerate(vertices)}
    return _from_canonical(len(vertices), tuple(sorted([(label[u], label[v]) for u, v in edges])))


def components(g: Multigraph) -> list[Multigraph]:
    """The connected components of g, ordered by their smallest vertex.

    Each component keeps its loops and parallel edges and is relabeled
    0..k-1 in the order of its original vertices; an isolated vertex is
    Multigraph(1).  A connected g comes back as itself.
    """
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    members: list[list[int]] = []
    for root in range(n):
        if comp[root] >= 0:
            continue
        c = len(members)
        comp[root] = c
        seen = [root]
        for u in seen:  # the list grows while it is walked: a breadth-first search
            for w in adj[u]:
                if comp[w] < 0:
                    comp[w] = c
                    seen.append(w)
        members.append(seen)
    if len(members) == 1:
        return [g]
    edges: list[list[Edge]] = [[] for _ in members]
    for e in g.edges:
        edges[comp[e[0]]].append(e)
    return [_relabel(sorted(vs), es) for vs, es in zip(members, edges)]


def blocks(g: Multigraph) -> list[Multigraph]:
    """The blocks of g: its maximal subgraphs without a cut vertex.

    Every edge lies in exactly one block; a bridge is a block of one
    edge, a loop a block of one looped vertex, and parallel edges stay
    together.  Isolated vertices lie in no block.  Each block is
    relabeled 0..k-1 in the order of its original vertices; a g that is
    one block on all its vertices comes back as itself.  The blocks come
    from one iterative pass of Tarjan's depth-first search, which pops a
    block off an edge stack whenever a vertex's subtree cannot reach
    above its parent.
    """
    n = g.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    found: list[list[Edge]] = []
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            found.append([(u, v)])
        else:
            adj[u].append((v, i))
            adj[v].append((u, i))
    disc = [-1] * n
    low = [0] * n
    clock = 0
    edge_stack: list[int] = []
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        # frames: (vertex, index of the edge it was entered by, its neighbours)
        dfs = [(root, -1, iter(adj[root]))]
        while dfs:
            v, via, nbrs = dfs[-1]
            for w, i in nbrs:
                if i == via:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    edge_stack.append(i)
                    dfs.append((w, i, iter(adj[w])))
                    break
                if disc[w] < disc[v]:  # a back edge from v up to its ancestor w
                    edge_stack.append(i)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                dfs.pop()
                if not dfs:
                    continue
                u = dfs[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        i = edge_stack.pop()
                        block.append(g.edges[i])
                        if i == via:
                            break
                    found.append(block)
    if len(found) == 1 and len({x for e in found[0] for x in e}) == n:
        return [g]
    return [_relabel(sorted({x for e in block for x in e}), block) for block in found]


def classify_shape(g: Multigraph) -> ShapeDescriptor:
    """Recognize g, up to isomorphism, as a cycle or a loop-decorated path.

    A double edge on two vertices counts as the cycle of length 2 and is
    the one pattern read off before parallel edges are collapsed; every
    other decision looks at the simplified graph.  Anything that is not
    a cycle, or a path with loops only at its ends, comes back "other".
    """
    if g.n == 2 and g.edges == ((0, 1), (0, 1)):
        return ShapeDescriptor.cycle(2)
    h = simplify(g)
    n = h.n
    if n == 0:
        return ShapeDescriptor.other()
    loops = h.loop_vertices()
    plain = [e for e in h.edges if e[0] != e[1]]

    if n == 1:
        return ShapeDescriptor.cycle(1) if loops else ShapeDescriptor.path(0)

    if len(components(h)) != 1:
        return ShapeDescriptor.other()

    degrees = [0] * n
    for u, v in plain:
        degrees[u] += 1
        degrees[v] += 1
    if n >= 3 and len(plain) == n and all(d == 2 for d in degrees):
        return ShapeDescriptor.other() if loops else ShapeDescriptor.cycle(n)
    if len(plain) == n - 1:
        ends = [v for v in range(n) if degrees[v] == 1]
        if len(ends) == 2 and all(degrees[v] == 2 for v in range(n) if v not in ends):
            if loops - set(ends):
                return ShapeDescriptor.other()
            return ShapeDescriptor.path(n - 1, (ends[0] in loops, ends[1] in loops))
    return ShapeDescriptor.other()


# Interchange format: a JSON object with an integer "vertices" field and
# an "edges" list of 2-element integer lists.  Loops appear as [v, v];
# repeated entries are meaningful parallel edges.

def parse_graph_text(text: str) -> Multigraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid graph text: {exc}") from None
    if not isinstance(data, dict):
        raise GraphParseError("graph text must be a JSON object")
    try:
        n = data["vertices"]
        edges = data["edges"]
    except KeyError as exc:
        raise GraphParseError(f"graph object is missing the {exc} field") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphParseError(f"'vertices' must be an integer, got {n!r}")
    if not isinstance(edges, list):
        raise GraphParseError("'edges' must be a list of [u, v] pairs")
    pairs = []
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise GraphParseError(f"edge entry {e!r} is not a 2-element integer list")
        pairs.append((e[0], e[1]))
    try:
        return Multigraph(n, pairs)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


def graph_to_text(g: Multigraph) -> str:
    return json.dumps({"vertices": g.n, "edges": [[u, v] for u, v in g.edges]})
