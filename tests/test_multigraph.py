"""Multigraph data type, contractions, shape recognition, interchange text."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbichrom.multigraph import (
    GraphParseError,
    Multigraph,
    ShapeDescriptor,
    blocks,
    classify_shape,
    components,
    contract_edge,
    contract_partition,
    cycle_graph,
    delete_edge,
    graph_to_text,
    parse_graph_text,
    path_graph,
    simplify,
)

from conftest import multigraphs


class TestConstruction:
    def test_edges_are_canonicalized(self):
        g = Multigraph(3, [(2, 1), (0, 2), (1, 2)])
        assert g.edges == ((0, 2), (1, 2), (1, 2))

    def test_equality_is_vertexcount_plus_edge_multiset(self):
        assert Multigraph(3, [(1, 0)]) == Multigraph(3, [(0, 1)])
        assert Multigraph(3, [(0, 1)]) != Multigraph(4, [(0, 1)])
        assert Multigraph(2, [(0, 1)]) != Multigraph(2, [(0, 1), (0, 1)])
        assert hash(Multigraph(3, [(1, 0)])) == hash(Multigraph(3, [(0, 1)]))

    def test_loops_and_parallels_are_kept(self):
        g = Multigraph(2, [(0, 0), (0, 1), (1, 0)])
        assert g.edge_count() == 3
        assert g.has_loop()
        assert g.loop_vertices() == {0}

    def test_empty_graph_is_allowed(self):
        g = Multigraph(0)
        assert g.n == 0 and g.edges == ()

    @pytest.mark.parametrize("bad_edges", [[(0, 3)], [(-1, 0)], [(3, 3)]])
    def test_out_of_range_endpoints_rejected(self, bad_edges):
        with pytest.raises(ValueError):
            Multigraph(3, bad_edges)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(-1)


class TestBuilders:
    def test_cycle_graph_small_cases(self):
        assert cycle_graph(1) == Multigraph(1, [(0, 0)])
        assert cycle_graph(2) == Multigraph(2, [(0, 1), (0, 1)])
        assert cycle_graph(3) == Multigraph(3, [(0, 1), (0, 2), (1, 2)])

    @given(st.integers(min_value=3, max_value=40))
    def test_cycle_graph_is_two_regular(self, n):
        g = cycle_graph(n)
        degree = Counter()
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        assert g.edge_count() == n
        assert all(degree[v] == 2 for v in range(n))

    def test_path_graph(self):
        assert path_graph(1) == Multigraph(1)
        assert path_graph(4) == Multigraph(4, [(0, 1), (1, 2), (2, 3)])

    def test_builders_reject_empty(self):
        with pytest.raises(ValueError):
            cycle_graph(0)
        with pytest.raises(ValueError):
            path_graph(0)


class TestSimplify:
    def test_simple_graph_is_returned_as_is(self):
        g = Multigraph(3, [(0, 0), (0, 1)])
        assert simplify(g) is g

    def test_collapses_parallels_keeps_one_loop(self):
        g = Multigraph(3, [(0, 1), (1, 0), (1, 1), (1, 1), (2, 2)])
        assert simplify(g) == Multigraph(3, [(0, 1), (1, 1), (2, 2)])

    @given(multigraphs())
    def test_idempotent(self, g):
        once = simplify(g)
        assert simplify(once) == once

    @given(multigraphs())
    def test_edge_set_preserved(self, g):
        assert set(simplify(g).edges) == set(g.edges)
        assert simplify(g).n == g.n


def _reachable(edges, start: int, banned: int = -1) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y != banned and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def _edge_multiset(pieces, vertex_lists) -> Counter:
    """The edges of relabeled pieces, mapped back through their vertex lists."""
    out = Counter()
    for piece, vs in zip(pieces, vertex_lists):
        for u, v in piece.edges:
            out[(vs[u], vs[v])] += 1
    return out


class TestComponents:
    def test_known_split(self):
        g = Multigraph(6, [(4, 5), (0, 2), (2, 2), (0, 2)])
        assert components(g) == [
            Multigraph(2, [(0, 1), (1, 1), (0, 1)]),
            Multigraph(1),
            Multigraph(1),
            Multigraph(2, [(0, 1)]),
        ]

    def test_connected_graph_is_returned_as_is(self):
        g = cycle_graph(5)
        assert components(g)[0] is g
        assert components(Multigraph(0)) == []

    @given(multigraphs(max_vertices=8, max_edges=10))
    def test_pieces_are_connected_and_cover_the_graph(self, g):
        parts = components(g)
        # vertex lists by the brute-force reachability of each smallest unseen vertex
        vertex_lists, seen = [], set()
        for v in range(g.n):
            if v not in seen:
                reach = _reachable(g.edges, v)
                seen |= reach
                vertex_lists.append(sorted(reach))
        assert [p.n for p in parts] == [len(vs) for vs in vertex_lists]
        assert _edge_multiset(parts, vertex_lists) == Counter(g.edges)


class TestBlocks:
    def test_two_triangles_sharing_a_vertex_with_a_pendant_edge(self):
        g = Multigraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
        triangle = cycle_graph(3)
        assert sorted(blocks(g), key=repr) == sorted(
            [triangle, triangle, Multigraph(2, [(0, 1)])], key=repr
        )

    def test_loops_parallels_and_isolated_vertices(self):
        g = Multigraph(4, [(0, 1), (0, 1), (1, 1), (1, 2)])
        assert sorted(blocks(g), key=repr) == sorted(
            [Multigraph(2, [(0, 1), (0, 1)]), Multigraph(1, [(0, 0)]), Multigraph(2, [(0, 1)])],
            key=repr,
        )

    def test_a_block_is_returned_as_is(self):
        g = cycle_graph(6)
        assert blocks(g)[0] is g
        assert blocks(Multigraph(3)) == []

    @given(multigraphs(max_vertices=7, max_edges=10))
    def test_blocks_partition_the_edges_and_have_no_cut_vertex(self, g):
        found = blocks(g)
        assert sum(b.edge_count() for b in found) == g.edge_count()
        assert sum(len(b.loop_vertices()) for b in found) == sum(u == v for u, v in g.edges)
        for b in found:
            if b.n >= 3:
                for cut in range(b.n):
                    start = 1 if cut == 0 else 0
                    assert len(_reachable(b.edges, start, banned=cut)) == b.n - 1
        # Counting the block-cut tree: on a connected loopless graph,
        # the block vertex counts exceed n by blocks - 1.
        if not g.has_loop() and g.edge_count() and len(_reachable(g.edges, 0)) == g.n:
            assert sum(b.n for b in found) - (len(found) - 1) == g.n


class TestContractPartition:
    def test_opposite_pairs_of_square(self):
        g = cycle_graph(4)
        q = contract_partition(g, [{0, 2}, {1, 3}])
        assert q == Multigraph(2, [(0, 1)] * 4)

    def test_whole_graph_to_one_vertex_turns_edges_into_loops(self):
        g = cycle_graph(3)
        q = contract_partition(g, [{0, 1, 2}])
        assert q == Multigraph(1, [(0, 0)] * 3)

    @given(multigraphs())
    def test_singleton_partition_is_identity(self, g):
        assert contract_partition(g, [{v} for v in range(g.n)]) == g

    @given(multigraphs(max_vertices=5))
    def test_edge_count_is_conserved(self, g):
        blocks = [{v for v in range(g.n) if v % 2 == 0}, {v for v in range(g.n) if v % 2 == 1}]
        blocks = [b for b in blocks if b]
        q = contract_partition(g, blocks)
        assert q.edge_count() == g.edge_count()

    def test_blocks_are_labeled_by_minimum_vertex(self):
        g = Multigraph(4, [(0, 3)])
        q = contract_partition(g, [{1, 3}, {0}, {2}])
        assert q == Multigraph(3, [(0, 1)])

    def test_rejects_bad_partitions(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError, match=r"^partition does not cover vertices \[2\]$"):
            contract_partition(g, [{0, 1}])
        with pytest.raises(ValueError, match=r"^vertex 1 appears in more than one block$"):
            contract_partition(g, [{0, 1}, {1, 2}])
        with pytest.raises(ValueError, match=r"^partition blocks must be non-empty$"):
            contract_partition(g, [{0, 1, 2}, set()])
        with pytest.raises(ValueError, match=r"^partition mentions vertex 3 outside 0\.\.2$"):
            contract_partition(g, [{0, 1, 2, 3}])


class TestDeleteContractEdge:
    def test_delete_removes_exactly_one_copy(self):
        g = Multigraph(2, [(0, 1), (0, 1)])
        assert delete_edge(g, (0, 1)) == Multigraph(2, [(0, 1)])
        assert delete_edge(g, (1, 0)) == Multigraph(2, [(0, 1)])

    def test_delete_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            delete_edge(cycle_graph(3), (0, 0))

    def test_contract_merges_endpoints_and_drops_parallel_copies(self):
        g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        assert contract_edge(g, (0, 1)) == Multigraph(2, [(0, 1)])

    def test_contract_keeps_edges_between_other_vertices(self):
        g = cycle_graph(4)
        q = contract_edge(g, (0, 1))
        assert q == Multigraph(3, [(0, 1), (0, 2), (1, 2)])

    def test_contract_rejects_loops(self):
        g = Multigraph(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            contract_edge(g, (0, 0))
        with pytest.raises(ValueError):
            contract_edge(Multigraph(1, [(0, 0)]), (0, 0))

    @given(multigraphs())
    def test_delete_then_count(self, g):
        plain = [e for e in g.edges if e[0] != e[1]]
        if plain:
            e = plain[0]
            assert delete_edge(g, e).edge_count() == g.edge_count() - 1
            assert contract_edge(g, e).n == g.n - 1


def _assert_canonical(h: Multigraph) -> None:
    """h is exactly what the validating constructor builds from its edges."""
    ref = Multigraph(h.n, h.edges)
    assert h == ref and hash(h) == hash(ref)
    assert type(h.edges) is tuple and h.edges == ref.edges
    assert all(type(e) is tuple and 0 <= e[0] <= e[1] < h.n for e in h.edges)
    assert all(type(x) is int for e in h.edges for x in e)


class TestTrustedConstruction:
    """Graphs derived inside the package skip validation; they must not need it."""

    @settings(max_examples=50, deadline=None)
    @given(multigraphs(), st.data())
    def test_derived_graphs_are_canonical(self, g, data):
        derived = [simplify(g), *components(g), *blocks(g)]
        for e in set(g.edges):
            derived.append(delete_edge(g, e))
            if e[0] != e[1]:
                derived.append(contract_edge(g, e))
        tags = data.draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
        parts = [[v for v in range(g.n) if tags[v] == t] for t in sorted(set(tags))]
        q = contract_partition(g, parts)
        label = {v: i for i, part in enumerate(sorted(parts)) for v in part}
        assert q == Multigraph(len(parts), [(label[u], label[v]) for u, v in g.edges])
        for h in derived + [q]:
            _assert_canonical(h)


class TestClassifyShape:
    def test_cycles(self):
        assert classify_shape(cycle_graph(1)) == ShapeDescriptor.cycle(1)
        assert classify_shape(cycle_graph(2)) == ShapeDescriptor.cycle(2)
        assert classify_shape(cycle_graph(3)) == ShapeDescriptor.cycle(3)
        assert classify_shape(cycle_graph(9)) == ShapeDescriptor.cycle(9)

    def test_paths_without_loops(self):
        assert classify_shape(path_graph(1)) == ShapeDescriptor.path(0)
        assert classify_shape(path_graph(2)) == ShapeDescriptor.path(1)
        assert classify_shape(path_graph(5)) == ShapeDescriptor.path(4)

    def test_paths_with_end_loops(self):
        one_end = Multigraph(3, [(0, 1), (1, 2), (2, 2)])
        assert classify_shape(one_end) == ShapeDescriptor.path(2, (False, True))
        other_end = Multigraph(3, [(0, 0), (0, 1), (1, 2)])
        assert classify_shape(other_end) == ShapeDescriptor.path(2, (False, True))
        both = Multigraph(2, [(0, 0), (0, 1), (1, 1)])
        assert classify_shape(both) == ShapeDescriptor.path(1, (True, True))

    def test_loop_normalization_never_reports_true_false(self):
        shape = ShapeDescriptor.path(3, (True, False))
        assert shape.end_loops == (False, True)

    def test_parallel_edges_are_transparent_except_double_edge_pair(self):
        doubled_path = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        assert classify_shape(doubled_path) == ShapeDescriptor.path(2)
        assert classify_shape(Multigraph(2, [(0, 1), (0, 1)])) == ShapeDescriptor.cycle(2)
        assert classify_shape(Multigraph(2, [(0, 1)])) == ShapeDescriptor.path(1)

    def test_non_path_non_cycle_graphs(self):
        star = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
        assert classify_shape(star) == ShapeDescriptor.other()
        disconnected = Multigraph(4, [(0, 1), (2, 3)])
        assert classify_shape(disconnected) == ShapeDescriptor.other()
        triangle_plus_isolated = Multigraph(4, [(0, 1), (0, 2), (1, 2)])
        assert classify_shape(triangle_plus_isolated) == ShapeDescriptor.other()
        mid_loop = Multigraph(3, [(0, 1), (1, 1), (1, 2)])
        assert classify_shape(mid_loop) == ShapeDescriptor.other()
        looped_cycle = Multigraph(3, [(0, 1), (0, 2), (1, 2), (0, 0)])
        assert classify_shape(looped_cycle) == ShapeDescriptor.other()

    def test_isolated_vertex_with_loop(self):
        assert classify_shape(Multigraph(1, [(0, 0)])) == ShapeDescriptor.cycle(1)
        assert classify_shape(Multigraph(1)) == ShapeDescriptor.path(0)


class TestInterchangeText:
    def test_parse_known_text(self):
        g = parse_graph_text('{"vertices": 3, "edges": [[0,1],[2,1],[0,0]]}')
        assert g == Multigraph(3, [(0, 1), (1, 2), (0, 0)])

    @given(multigraphs())
    def test_round_trip(self, g):
        assert parse_graph_text(graph_to_text(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"vertices": 3}',
            '{"edges": []}',
            '{"vertices": "3", "edges": []}',
            '{"vertices": true, "edges": []}',
            '{"vertices": 3, "edges": [[0]]}',
            '{"vertices": 3, "edges": [[0, 1, 2]]}',
            '{"vertices": 3, "edges": [[0, "1"]]}',
            '{"vertices": 3, "edges": [[0, true]]}',
            '{"vertices": 3, "edges": [[0, 7]]}',
            '{"vertices": -1, "edges": []}',
            '{"vertices": 2, "edges": 5}',
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(GraphParseError):
            parse_graph_text(text)

    def test_parse_error_is_a_value_error(self):
        assert issubclass(GraphParseError, ValueError)
