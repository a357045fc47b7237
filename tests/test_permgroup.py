"""Permutations, their cycle structure, and the cycle-graph symmetry groups."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbichrom.multigraph import Multigraph, cycle_graph, path_graph
from orbichrom.permgroup import (
    PermGroup,
    Permutation,
    automorphism_group,
    is_automorphism,
    reflection_s,
    reflection_s_prime,
    rotation,
    rotation_group,
    trivial_group,
)

from conftest import multigraphs

permutations_st = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


class TestPermutation:
    def test_application_and_identity(self):
        p = Permutation([2, 0, 1])
        assert [p(v) for v in range(3)] == [2, 0, 1]
        assert Permutation.identity(3) == Permutation([0, 1, 2])

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 3, 1])
        with pytest.raises(ValueError):
            Permutation([1, 2, 3])

    def test_composition_applies_right_factor_first(self):
        a = Permutation([1, 2, 0])
        b = Permutation([0, 2, 1])
        assert (a * b)(0) == a(b(0)) == 1
        assert [(a * b)(v) for v in range(3)] == [a(b(v)) for v in range(3)]

    @given(permutations_st)
    def test_inverse_undoes(self, p):
        n = p.degree
        assert p * p.inverse() == Permutation.identity(n)
        assert p.inverse() * p == Permutation.identity(n)

    def test_composition_needs_matching_degree(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]) * Permutation([0, 1, 2])

    def test_cycles_known_values(self):
        assert Permutation([0, 1, 2]).cycles() == ((0,), (1,), (2,))
        assert Permutation([1, 2, 0]).cycles() == ((0, 1, 2),)
        assert Permutation([0, 4, 3, 2, 1]).cycles() == ((0,), (1, 4), (2, 3))

    @given(permutations_st)
    def test_cycles_partition_and_reconstruct(self, p):
        cycles = p.cycles()
        seen = [v for cyc in cycles for v in cyc]
        assert sorted(seen) == list(range(p.degree))
        for cyc in cycles:
            for i, v in enumerate(cyc):
                assert p(v) == cyc[(i + 1) % len(cyc)]
        assert [min(cyc) for cyc in cycles] == sorted(min(cyc) for cyc in cycles)
        assert all(cyc[0] == min(cyc) for cyc in cycles)

    @given(permutations_st)
    def test_text_round_trip(self, p):
        assert Permutation.from_text(p.to_text()) == p

    def test_text_format(self):
        assert Permutation([1, 2, 3, 0]).to_text() == "1 2 3 0"
        assert Permutation.from_text(" 1  0 ") == Permutation([1, 0])
        with pytest.raises(ValueError):
            Permutation.from_text("1 x 0")
        with pytest.raises(ValueError):
            Permutation.from_text("2 0")


class TestConstructors:
    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=23))
    def test_rotation_images_and_cycle_structure(self, n, m):
        m = m % n
        r = rotation(n, m)
        assert all(r(v) == (v + m) % n for v in range(n))
        cycles = r.cycles()
        k = math.gcd(n, m)
        assert len(cycles) == k
        assert all(len(cyc) == n // k for cyc in cycles)

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=11))
    def test_reflection_images_and_cycle_count(self, n, m):
        m = m % n
        s = reflection_s(n, m)
        assert all(s(v) == (2 * m - v) % n for v in range(n))
        assert s * s == Permutation.identity(n)
        assert len(s.cycles()) == n // 2 + 1

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=5))
    def test_mirror_reflection_images_and_cycle_count(self, half, m):
        n = 2 * half
        m = m % half
        s = reflection_s_prime(n, m)
        assert all(s(v) == (2 * m + 1 - v) % n for v in range(n))
        assert s * s == Permutation.identity(n)
        assert len(s.cycles()) == n // 2

    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            rotation(0, 0)
        with pytest.raises(ValueError):
            rotation(4, 4)
        with pytest.raises(ValueError):
            reflection_s(4, -1)
        with pytest.raises(ValueError):
            reflection_s_prime(5, 0)
        with pytest.raises(ValueError):
            reflection_s_prime(6, 3)


_S4 = [Permutation(p) for p in itertools.permutations(range(4))]


def _brute_closure(gens) -> set:
    closure = {Permutation.identity(4)} | set(gens)
    while True:
        grown = closure | {a * b for a in closure for b in closure}
        if grown == closure:
            return closure
        closure = grown


def _assert_trusted(p: Permutation) -> None:
    """p is exactly what the checking constructor builds from its images."""
    ref = Permutation(list(p.images))
    assert p == ref and hash(p) == hash(ref) and type(p.images) is tuple
    assert all(type(v) is int for v in p.images)


class TestTrustedConstruction:
    """Rotations, reflections and products skip the bijection check."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_generators_match_checked_construction(self, n):
        perms = [rotation(n, m) for m in range(n)] + [reflection_s(n, m) for m in range(n)]
        if n % 2 == 0:
            perms += [reflection_s_prime(n, m) for m in range(n // 2)]
        r, s = rotation(n, 1 % n), reflection_s(n, 0)
        for p in perms:
            _assert_trusted(p)
            for q in (r, s):
                product = p * q
                _assert_trusted(product)
                assert product.images == tuple(p(q(v)) for v in range(n))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(*[st.permutations(list(range(n)))] * 2)))
    def test_compose_matches_checked_construction(self, pair):
        a, b = (Permutation(images) for images in pair)
        product = a.compose(b)
        _assert_trusted(product)
        assert product == Permutation([a(b(v)) for v in range(a.degree)])


class TestPermGroup:
    def test_validates_group_axioms(self):
        r = rotation(3, 1)
        with pytest.raises(ValueError):
            PermGroup([r])
        with pytest.raises(ValueError):
            PermGroup([Permutation.identity(3), r])
        with pytest.raises(ValueError):
            PermGroup([])
        with pytest.raises(ValueError):
            PermGroup([Permutation.identity(2), Permutation.identity(3)])
        assert PermGroup([Permutation.identity(3), r, r * r]).order() == 3

    def test_rejects_a_generated_set_with_an_element_left_out(self):
        elements = list(automorphism_group(6).elements)
        with pytest.raises(ValueError):
            PermGroup(elements[:-1])
        with pytest.raises(ValueError):
            PermGroup(elements + [Permutation([1, 0, 2, 3, 4, 5])])

    def test_rejects_a_set_closed_under_the_first_generator_only(self):
        # With the transposition a and the 4-cycle b as generators, these
        # six are closed under multiplying by a, but b * b escapes (and a
        # 4-cycle cannot lie in a group of order 6).
        a, b = Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])
        with pytest.raises(ValueError):
            PermGroup([Permutation.identity(4), a, b, a * b, b * a, a * b * a])

    @given(
        st.sets(st.sampled_from(_S4), min_size=1, max_size=8),
        st.booleans(),
        st.sets(st.sampled_from(_S4), max_size=2),
        st.permutations(range(24)),
    )
    def test_accepts_exactly_the_subgroups(self, gens, close, toggled, order):
        # Either a generated subgroup with a few elements toggled, or a
        # random set; listed in a random order.
        candidate = _brute_closure(gens) if close else set(gens)
        candidate ^= toggled
        listed = [_S4[i] for i in order if _S4[i] in candidate]
        if not listed:
            return
        is_group = Permutation.identity(4) in candidate and all(
            a * b in candidate for a in candidate for b in candidate
        )
        if is_group:
            grp = PermGroup(listed)
            assert grp.elements == tuple(listed)
            assert all((p in grp) == (p in candidate) for p in _S4)
        else:
            with pytest.raises(ValueError):
                PermGroup(listed)

    def test_trivial_group(self):
        g = trivial_group(5)
        assert g.order() == 1
        assert Permutation.identity(5) in g

    @given(st.integers(min_value=1, max_value=16))
    def test_rotation_group_order_and_membership(self, n):
        grp = rotation_group(n)
        assert grp.order() == n
        assert all(rotation(n, m) in grp for m in range(n))

    @given(st.integers(min_value=1, max_value=16))
    def test_automorphism_group_order(self, n):
        grp = automorphism_group(n)
        assert grp.order() == (n if n <= 2 else 2 * n)

    @given(st.integers(min_value=1, max_value=24))
    def test_every_group_element_preserves_the_cycle(self, n):
        g = cycle_graph(n)
        for perm in automorphism_group(n):
            assert is_automorphism(g, perm)

    @given(st.integers(min_value=3, max_value=12))
    def test_rotations_form_a_subgroup_of_the_full_group(self, n):
        full = set(automorphism_group(n).elements)
        assert set(rotation_group(n).elements) <= full

    @given(st.integers(min_value=4, max_value=12).filter(lambda n: n % 2 == 0))
    def test_even_cycles_use_both_reflection_families(self, n):
        elements = set(automorphism_group(n).elements)
        for m in range(n // 2):
            assert reflection_s(n, m) in elements
            assert reflection_s_prime(n, m) in elements

    @given(st.integers(min_value=3, max_value=13).filter(lambda n: n % 2 == 1))
    def test_odd_cycles_use_vertex_reflections_only(self, n):
        elements = set(automorphism_group(n).elements)
        for m in range(n):
            assert reflection_s(n, m) in elements


class TestIsAutomorphism:
    def test_positive_and_negative_cases(self):
        g = path_graph(3)
        swap_ends = Permutation([2, 1, 0])
        assert is_automorphism(g, swap_ends)
        assert not is_automorphism(g, Permutation([1, 0, 2]))
        assert is_automorphism(cycle_graph(5), rotation(5, 2))
        assert not is_automorphism(cycle_graph(4), Permutation([1, 0, 2, 3]))
        assert is_automorphism(cycle_graph(1), Permutation.identity(1))

    def test_respects_multiplicity(self):
        # swapping the ends maps the doubled edge 01 onto the single edge 12:
        # the same set of distinct edges, a different multiset
        g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        assert not is_automorphism(g, Permutation([2, 1, 0]))
        assert is_automorphism(g, Permutation([0, 1, 2]))

    def test_loops(self):
        swap_ends = Permutation([2, 1, 0])
        assert not is_automorphism(Multigraph(3, [(0, 0), (0, 1), (1, 2)]), swap_ends)
        assert is_automorphism(Multigraph(3, [(0, 0), (0, 1), (1, 2), (2, 2)]), swap_ends)
        assert is_automorphism(Multigraph(3, [(0, 1), (1, 1), (1, 2)]), swap_ends)
        assert not is_automorphism(Multigraph(3, [(0, 0), (0, 0), (2, 2)]), swap_ends)

    @settings(max_examples=50)
    @given(multigraphs(max_vertices=6, max_edges=8).flatmap(
        lambda g: st.tuples(st.just(g), st.permutations(list(range(g.n))).map(Permutation))
    ))
    def test_agrees_with_edge_multiset_comparison(self, graph_and_perm):
        g, perm = graph_and_perm
        mapped = Counter(tuple(sorted((perm(u), perm(v)))) for u, v in g.edges)
        assert is_automorphism(g, perm) == (mapped == Counter(g.edges))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_automorphism(cycle_graph(3), Permutation.identity(4))
