"""Brute-force coloring counts against hand counts and the polynomial route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbichrom.chroma import chromatic_polynomial, orbital_by_definition, quotient_graph
from orbichrom.multigraph import Multigraph, cycle_graph, path_graph
from orbichrom.numtheory import divisors
from orbichrom.oracle import (
    CapacityError,
    count_coloring_orbits,
    count_fixed_colorings,
    count_proper_colorings,
    max_oracle_vertices,
)
from orbichrom.permgroup import (
    PermGroup,
    Permutation,
    automorphism_group,
    reflection_s,
    rotation,
    rotation_group,
    trivial_group,
)

import oracle_ref as ref
from conftest import multigraphs


def permutations_for(n: int):
    return st.permutations(list(range(n))).map(Permutation)


graph_and_perm_st = multigraphs(max_vertices=5, max_edges=8).flatmap(
    lambda g: st.tuples(st.just(g), permutations_for(g.n))
)


def generated(gens, n: int) -> PermGroup:
    """The group of degree n generated by gens, closed by breadth-first search."""
    elements = [Permutation.identity(n)]
    index = set(elements)
    for h in elements:  # grows while it is walked
        for s in gens:
            prod = h * s
            if prod not in index:
                index.add(prod)
                elements.append(prod)
    return PermGroup(elements)


def symmetrised(g: Multigraph, group: PermGroup) -> Multigraph:
    """The edge multiset of g summed over its images, so group acts on it."""
    return Multigraph(g.n, [(p(u), p(v)) for p in group for u, v in g.edges])


@st.composite
def cycle_subgroups(draw):
    """A cycle C_n, n <= 6, with a subgroup of its symmetry group: the
    rotations by multiples of one divisor of n, possibly with one reflection."""
    n = draw(st.integers(min_value=1, max_value=6))
    gens = [rotation(n, draw(st.sampled_from(divisors(n))) % n)]
    if n >= 3 and draw(st.booleans()):
        gens.append(reflection_s(n, draw(st.integers(min_value=0, max_value=n - 1))))
    return cycle_graph(n), generated(gens, n)


class TestProperColorings:
    def test_hand_counts(self):
        assert count_proper_colorings(Multigraph(2), 3) == 9
        assert count_proper_colorings(Multigraph(2, [(0, 1)]), 3) == 6
        assert count_proper_colorings(cycle_graph(3), 3) == 6
        assert count_proper_colorings(cycle_graph(3), 2) == 0
        assert count_proper_colorings(path_graph(3), 2) == 2

    def test_loops_kill_everything(self):
        assert count_proper_colorings(Multigraph(1, [(0, 0)]), 5) == 0
        assert count_proper_colorings(Multigraph(2, [(0, 0), (0, 1)]), 5) == 0

    def test_parallel_edges_do_not_change_the_count(self):
        single = Multigraph(2, [(0, 1)])
        double = Multigraph(2, [(0, 1), (0, 1)])
        for lam in range(5):
            assert count_proper_colorings(single, lam) == count_proper_colorings(double, lam)

    def test_zero_colors(self):
        assert count_proper_colorings(Multigraph(3), 0) == 0
        assert count_proper_colorings(Multigraph(0), 0) == 1

    def test_negative_colors_rejected(self):
        with pytest.raises(ValueError):
            count_proper_colorings(Multigraph(1), -1)

    def test_loop_with_many_colors_still_zero(self):
        assert count_proper_colorings(cycle_graph(1), 99) == 0

    @settings(max_examples=50, deadline=None)
    @given(multigraphs(max_vertices=6, max_edges=9), st.integers(min_value=0, max_value=5))
    def test_agrees_with_chromatic_polynomial(self, g, lam):
        assert count_proper_colorings(g, lam) == chromatic_polynomial(g)(lam)


class TestFixedColorings:
    def test_hand_count_half_turn_of_square(self):
        g = cycle_graph(4)
        assert count_fixed_colorings(g, rotation(4, 2), 3) == 6
        assert count_fixed_colorings(g, rotation(4, 1), 3) == 0
        assert count_fixed_colorings(g, Permutation.identity(4), 3) == 18

    @settings(max_examples=60, deadline=None)
    @given(graph_and_perm_st, st.integers(min_value=0, max_value=3))
    def test_fixed_count_equals_quotient_chromatic(self, graph_and_perm, lam):
        g, perm = graph_and_perm
        q = quotient_graph(g, perm)
        assert count_fixed_colorings(g, perm, lam) == chromatic_polynomial(q)(lam)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_fixed_colorings(cycle_graph(3), Permutation.identity(4), 2)


class TestColoringOrbits:
    def test_hand_counts_from_orbit_listings(self):
        assert count_coloring_orbits(cycle_graph(3), rotation_group(3), 3) == 2
        assert count_coloring_orbits(cycle_graph(3), automorphism_group(3), 3) == 1
        assert count_coloring_orbits(cycle_graph(4), automorphism_group(4), 3) == 6
        assert count_coloring_orbits(cycle_graph(5), rotation_group(5), 3) == 6

    def test_trivial_group_gives_plain_count(self):
        g = cycle_graph(4)
        assert count_coloring_orbits(g, trivial_group(4), 3) == count_proper_colorings(g, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3))
    def test_burnside_average_reproduces_orbit_count(self, n, lam):
        g = cycle_graph(n)
        group = automorphism_group(n)
        total = sum(count_fixed_colorings(g, perm, lam) for perm in group)
        average = Fraction(total, group.order())
        assert average.denominator == 1
        assert count_coloring_orbits(g, group, lam) == average

    def test_three_counting_routes_agree_on_all_cycle_symmetries(self):
        # per symmetry: fixed colorings = chromatic count of the quotient;
        # per group: orbit count = fixed-count average = definition average
        for n in range(1, 9):
            g = cycle_graph(n)
            full = automorphism_group(n)
            fixed = {
                perm: [count_fixed_colorings(g, perm, lam) for lam in range(5)]
                for perm in full
            }
            for perm, counts in fixed.items():
                quotient_poly = chromatic_polynomial(quotient_graph(g, perm))
                assert counts == [quotient_poly(lam) for lam in range(5)]
            for group in (rotation_group(n), full):
                averaged = orbital_by_definition(g, group)
                for lam in range(5):
                    total = sum(fixed[perm][lam] for perm in group)
                    orbit_count = count_coloring_orbits(g, group, lam)
                    assert orbit_count == Fraction(total, group.order())
                    assert orbit_count == averaged(lam)

    def test_rejects_groups_that_move_edges_off_the_graph(self):
        g = path_graph(3)
        shift = Permutation([1, 2, 0])
        bad_group = PermGroup([Permutation.identity(3), shift, shift * shift])
        with pytest.raises(ValueError):
            count_coloring_orbits(g, bad_group, 2)


lams = st.integers(min_value=0, max_value=4)


class TestAgainstFilteringReference:
    """The depth-first, least-representative oracle against the old
    filter-every-map, mark-every-orbit enumeration in tests/oracle_ref.py."""

    @settings(max_examples=50, deadline=None)
    @given(multigraphs(max_vertices=6, max_edges=9), lams)
    def test_proper_colorings(self, g, lam):
        assert count_proper_colorings(g, lam) == ref.count_proper_colorings(g, lam)

    @settings(max_examples=50, deadline=None)
    @given(graph_and_perm_st, lams)
    def test_fixed_colorings(self, graph_and_perm, lam):
        g, perm = graph_and_perm
        assert count_fixed_colorings(g, perm, lam) == ref.count_fixed_colorings(g, perm, lam)

    @settings(max_examples=50, deadline=None)
    @given(graph_and_perm_st, lams)
    def test_orbits_under_a_random_cyclic_group(self, graph_and_perm, lam):
        g, perm = graph_and_perm
        group = generated([perm], g.n)
        g = symmetrised(g, group)
        assert count_coloring_orbits(g, group, lam) == ref.count_coloring_orbits(g, group, lam)

    @settings(max_examples=50, deadline=None)
    @given(cycle_subgroups(), lams)
    def test_orbits_of_cycles_under_dihedral_subgroups(self, graph_and_group, lam):
        g, group = graph_and_group
        assert count_coloring_orbits(g, group, lam) == ref.count_coloring_orbits(g, group, lam)


class TestEdgeCases:
    @pytest.mark.parametrize("lam", [0, 3])
    def test_empty_graph_has_one_coloring(self, lam):
        g = Multigraph(0)
        empty = Permutation([])
        assert count_proper_colorings(g, lam) == 1
        assert count_fixed_colorings(g, empty, lam) == 1
        assert count_coloring_orbits(g, PermGroup([empty]), lam) == 1

    def test_single_vertex(self):
        g = Multigraph(1)
        assert count_fixed_colorings(g, Permutation.identity(1), 3) == 3
        assert count_coloring_orbits(g, trivial_group(1), 3) == 3

    def test_lone_loop_gives_zero_on_every_counter(self):
        g = Multigraph(1, [(0, 0)])
        assert count_proper_colorings(g, 3) == 0
        assert count_fixed_colorings(g, Permutation.identity(1), 3) == 0
        assert count_coloring_orbits(g, trivial_group(1), 3) == 0

    def test_digon_up_to_swapping_its_ends(self):
        assert count_coloring_orbits(cycle_graph(2), automorphism_group(2), 3) == 3


class TestCapacityGuard:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("ORBICHROM_MAX_ORACLE_VERTICES", raising=False)
        assert max_oracle_vertices() == 16
        with pytest.raises(CapacityError):
            count_proper_colorings(Multigraph(17), 1)

    def test_env_var_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("ORBICHROM_MAX_ORACLE_VERTICES", "3")
        assert max_oracle_vertices() == 3
        with pytest.raises(CapacityError):
            count_proper_colorings(Multigraph(4), 1)
        assert count_proper_colorings(Multigraph(3), 1) == 1

    def test_env_var_raises_cap(self, monkeypatch):
        monkeypatch.setenv("ORBICHROM_MAX_ORACLE_VERTICES", "20")
        assert count_proper_colorings(Multigraph(18), 1) == 1

    def test_env_var_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("ORBICHROM_MAX_ORACLE_VERTICES", "plenty")
        with pytest.raises(ValueError):
            max_oracle_vertices()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_env_var_must_be_positive(self, monkeypatch, raw):
        monkeypatch.setenv("ORBICHROM_MAX_ORACLE_VERTICES", raw)
        with pytest.raises(ValueError, match="positive integer"):
            max_oracle_vertices()
        with pytest.raises(ValueError):
            count_proper_colorings(Multigraph(0), 1)

    def test_guard_applies_to_all_three_counters(self, monkeypatch):
        monkeypatch.setenv("ORBICHROM_MAX_ORACLE_VERTICES", "2")
        g = cycle_graph(3)
        with pytest.raises(CapacityError):
            count_proper_colorings(g, 2)
        with pytest.raises(CapacityError):
            count_fixed_colorings(g, Permutation.identity(3), 2)
        with pytest.raises(CapacityError):
            count_coloring_orbits(g, rotation_group(3), 2)
