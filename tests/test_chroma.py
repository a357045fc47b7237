"""Chromatic and orbital chromatic polynomials: closed forms vs recursion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbichrom import chroma
from orbichrom.chroma import (
    _chromatic_with_chooser,
    chromatic_polynomial,
    cycle_chromatic_closed,
    cycle_index_rotation_at,
    fermat_check,
    orbital_by_definition,
    orbital_full_closed,
    orbital_rotation_closed,
    path_chromatic_closed,
    quotient_graph,
)
from orbichrom.multigraph import (
    Multigraph,
    ShapeDescriptor,
    classify_shape,
    cycle_graph,
    delete_edge,
    contract_edge,
    path_graph,
    simplify,
)
from orbichrom.permgroup import (
    PermGroup,
    Permutation,
    automorphism_group,
    reflection_s,
    reflection_s_prime,
    rotation,
    rotation_group,
    trivial_group,
)
from orbichrom.rationalpoly import ONE, X, RationalPoly, x_minus_one_pow

from conftest import multigraphs
from dc_ref import chromatic_reference


def _grid(rows: int, cols: int) -> Multigraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Multigraph(rows * cols, edges)


PETERSEN = Multigraph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)

_pieces = st.one_of(
    multigraphs(max_vertices=5, max_edges=7),
    st.integers(min_value=1, max_value=6).map(cycle_graph),
    st.integers(min_value=1, max_value=4).map(path_graph),
)


@st.composite
def glued_multigraphs(draw):
    """Small pieces (random multigraphs, cycles, paths), each either kept
    apart or glued by one vertex to what came before, plus isolated
    vertices, with the labels shuffled: components, cut vertices, loops
    and parallel edges together."""
    n, edges = 0, []
    for piece in draw(st.lists(_pieces, min_size=1, max_size=4)):
        if n and draw(st.booleans()):
            anchor = draw(st.integers(min_value=0, max_value=n - 1))
            label = [anchor] + list(range(n, n + piece.n - 1))
        else:
            label = list(range(n, n + piece.n))
        edges += [(label[u], label[v]) for u, v in piece.edges]
        n = max([n] + [v + 1 for v in label])
    n += draw(st.integers(min_value=0, max_value=2))
    shuffle = draw(st.permutations(list(range(n))))
    return Multigraph(n, [(shuffle[u], shuffle[v]) for u, v in edges])


class TestChromaticPolynomial:
    def test_edgeless_graphs(self):
        assert chromatic_polynomial(Multigraph(0)) == ONE
        assert chromatic_polynomial(Multigraph(3)) == X ** 3

    def test_loops_zero_out(self):
        assert chromatic_polynomial(Multigraph(1, [(0, 0)])).is_zero()
        assert chromatic_polynomial(Multigraph(3, [(0, 1), (2, 2)])).is_zero()

    def test_single_edge(self):
        assert chromatic_polynomial(Multigraph(2, [(0, 1)])) == X * (X - 1)

    def test_trees_give_falling_chain(self):
        for k in range(1, 7):
            assert chromatic_polynomial(path_graph(k)) == path_chromatic_closed(k)
        star = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
        assert chromatic_polynomial(star) == X * x_minus_one_pow(3)

    def test_complete_graph_gives_falling_factorial(self):
        k4 = Multigraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert chromatic_polynomial(k4) == X * (X - 1) * (X - 2) * (X - 3)

    def test_square_expansion(self):
        assert chromatic_polynomial(cycle_graph(4)) == RationalPoly([0, -3, 6, -4, 1])

    @given(st.integers(min_value=1, max_value=12))
    def test_cycles_match_closed_form(self, n):
        assert chromatic_polynomial(cycle_graph(n)) == cycle_chromatic_closed(n)

    def test_closed_form_shape(self):
        for n in range(1, 13):
            sign = -1 if n % 2 else 1
            assert cycle_chromatic_closed(n) == x_minus_one_pow(n) + sign * x_minus_one_pow(1)
        assert cycle_chromatic_closed(1).is_zero()
        assert cycle_chromatic_closed(2) == X * (X - 1)
        assert cycle_chromatic_closed(3) == X * (X - 1) * (X - 2)

    def test_closed_forms_reject_empty_cycles_and_paths(self):
        with pytest.raises(ValueError):
            cycle_chromatic_closed(0)
        with pytest.raises(ValueError):
            path_chromatic_closed(0)
        with pytest.raises(ValueError):
            orbital_rotation_closed(0)
        with pytest.raises(ValueError):
            orbital_full_closed(0)
        with pytest.raises(ValueError):
            cycle_index_rotation_at(0, X)

    @given(multigraphs(max_vertices=7, max_edges=12))
    def test_parallel_collapse_preserves_chromatic(self, g):
        assert chromatic_polynomial(simplify(g)) == chromatic_polynomial(g)

    @given(multigraphs(max_vertices=6, max_edges=9))
    def test_delete_contract_recurrence(self, g):
        # the recurrence needs the chosen edge to have multiplicity one,
        # because contract_edge discards every parallel copy at once
        h = simplify(g)
        plain = [e for e in h.edges if e[0] != e[1]]
        if not plain:
            return
        e = plain[len(plain) // 2]
        lhs = chromatic_polynomial(h)
        rhs = chromatic_polynomial(delete_edge(h, e)) - chromatic_polynomial(contract_edge(h, e))
        assert lhs == rhs

    def test_recurrence_with_parallel_copies_collapses_them(self):
        g = Multigraph(2, [(0, 1), (0, 1)])
        assert chromatic_polynomial(g) == chromatic_polynomial(delete_edge(g, (0, 1)))

    @settings(max_examples=40, deadline=None)
    @given(multigraphs(max_vertices=7, max_edges=11), st.integers(min_value=0, max_value=10))
    def test_edge_choice_order_is_irrelevant(self, g, seed):
        rng = random.Random(seed)

        def random_edge(h):
            return rng.choice(h.edges)

        assert _chromatic_with_chooser(g, random_edge) == chromatic_polynomial(g)

    @settings(max_examples=150, deadline=None)
    @given(glued_multigraphs())
    @example(Multigraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]))  # two triangles at a vertex
    @example(Multigraph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (1, 6)]))  # square with trees
    @example(Multigraph(4, [(0, 1), (0, 1), (2, 2)]))
    def test_matches_plain_recursive_engine(self, g):
        assert chromatic_polynomial(g) == chromatic_reference(g)

    @pytest.mark.parametrize("g", [PETERSEN, _grid(3, 4)], ids=["petersen", "grid-3x4"])
    def test_matches_plain_recursive_engine_on_named_graphs(self, g):
        assert chromatic_polynomial(g) == chromatic_reference(g)

    def test_long_path_closes_without_recursion(self):
        assert chromatic_polynomial(path_graph(5000)) == X * x_minus_one_pow(4999)

    def test_many_components_multiply(self):
        triangles = Multigraph(
            900, [(3 * i + a, 3 * i + b) for i in range(300) for a, b in ((0, 1), (0, 2), (1, 2))]
        )
        assert chromatic_polynomial(triangles) == (X * (X - 1) * (X - 2)) ** 300

    @given(multigraphs(max_vertices=6, max_edges=9))
    def test_degree_and_monic_leading_term(self, g):
        p = chromatic_polynomial(g)
        if not g.has_loop():
            assert p.degree() == g.n
            assert p.leading_coefficient() == 1
            assert all(c.denominator == 1 for c in p.coeffs)


class TestQuotientGraph:
    def test_identity_quotient_is_simplification(self):
        g = cycle_graph(2)
        assert quotient_graph(g, Permutation.identity(2)) == Multigraph(2, [(0, 1)])

    def test_half_turn_of_square(self):
        q = quotient_graph(cycle_graph(4), rotation(4, 2))
        assert q == Multigraph(2, [(0, 1)])

    def test_quarter_turn_of_square_gives_looped_point(self):
        q = quotient_graph(cycle_graph(4), rotation(4, 1))
        assert q == Multigraph(1, [(0, 0)])

    def test_third_turn_of_hexagon_gives_triangle(self):
        q = quotient_graph(cycle_graph(6), rotation(6, 3))
        assert q == cycle_graph(3)
        assert quotient_graph(cycle_graph(6), rotation(6, 2)) == Multigraph(2, [(0, 1)])

    def test_rotation_quotients_by_shape(self):
        import math

        for n in range(1, 13):
            for m in range(n):
                shape = classify_shape(quotient_graph(cycle_graph(n), rotation(n, m)))
                k = math.gcd(n, m)
                if k == 2:
                    assert shape == ShapeDescriptor.path(1)
                else:
                    assert shape == ShapeDescriptor.cycle(k)

    def test_reflection_quotients_by_shape(self):
        for n in range(3, 13):
            g = cycle_graph(n)
            upper = n if n % 2 else n // 2
            for m in range(upper):
                shape = classify_shape(quotient_graph(g, reflection_s(n, m)))
                assert shape == ShapeDescriptor.path(n // 2, (False, bool(n % 2)))
            if n % 2 == 0:
                for m in range(n // 2):
                    shape = classify_shape(quotient_graph(g, reflection_s_prime(n, m)))
                    assert shape == ShapeDescriptor.path(n // 2 - 1, (True, True))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quotient_graph(cycle_graph(3), Permutation.identity(4))


class TestOrbitalPolynomials:
    def test_table_head_rotation(self):
        third = Fraction(1, 3)
        assert orbital_rotation_closed(1).is_zero()
        assert orbital_rotation_closed(2) == Fraction(1, 2) * X * (X - 1)
        assert orbital_rotation_closed(3) == third * X * (X - 1) * (X - 2)

    def test_table_head_full_group(self):
        assert orbital_full_closed(1).is_zero()
        assert orbital_full_closed(2) == Fraction(1, 2) * X * (X - 1)
        assert orbital_full_closed(3) == Fraction(1, 6) * X * (X - 1) * (X - 2)
        assert orbital_full_closed(4) == Fraction(1, 8) * (X * X - X + 2) * (X - 1) * X

    @given(st.integers(min_value=1, max_value=12))
    def test_definition_matches_rotation_closed_form(self, n):
        by_def = orbital_by_definition(cycle_graph(n), rotation_group(n))
        assert by_def == orbital_rotation_closed(n)

    @given(st.integers(min_value=1, max_value=12))
    def test_definition_matches_full_closed_form(self, n):
        by_def = orbital_by_definition(cycle_graph(n), automorphism_group(n))
        assert by_def == orbital_full_closed(n)

    @given(st.integers(min_value=3, max_value=16))
    def test_degree_and_leading_coefficients(self, n):
        rot = orbital_rotation_closed(n)
        full = orbital_full_closed(n)
        assert rot.degree() == n and full.degree() == n
        assert rot.leading_coefficient() == Fraction(1, n)
        assert full.leading_coefficient() == Fraction(1, 2 * n)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=8))
    def test_values_are_nonnegative_integers(self, n, lam):
        for p in (orbital_rotation_closed(n), orbital_full_closed(n)):
            value = p(lam)
            assert value.denominator == 1
            assert value >= 0

    @pytest.mark.parametrize("n", [359, 360, 719, 720])
    def test_closed_forms_match_integer_divisor_sum(self, n):
        # S = sum over d | n of totient(n/d) (x-1)^d in plain integers,
        # with binomials from math.comb and brute-force totients.
        def phi(m):
            return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

        s = [0] * (n + 1)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            weight = phi(n // d)
            for i in range(d + 1):
                s[i] += weight * (-1) ** (d - i) * math.comb(d, i)

        # The rotation form times n, and the full form times full_den.
        rot = list(s)
        if n % 2:
            rot[0] += n
            rot[1] -= n
            full, full_den = list(rot), 2 * n
        else:
            full, full_den = [2 * c for c in s], 4 * n
            half = n // 2
            for i in range(half + 1):
                full[i + 1] += n * (-1) ** (half - i) * math.comb(half, i)
        assert orbital_rotation_closed(n).coeffs == tuple(Fraction(c, n) for c in rot)
        assert orbital_full_closed(n).coeffs == tuple(Fraction(c, full_den) for c in full)

    def test_full_group_never_exceeds_rotation_count(self):
        for n in range(1, 11):
            rot = orbital_rotation_closed(n)
            full = orbital_full_closed(n)
            for lam in range(6):
                assert full(lam) <= rot(lam)

    def test_trivial_group_recovers_chromatic_polynomial(self):
        g = cycle_graph(5)
        assert orbital_by_definition(g, trivial_group(5)) == chromatic_polynomial(g)

    def test_rejects_non_symmetry_groups(self, monkeypatch):
        calls = []
        monkeypatch.setattr(chroma, "chromatic_polynomial", lambda q: calls.append(q))
        g = path_graph(3)
        shift = Permutation([1, 2, 0])
        bad = PermGroup([Permutation.identity(3), shift, shift * shift])
        with pytest.raises(ValueError, match="is not an automorphism"):
            orbital_by_definition(g, bad)
        # Every element is checked before any quotient is solved.
        assert calls == []

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            orbital_by_definition(cycle_graph(3), rotation_group(4))


class TestCycleIndexBridge:
    @given(st.integers(min_value=1, max_value=24))
    def test_rotation_form_is_cycle_index_at_shifted_variable(self, n):
        z = cycle_index_rotation_at(n, x_minus_one_pow(1))
        expected = z - x_minus_one_pow(1) if n % 2 else z
        assert orbital_rotation_closed(n) == expected

    @given(st.integers(min_value=1, max_value=24))
    def test_full_form_is_half_cycle_index_plus_parity_term(self, n):
        half = Fraction(1, 2)
        z = cycle_index_rotation_at(n, x_minus_one_pow(1))
        if n % 2:
            expected = half * z - half * x_minus_one_pow(1)
        else:
            expected = half * z + Fraction(1, 4) * X * x_minus_one_pow(n // 2)
        assert orbital_full_closed(n) == expected

    @given(st.integers(min_value=1, max_value=40))
    def test_cycle_index_at_one_is_one(self, n):
        assert cycle_index_rotation_at(n, ONE) == ONE

    def test_cycle_index_small_values(self):
        assert cycle_index_rotation_at(1, X) == X
        assert cycle_index_rotation_at(2, X) == Fraction(1, 2) * (X + X * X)
        assert cycle_index_rotation_at(4, X) == Fraction(1, 4) * (
            2 * X + X ** 2 + X ** 4
        )


class TestFermatRoute:
    def test_small_primes_pass(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert fermat_check(p, 12)

    def test_composite_rejected_with_witness(self):
        with pytest.raises(ValueError, match=r"9 = 3 \* 3"):
            fermat_check(9, 5)
        with pytest.raises(ValueError):
            fermat_check(1, 5)

    def test_lambda_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            fermat_check(5, 0)

    def test_congruence_is_what_the_check_verifies(self):
        p = 7
        assert fermat_check(p, 20)
        for k in range(21):
            assert ((k - 1) ** p - (k - 1)) % p == 0
