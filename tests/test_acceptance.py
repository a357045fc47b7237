"""End-to-end acceptance checks.

Each test prints one line, "acceptance <name>: PASS/FAIL (...)", checks
every value with exact rational arithmetic (no tolerances anywhere), and
enforces a wall-clock budget.
"""

import math
import random
from fractions import Fraction
from time import perf_counter

from orbichrom.chroma import (
    chromatic_polynomial,
    cycle_chromatic_closed,
    cycle_index_rotation_at,
    fermat_check,
    orbital_by_definition,
    orbital_full_closed,
    orbital_rotation_closed,
    quotient_graph,
)
from orbichrom.multigraph import Multigraph, ShapeDescriptor, classify_shape, cycle_graph
from orbichrom.numtheory import alternating_totient_sum, is_prime
from orbichrom.oracle import count_coloring_orbits, count_proper_colorings
from orbichrom.permgroup import (
    automorphism_group,
    reflection_s,
    reflection_s_prime,
    rotation,
    rotation_group,
)
from orbichrom.rationalpoly import X, RationalPoly, x_minus_one_pow

# Published factored forms of the two closed-form families for n = 1..10.
# Each entry: common denominator, then the factors as ascending
# coefficient lists; None marks the zero polynomial.
ROTATION_TABLE = {
    1: None,
    2: (2, [[0, 1], [-1, 1]]),
    3: (3, [[0, 1], [-1, 1], [-2, 1]]),
    4: (4, [[4, -3, 1], [-1, 1], [0, 1]]),
    5: (5, [[2, -2, 1], [-1, 1], [-2, 1], [0, 1]]),
    6: (6, [[1, -1, 1], [5, -4, 1], [-1, 1], [0, 1]]),
    7: (7, [[1, -1, 1], [3, -3, 1], [-1, 1], [-2, 1], [0, 1]]),
    8: (8, [[12, -24, 36, -35, 21, -7, 1], [-1, 1], [0, 1]]),
    9: (9, [[6, -12, 22, -24, 16, -6, 1], [-1, 1], [-2, 1], [0, 1]]),
    10: (10, [[9, -30, 80, -125, 126, -84, 36, -9, 1], [-1, 1], [0, 1]]),
}
FULL_TABLE = {
    1: None,
    2: (2, [[0, 1], [-1, 1]]),
    3: (6, [[0, 1], [-1, 1], [-2, 1]]),
    4: (8, [[2, -1, 1], [-1, 1], [0, 1]]),
    5: (10, [[2, -2, 1], [-1, 1], [-2, 1], [0, 1]]),
    6: (12, [[8, -15, 13, -5, 1], [-1, 1], [0, 1]]),
    7: (14, [[1, -1, 1], [3, -3, 1], [-1, 1], [-2, 1], [0, 1]]),
    8: (16, [[8, -12, 24, -31, 21, -7, 1], [-1, 1], [0, 1]]),
    9: (18, [[6, -12, 22, -24, 16, -6, 1], [-1, 1], [-2, 1], [0, 1]]),
    10: (20, [[14, -50, 110, -145, 131, -84, 36, -9, 1], [-1, 1], [0, 1]]),
}


def expand(entry) -> RationalPoly:
    if entry is None:
        return RationalPoly([])
    den, factors = entry
    product = RationalPoly([1])
    for f in factors:
        product = product * RationalPoly(f)
    return Fraction(1, den) * product


def timed(capfd, name: str, budget: float, body) -> None:
    start = perf_counter()
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"acceptance {name}: FAIL (exact check violated)", flush=True)
        raise
    elapsed = perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    with capfd.disabled():
        print(f"acceptance {name}: {verdict} ({elapsed:.3f}s, budget {budget:g}s, exact)", flush=True)
    assert elapsed < budget, f"{name} took {elapsed:.3f}s, budget {budget:g}s"


def test_published_tables_match_closed_forms(capfd):
    def body():
        for n in range(1, 11):
            assert orbital_rotation_closed(n) == expand(ROTATION_TABLE[n])
            assert orbital_full_closed(n) == expand(FULL_TABLE[n])

    timed(capfd, "published-tables", 1.0, body)


def test_three_way_agreement_of_closed_definition_and_oracle(capfd):
    def body():
        for n in range(1, 9):
            g = cycle_graph(n)
            for group, closed in (
                (rotation_group(n), orbital_rotation_closed(n)),
                (automorphism_group(n), orbital_full_closed(n)),
            ):
                by_def = orbital_by_definition(g, group)
                for lam in range(5):
                    counted = count_coloring_orbits(g, group, lam)
                    assert closed(lam) == by_def(lam) == counted
        assert count_coloring_orbits(cycle_graph(3), rotation_group(3), 3) == 2
        assert count_coloring_orbits(cycle_graph(4), automorphism_group(4), 3) == 6

    timed(capfd, "three-way-agreement", 60.0, body)


def test_closed_forms_equal_definition_coefficientwise(capfd):
    def body():
        for n in range(1, 13):
            g = cycle_graph(n)
            assert orbital_by_definition(g, rotation_group(n)) == orbital_rotation_closed(n)
            assert orbital_by_definition(g, automorphism_group(n)) == orbital_full_closed(n)

    timed(capfd, "closed-vs-definition", 10.0, body)


def test_quotient_shapes_for_every_symmetry(capfd):
    def body():
        for n in range(1, 25):
            g = cycle_graph(n)
            seen = set()
            for m in range(n):
                perm = rotation(n, m)
                seen.add(perm)
                k = math.gcd(n, m)
                expected = (
                    ShapeDescriptor.path(1)
                    if k == 2
                    else ShapeDescriptor.cycle(k)
                )
                assert classify_shape(quotient_graph(g, perm)) == expected
            if n >= 3 and n % 2 == 1:
                for m in range(n):
                    perm = reflection_s(n, m)
                    seen.add(perm)
                    expected = ShapeDescriptor.path(n // 2, (False, True))
                    assert classify_shape(quotient_graph(g, perm)) == expected
            if n >= 3 and n % 2 == 0:
                for m in range(n // 2):
                    perm = reflection_s(n, m)
                    seen.add(perm)
                    assert classify_shape(quotient_graph(g, perm)) == ShapeDescriptor.path(n // 2)
                for m in range(n // 2):
                    perm = reflection_s_prime(n, m)
                    seen.add(perm)
                    expected = ShapeDescriptor.path(n // 2 - 1, (True, True))
                    assert classify_shape(quotient_graph(g, perm)) == expected
            assert seen == set(automorphism_group(n).elements)

    timed(capfd, "quotient-shapes", 5.0, body)


def test_cycle_chromatic_matches_deletion_contraction(capfd):
    def body():
        for n in range(1, 13):
            sign = -1 if n % 2 else 1
            closed = x_minus_one_pow(n) + sign * x_minus_one_pow(1)
            assert chromatic_polynomial(cycle_graph(n)) == closed
            assert cycle_chromatic_closed(n) == closed

    timed(capfd, "cycle-chromatic-closed-form", 5.0, body)


def test_large_cycle_chromatic_matches_closed_form(capfd):
    def body():
        assert chromatic_polynomial(cycle_graph(1000)) == cycle_chromatic_closed(1000)

    timed(capfd, "cycle-chromatic-large", 30.0, body)


def test_alternating_totient_sums(capfd):
    def body():
        for n in range(1, 501):
            expected = -n if n % 2 else 0
            assert alternating_totient_sum(n) == expected

    timed(capfd, "alternating-totient-sums", 1.0, body)


def test_fermat_congruence_route(capfd):
    def body():
        for p in range(2, 32):
            if is_prime(p):
                assert fermat_check(p, 50)
        try:
            fermat_check(15, 10)
        except ValueError as exc:
            assert "15 = 3 * 5" in str(exc)
        else:
            raise AssertionError("composite 15 was not rejected")

    timed(capfd, "fermat-congruences", 1.0, body)


def test_cycle_index_restatements(capfd):
    def body():
        half = Fraction(1, 2)
        for n in range(1, 25):
            z = cycle_index_rotation_at(n, x_minus_one_pow(1))
            if n % 2:
                assert orbital_rotation_closed(n) == z - x_minus_one_pow(1)
                assert orbital_full_closed(n) == half * z - half * x_minus_one_pow(1)
            else:
                assert orbital_rotation_closed(n) == z
                assert orbital_full_closed(n) == half * z + Fraction(1, 4) * X * x_minus_one_pow(n // 2)

    timed(capfd, "cycle-index-restatements", 1.0, body)


def burnside_count_even_cycle(n: int, lam: int, with_reflections: bool) -> int:
    """Proper lam-colorings of C_n (n even) up to symmetry, by Burnside's
    lemma in plain integers.  Rotation by m fixes the colorings of the
    quotient cycle on gcd(n, m) vertices.  Of the n reflections, n/2 fix
    two opposite vertices and leave a path on n/2 + 1 vertices; the
    other n/2 swap the ends of two edges, which makes loops."""
    fixed = [(lam - 1) ** k + (-1) ** k * (lam - 1) for k in (math.gcd(n, m) for m in range(n))]
    if with_reflections:
        fixed += [lam * (lam - 1) ** (n // 2)] * (n // 2) + [0] * (n // 2)
    total = sum(fixed)
    assert total % len(fixed) == 0
    return total // len(fixed)


def test_closed_forms_at_large_n(capfd):
    def body():
        n = 5040
        for closed, den, with_reflections in (
            (orbital_rotation_closed, n, False),
            (orbital_full_closed, 2 * n, True),
        ):
            p = closed(n)
            assert p.to_den_coeffs()[0] == den
            assert p.degree() == n
            assert p.leading_coefficient() == Fraction(1, den)
            for lam in (2, 3):
                assert p(lam) == burnside_count_even_cycle(n, lam, with_reflections)

    timed(capfd, "closed-form-large", 10.0, body)


def random_multigraph(rng: random.Random) -> Multigraph:
    n = rng.randint(1, 6)
    edge_count = rng.randint(0, 10)
    edges = []
    for _ in range(edge_count):
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        edges.append((u, v))
    return Multigraph(n, edges)


def test_enumeration_matches_polynomial_on_random_multigraphs(capfd):
    def body():
        rng = random.Random(20260826)
        for _ in range(200):
            g = random_multigraph(rng)
            p = chromatic_polynomial(g)
            for lam in range(5):
                assert count_proper_colorings(g, lam) == p(lam)

    timed(capfd, "enumeration-vs-polynomial", 60.0, body)
