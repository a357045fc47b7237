"""Exact chromatic and orbital chromatic polynomials of cycle graphs.

The package computes chromatic polynomials of multigraphs by
deletion-contraction, quotients graphs by vertex permutations, and
averages quotient polynomials over a symmetry group to count colorings
up to symmetry.  A brute-force enumeration oracle provides an
independent route to the same numbers.  Polynomials are exact: integer
numerators over one common denominator, which stays 1 through
deletion-contraction and only grows when the Burnside average divides.
"""

from .chroma import (
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
from .multigraph import (
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
from .numtheory import (
    alternating_totient_sum,
    divisors,
    is_prime,
    smallest_prime_factor,
    totient,
)
from .oracle import (
    CapacityError,
    count_coloring_orbits,
    count_fixed_colorings,
    count_proper_colorings,
    max_oracle_vertices,
)
from .permgroup import (
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
from .rationalpoly import ONE, X, ZERO, RationalPoly, x_minus_one_pow

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "GraphParseError",
    "Multigraph",
    "ONE",
    "PermGroup",
    "Permutation",
    "RationalPoly",
    "ShapeDescriptor",
    "X",
    "ZERO",
    "__version__",
    "alternating_totient_sum",
    "automorphism_group",
    "blocks",
    "chromatic_polynomial",
    "classify_shape",
    "components",
    "contract_edge",
    "contract_partition",
    "count_coloring_orbits",
    "count_fixed_colorings",
    "count_proper_colorings",
    "cycle_chromatic_closed",
    "cycle_graph",
    "cycle_index_rotation_at",
    "delete_edge",
    "divisors",
    "fermat_check",
    "graph_to_text",
    "is_automorphism",
    "is_prime",
    "max_oracle_vertices",
    "orbital_by_definition",
    "orbital_full_closed",
    "orbital_rotation_closed",
    "parse_graph_text",
    "path_chromatic_closed",
    "path_graph",
    "quotient_graph",
    "reflection_s",
    "reflection_s_prime",
    "rotation",
    "rotation_group",
    "simplify",
    "smallest_prime_factor",
    "totient",
    "trivial_group",
    "x_minus_one_pow",
]
