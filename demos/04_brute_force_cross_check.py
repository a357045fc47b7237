"""Checking the polynomial machinery against plain enumeration.

Nothing here trusts the closed forms: the oracle lists every proper
coloring explicitly and counts one coloring per orbit, the one that no
symmetry maps to a lexicographically smaller coloring.  For small cycles
this is cheap, and it must agree with both the averaged-quotient route
and the closed formulas.
"""

from fractions import Fraction

from orbichrom import (
    automorphism_group,
    count_coloring_orbits,
    count_fixed_colorings,
    count_proper_colorings,
    cycle_graph,
    orbital_full_closed,
    orbital_rotation_closed,
    rotation_group,
)

lam = 3
print(f"three-way agreement with {lam} colors:")
print(f"{'n':>3} {'colorings':>10} {'orbits (rot)':>13} {'closed':>7} {'orbits (full)':>14} {'closed':>7}")
for n in range(1, 8):
    g = cycle_graph(n)
    total = count_proper_colorings(g, lam)
    rot = count_coloring_orbits(g, rotation_group(n), lam)
    full = count_coloring_orbits(g, automorphism_group(n), lam)
    print(f"{n:>3} {total:>10} {rot:>13} {str(orbital_rotation_closed(n)(lam)):>7}"
          f" {full:>14} {str(orbital_full_closed(n)(lam)):>7}")

print()
n = 6
g = cycle_graph(n)
group = automorphism_group(n)
print(f"orbit counting the long way for n={n}, {lam} colors:")
print("fixed-coloring counts per symmetry (identity fixes everything):")
fixed = [count_fixed_colorings(g, perm, lam) for perm in group]
print(" ", sorted(fixed, reverse=True))
average = Fraction(sum(fixed), group.order())
print(f"group average of fixed counts: {average}")
print(f"direct orbit count:            {count_coloring_orbits(g, group, lam)}")
print("the average is an integer and matches: that is the orbit-counting lemma")
