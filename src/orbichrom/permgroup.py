"""Permutations of {0,...,n-1} and the symmetry groups of cycle graphs.

Groups are stored as explicit element lists: every group here has at
most 2n elements and the orbit-averaging definition iterates over all of
them anyway.  Construction verifies the group axioms outright, from a
few generators picked out of the list, which is cheap at this scale and
catches constructor mistakes immediately.

Only outside input is checked to be a bijection: ``Permutation(...)``
and ``from_text``.  Products, and the rotations and reflections once
their arguments are checked, are bijections by construction and are
built through the private ``_from_images``, which checks nothing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .multigraph import Multigraph

__all__ = [
    "Permutation",
    "PermGroup",
    "rotation",
    "reflection_s",
    "reflection_s_prime",
    "rotation_group",
    "automorphism_group",
    "trivial_group",
    "is_automorphism",
]


class Permutation:
    """A bijection of 0..n-1, stored as its image list."""

    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"{list(images)!r} is not a bijection of 0..{len(imgs) - 1}")
        self._images = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, v: int) -> int:
        return self._images[v]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(v) = self(other(v))."""
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degrees")
        mine = self._images
        return _from_images(tuple([mine[v] for v in other._images]))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for v, w in enumerate(self._images):
            inv[w] = v
        return Permutation(inv)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycle decomposition, fixed points included.

        Each cycle starts at its minimum element and cycles are sorted
        by those minima, so downstream vertex relabelings are stable.
        """
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self._images[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = self._images[v]
            out.append(tuple(cyc))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)!r})"

    # One-line interchange form: the image list separated by spaces.

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        try:
            images = [int(tok) for tok in text.split()]
        except ValueError:
            raise ValueError(f"permutation text must be whitespace-separated integers: {text!r}") from None
        return cls(images)

    def to_text(self) -> str:
        return " ".join(str(v) for v in self._images)


def _from_images(images: tuple[int, ...]) -> Permutation:
    """The trusted constructor: images must be a tuple that is a bijection of 0..n-1."""
    p = object.__new__(Permutation)
    p._images = images
    return p


class PermGroup:
    """An explicitly listed permutation group on a common ground set."""

    def __init__(self, elements: Iterable[Permutation]):
        elems = tuple(elements)
        if not elems:
            raise ValueError("a permutation group needs at least the identity")
        degree = elems[0].degree
        if any(g.degree != degree for g in elems):
            raise ValueError("all group elements must share one degree")
        index = frozenset(elems)
        if len(index) != len(elems):
            raise ValueError("group elements must be distinct")
        identity = Permutation.identity(degree)
        if identity not in index:
            raise ValueError("group does not contain the identity")
        _check_generated(elems, index, identity)
        self._elements = elems
        self._index = index
        self._degree = degree

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def elements(self) -> tuple[Permutation, ...]:
        return self._elements

    def order(self) -> int:
        return len(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __contains__(self, g: Permutation) -> bool:
        return g in self._index

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, order={len(self._elements)})"


def _check_generated(
    elems: tuple[Permutation, ...], index: frozenset[Permutation], identity: Permutation
) -> None:
    """Raise ValueError unless the distinct elems, identity among them, form a group.

    Generators are picked greedily: walking the list, every element not
    yet in the closure becomes one, and the closure grows by a
    breadth-first search over right multiplication by the generators.
    Each product must stay inside the list.  A finite set with the
    identity that is closed under right multiplication by its generators
    is the group they generate, so when the closure has absorbed every
    listed element the list is a group; inverses come for free.  This
    costs at most |G| products per generator instead of |G|^2.
    """
    closure = {identity}
    gens: list[Permutation] = []
    for g in elems:
        if g in closure:
            continue
        gens.append(g)
        # Old closure elements only need the new generator; every new
        # element needs them all.
        queue = [(h, (g,)) for h in closure]
        for h, by in queue:  # grows while it is walked
            for s in by:
                prod = h * s
                if prod not in closure:
                    if prod not in index:
                        raise ValueError(f"group is not closed: {h!r} * {s!r} escapes")
                    closure.add(prod)
                    queue.append((prod, gens))


def rotation(n: int, m: int) -> Permutation:
    """v -> (v + m) mod n."""
    _check_shift(n, m)
    return _from_images(tuple([(v + m) % n for v in range(n)]))


def reflection_s(n: int, m: int) -> Permutation:
    """v -> (2m - v) mod n, the mirror fixing vertex m."""
    _check_shift(n, m)
    return _from_images(tuple([(2 * m - v) % n for v in range(n)]))


def reflection_s_prime(n: int, m: int) -> Permutation:
    """v -> (2m + 1 - v) mod n, the mirror through edge midpoints (even n)."""
    if n < 1 or n % 2:
        raise ValueError(f"edge reflections exist only for even n >= 2, got n={n}")
    if not 0 <= m < n // 2:
        raise ValueError(f"edge reflection index must satisfy 0 <= m < n/2, got m={m}")
    return _from_images(tuple([(2 * m + 1 - v) % n for v in range(n)]))


def _check_shift(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"degree must be >= 1, got n={n}")
    if not 0 <= m < n:
        raise ValueError(f"index must satisfy 0 <= m < n, got m={m}")


def rotation_group(n: int) -> PermGroup:
    """The n rotations of the n-cycle."""
    if n < 1:
        raise ValueError(f"rotation_group needs n >= 1, got {n}")
    return PermGroup([rotation(n, m) for m in range(n)])


def automorphism_group(n: int) -> PermGroup:
    """The full symmetry group of the n-cycle.

    For n = 1 and n = 2 this is just the rotations.  For n >= 3 it is
    the dihedral group of order 2n: all rotations plus, for odd n, the
    vertex-fixing reflections s_0..s_{n-1}, or, for even n, the
    vertex-fixing reflections s_0..s_{n/2-1} together with the
    edge-midpoint reflections s'_0..s'_{n/2-1}.
    """
    if n < 1:
        raise ValueError(f"automorphism_group needs n >= 1, got {n}")
    elems = [rotation(n, m) for m in range(n)]
    if n >= 3:
        if n % 2:
            elems += [reflection_s(n, m) for m in range(n)]
        else:
            elems += [reflection_s(n, m) for m in range(n // 2)]
            elems += [reflection_s_prime(n, m) for m in range(n // 2)]
    return PermGroup(elems)


def trivial_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError(f"trivial_group needs n >= 1, got {n}")
    return PermGroup([Permutation.identity(n)])


def is_automorphism(g: Multigraph, perm: Permutation) -> bool:
    """True when perm maps the edge multiset of g onto itself.

    g.edges is already the sorted tuple of canonical (u <= v) edges, so
    the mapped edges, canonicalised and sorted, must equal it exactly.
    """
    if perm.degree != g.n:
        raise ValueError(
            f"permutation degree {perm.degree} does not match vertex count {g.n}"
        )
    img = perm.images
    mapped = sorted(
        [(img[u], img[v]) if img[u] <= img[v] else (img[v], img[u]) for u, v in g.edges]
    )
    return mapped == list(g.edges)
