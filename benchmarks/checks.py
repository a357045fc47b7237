"""Independent reference values for checking the CLI's outputs.

Nothing here imports orbichrom.  Every reference is computed with plain
Python integers by a route other than the one the benchmark times:

* orbit counts by Burnside's lemma over the explicit group elements
  (gcd cycle lengths for rotations, path counts for reflections);
* the closed forms as integer divisor sums, for coefficientwise checks
  of the definition route;
* proper-coloring counts by backtracking, and cheap invariants
  (degree, leading and subleading coefficients, P(1), P(2)) for
  deletion-contraction outputs;
* the published n = 1..10 tables.

``Checker.check`` returns None when an output is right and a one-line
reason when it is not.  Reference values are cached per job, so a job
that recurs in every round is checked against a value computed once.
"""

from __future__ import annotations

import json
from math import comb, gcd

# Published factored forms of the two closed-form families for n = 1..10,
# as in tests/test_acceptance.py.  Each entry: common denominator, then
# the factors as ascending integer coefficient lists; None marks zero.
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
PUBLISHED = {"rotation": ROTATION_TABLE, "full": FULL_TABLE}


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def x_minus_one_pow(d: int) -> list[int]:
    return [comb(d, i) * (-1) ** (d - i) for i in range(d + 1)]


def evaluate(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def canonical(den: int, coeffs: list[int]) -> tuple[int, list[int]]:
    """(den, coeffs) for coeffs/den with trailing zeros dropped and the
    common factor removed: the CLI's JSON encoding of the same polynomial."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    g = den
    for c in coeffs:
        g = gcd(g, c)
    if den < 0:
        g = -g
    return den // g, [c // g for c in coeffs]


def expand_published(entry) -> tuple[int, list[int]]:
    if entry is None:
        return 1, []
    den, factors = entry
    product = [1]
    for f in factors:
        product = poly_mul(product, f)
    return canonical(den, product)


# ---------------------------------------------------------------------------
# cycle-graph references


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(n, k) == 1)


def closed_form(n: int, group: str) -> tuple[int, list[int]]:
    """The orbital chromatic polynomial of C_n, as a canonical (den, coeffs).

    n*P   = sum_{d|n} phi(n/d)(x-1)^d - [n odd] n(x-1)             (rotation)
    2n*P  = sum_{d|n} phi(n/d)(x-1)^d - [n odd] n(x-1)
                                      + [n even] (n/2) x(x-1)^(n/2)  (full)
    """
    total: list[int] = []
    for d in _divisors(n):
        total = poly_add(total, [_totient(n // d) * c for c in x_minus_one_pow(d)])
    if n % 2:
        total = poly_add(total, [n, -n])
    elif group == "full":
        total = poly_add(total, [(n // 2) * c for c in poly_mul([0, 1], x_minus_one_pow(n // 2))])
    return canonical(n if group == "rotation" else 2 * n, total)


def _cycle_count(k: int, lam: int) -> int:
    """Proper lam-colorings of the k-cycle (k = 1 a loop, k = 2 a double edge)."""
    return (lam - 1) ** k + (-1) ** k * (lam - 1)


def burnside_count(n: int, group: str, lam: int) -> int:
    """Proper lam-colorings of C_n up to the group, by Burnside's lemma.

    Rotation by m fixes the colorings of the quotient cycle on gcd(n, m)
    vertices.  For n >= 3 the full group adds the n reflections
    v -> (c - v) mod n: an edge inside one orbit (2v = c - 1 mod n is
    solvable) makes a loop and fixes nothing; otherwise the quotient is a
    path on (n + #fixed points) / 2 vertices.
    """
    fixed = [_cycle_count(gcd(n, m), lam) for m in range(n)]
    if group == "full" and n >= 3:
        g = gcd(2, n)  # 2v = a (mod n) has g solutions when g | a, else none
        for c in range(n):
            fixed_points = g if c % g == 0 else 0
            looped = (c - 1) % g == 0
            fixed.append(0 if looped else lam * (lam - 1) ** ((n + fixed_points) // 2 - 1))
    total = sum(fixed)
    if total % len(fixed):
        raise ArithmeticError(f"Burnside sum {total} not divisible by |G| = {len(fixed)}")
    return total // len(fixed)


# ---------------------------------------------------------------------------
# general-graph references


def _components(n: int, adj: list[set[int]]) -> list[list[int]]:
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [], [s]
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(sorted(comp))
    return out


def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def count_colorings(n: int, edges, lam: int) -> int:
    """Proper lam-colorings by backtracking, one component at a time."""
    if any(u == v for u, v in edges):
        return 0
    adj = _adjacency(n, edges)
    total = 1
    for comp in _components(n, adj):
        earlier = [[w for w in adj[v] if comp.index(w) < i] for i, v in enumerate(comp)]
        color: dict[int, int] = {}

        def place(i: int) -> int:
            if i == len(comp):
                return 1
            v = comp[i]
            count = 0
            for c in range(lam):
                if all(color[w] != c for w in earlier[i]):
                    color[v] = c
                    count += place(i + 1)
            return count

        total *= place(0)
    return total


def two_colorings(n: int, edges) -> int:
    """P(2): 2^components when the graph is bipartite and loopless, else 0."""
    if any(u == v for u, v in edges):
        return 0
    adj = _adjacency(n, edges)
    side = [-1] * n
    comps = 0
    for s in range(n):
        if side[s] >= 0:
            continue
        comps += 1
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return 0
    return 2 ** comps


def cycle_chromatic(n: int) -> list[int]:
    """(x-1)^n + (-1)^n (x-1), ascending integer coefficients."""
    return poly_add(x_minus_one_pow(n), [(-1) ** n * c for c in x_minus_one_pow(1)])


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1))


# ---------------------------------------------------------------------------
# checking CLI outputs


class Checker:
    """Checks one job's exit code and captured output against references."""

    def __init__(self) -> None:
        self._expected: dict = {}

    def _reference(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def _burnside(self, n: int, group: str, lam: int) -> int:
        return self._reference(("burnside", n, group, lam), lambda: burnside_count(n, group, lam))

    def check(self, job, rc, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, "_check_" + job.kind)(job, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_orbital_closed(self, job, out):
        n, group, lam = job.spec
        data = json.loads(out)
        if (data["n"], data["group"], data["lambda"]) != (n, group, lam):
            return "echoed arguments differ"
        den, coeffs = data["den"], data["coeffs"]
        for x in (lam, lam + 1):
            if evaluate(coeffs, x) != self._burnside(n, group, x) * den:
                return f"value at {x} differs from the Burnside count"
        if data["value"] != {"num": self._burnside(n, group, lam), "den": 1}:
            return "reported value differs from the Burnside count"
        return None

    def _check_table(self, job, out):
        which, max_n = job.spec
        group = "rotation" if which == 1 else "full"
        data = json.loads(out)
        rows = data["rows"]
        if data["table"] != which or [r["n"] for r in rows] != list(range(1, max_n + 1)):
            return "table rows do not cover n = 1..max_n"
        for row in rows:
            n, den, coeffs = row["n"], row["den"], row["coeffs"]
            if n in PUBLISHED[group] and (den, coeffs) != expand_published(PUBLISHED[group][n]):
                return f"row n={n} differs from the published table"
            for x in (2, 3):
                if evaluate(coeffs, x) != self._burnside(n, group, x) * den:
                    return f"row n={n} at {x} differs from the Burnside count"
        return None

    def _check_fermat(self, job, out):
        p, max_lambda = job.spec
        # burnside_count raises unless the orbit count is an integer, which
        # is the structural half of the check.
        holds = is_prime(p) and all(
            pow(k - 1, p, p) == (k - 1) % p and self._burnside(p, "rotation", k) >= 0
            for k in range(max_lambda + 1)
        )
        want = f"fermat p={p} lambda<= {max_lambda}: {'PASS' if holds else 'FAIL'}"
        return None if out.strip() == want else f"expected {want!r}"

    def _check_orbital_definition(self, job, out):
        n, group = job.spec
        data = json.loads(out)
        if (data["n"], data["group"]) != (n, group):
            return "echoed arguments differ"
        want = self._reference(("closed", n, group), lambda: closed_form(n, group))
        if (data["den"], data["coeffs"]) != want:
            return "coefficients differ from the closed form"
        return None

    def _check_orbital_oracle(self, job, out):
        n, group, lam = job.spec
        data = json.loads(out)
        if (data["n"], data["group"], data["lambda"]) != (n, group, lam):
            return "echoed arguments differ"
        den, coeffs = self._reference(("closed", n, group), lambda: closed_form(n, group))
        want, rem = divmod(evaluate(coeffs, lam), den)
        if rem or data["count"] != want:
            return f"count {data['count']} differs from the closed form's {evaluate(coeffs, lam)}/{den}"
        return None

    def _check_verify(self, job, out):
        lines = out.strip().splitlines()
        if len(lines) != 5 or not all(": PASS (" in line for line in lines):
            return "not every verify suite printed PASS"
        return None

    def _check_chromatic(self, job, out):
        family, n, edges = job.spec
        data = json.loads(out)
        if data["den"] != 1:
            return "chromatic polynomial has a denominator"
        coeffs = data["coeffs"]
        if any(u == v for u, v in edges):
            return None if coeffs == [] else "looped graph gave a non-zero polynomial"
        simple = {(min(u, v), max(u, v)) for u, v in edges}
        if len(coeffs) != n + 1 or coeffs[n] != 1:
            return "degree or leading coefficient is wrong"
        if n >= 1 and coeffs[n - 1] != -len(simple):
            return f"x^(n-1) coefficient is not -{len(simple)}"
        if family == "cycle" and coeffs != cycle_chromatic(n):
            return "cycle differs from (x-1)^n + (-1)^n (x-1)"
        if evaluate(coeffs, 1) != (0 if simple else 1) or evaluate(coeffs, 2) != two_colorings(n, edges):
            return "P(1) or P(2) is wrong"
        if n <= 10:
            want = self._reference(("colorings", n, edges), lambda: count_colorings(n, edges, 3))
            if evaluate(coeffs, 3) != want:
                return f"P(3) differs from the brute-force count {want}"
        return None
