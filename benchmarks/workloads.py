"""Seeded inputs for the four benchmark workloads.

Each workload makes one *round*: a list of 40 CLI commands, which the
runner repeats.  Sizes come from a fixed ladder, so every seed costs
about the same; the seed draws what does not set a job's cost class --
lambda values, small random graphs, some groups and primes -- and the
order of the commands.
Graph files for ``chromatic_graphs`` are written while the inputs are
made, so their cost is part of the set-up time.

The job mixes and the reasons for them are documented in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GROUPS = ("rotation", "full")


@dataclass(frozen=True)
class Job:
    """One CLI command.  ``kind`` selects the output check and ``spec``
    holds what that check needs to know about the input."""

    kind: str
    argv: tuple[str, ...]
    spec: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[random.Random, Path], list[Job]]

    def generate(self, seed: int, workdir: Path) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        jobs = self.make_round(rng, workdir)
        rng.shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# closed_ladder: the closed forms, tables and Fermat checks

# Divisor-rich sizes and primes of about the same magnitude.  Two sizes
# recur (lambda, which the seed draws, does not change the cost), so
# that the median and the 75th percentile fall inside a block of equal
# jobs.
_CLOSED_LADDER = ([(719, "full"), (360, "rotation"), (359, "full"), (240, "full"), (210, "rotation")]
                  + [(180, "rotation")] * 7 + [(120, "rotation")] * 8)
_CLOSED_CHEAP = [10, 20, 21, 30, 31, 40, 41, 50, 53, 60, 61, 70, 71, 80]
_FERMAT_PRIMES = [(53, 59), (61, 67), (71, 73), (79, 83)]


def _orbital_closed(n: int, group: str, lam: int) -> Job:
    argv = ("orbital", str(n), "--method", "closed", "--group", group,
            "--lam", str(lam), "--format", "json")
    return Job("orbital_closed", argv, (n, group, lam))


def _closed_ladder(rng: random.Random, workdir: Path) -> list[Job]:
    sizes = _CLOSED_LADDER + [(n, GROUPS[i % 2]) for i, n in enumerate(_CLOSED_CHEAP)]
    jobs = [_orbital_closed(n, group, rng.randint(2, 6)) for n, group in sizes]
    jobs += [Job("table", ("table", str(which), "--max-n", "30", "--format", "json"), (which, 30))
             for which in (1, 2)]
    for pair in _FERMAT_PRIMES:
        p, max_lambda = rng.choice(pair), rng.randint(6, 12)
        jobs.append(Job("fermat", ("fermat", str(p), "--max-lambda", str(max_lambda)),
                        (p, max_lambda)))
    return jobs


# ---------------------------------------------------------------------------
# burnside_definition: the Burnside average over quotient graphs

# Full-group cost doubles every few steps for even n (reflections fix a
# path) but stays low for odd n (every reflection makes a loop).  (35,
# rotation) and (39, full) recur, so that the median and the 75th
# percentile fall inside a block of equal jobs for every seed.
_FULL = list(range(25, 40, 2)) + [20, 22, 24, 26, 28, 32, 36] + [39] * 5


def _orbital_definition(n: int, group: str) -> Job:
    argv = ("orbital", str(n), "--method", "definition", "--group", group, "--format", "json")
    return Job("orbital_definition", argv, (n, group))


def _burnside_definition(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = [_orbital_definition(min(40, rng.choice((n, n + 1))), "rotation") for n in range(12, 41, 2)]
    jobs += [_orbital_definition(35, "rotation")] * 5
    jobs += [_orbital_definition(n, "full") for n in _FULL]
    return jobs


# ---------------------------------------------------------------------------
# chromatic_graphs: deletion-contraction on graph files


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _grid(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


_PETERSEN = (_cycle(5) + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _sparse(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random spanning tree plus `extra` further distinct edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def _chromatic_graph_list(rng: random.Random) -> list[tuple[str, int, list]]:
    # The ladder is the same for every seed.  Long cycles and grids keep
    # their natural labels: a random relabelling of a long cycle makes the
    # lexicographic edge order of deletion-contraction exponential.  The
    # Petersen graph and C_36 recur six times each, so that the median and
    # the 75th percentile fall inside a block of equal jobs.
    fixed = random.Random("chromatic_graphs:ladder")
    graphs = [("grid", r * c, _grid(r, c)) for r, c in ((2, 4), (3, 3), (2, 5))]
    graphs += [("cycle", 20, _cycle(20))]
    graphs += [("petersen", 10, _PETERSEN)] * 6
    graphs += [("cycle", 32, _cycle(32)), ("sparse", 12, _sparse(fixed, 12, 1))]
    graphs += [("cycle", 36, _cycle(36))] * 6
    graphs += [("cycle", n, _cycle(n)) for n in (40, 45, 50, 60, 70)]
    graphs += [("grid", r * c, _grid(r, c)) for r, c in ((3, 4), (2, 7))]
    graphs += [("sparse", 13, _sparse(fixed, 13, 2))]
    # The seeded graphs, each cheaper than the ladder's blocks.
    for _ in range(6):
        n = rng.randint(10, 11)
        graphs.append(("sparse", n, _sparse(rng, n, 0)))
    for _ in range(3):
        n = rng.randint(9, 10)
        edges = _sparse(rng, n, 1)
        graphs.append(("parallel", n, edges + rng.sample(edges, rng.randint(1, 4))))
    for _ in range(3):
        n = rng.randint(8, 12)
        edges = _sparse(rng, n, 2) + [(v, v) for v in rng.sample(range(n), rng.randint(1, 2))]
        graphs.append(("looped", n, edges))
    for _ in range(2):
        k, m = rng.randint(6, 10), rng.randint(4, 6)
        graphs.append(("union", k + m, _cycle(k) + [(k + u, k + v) for u, v in _sparse(rng, m, 1)]))
    return graphs


def _chromatic_graphs(rng: random.Random, workdir: Path) -> list[Job]:
    graph_dir = workdir / "graphs"
    graph_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for slot, (family, n, edges) in enumerate(_chromatic_graph_list(rng)):
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        path = graph_dir / f"{slot:02d}-{family}.json"
        path.write_text(json.dumps({"vertices": n, "edges": [list(e) for e in edges]}))
        jobs.append(Job("chromatic", ("chromatic", str(path), "--format", "json"),
                        (family, n, edges)))
    return jobs


# ---------------------------------------------------------------------------
# oracle_verify: brute-force orbit counting and the verify suites

# (n, lambda, group) with lambda^n between 1e5 and about 1e6.  (7, 7)
# holds the most proper colorings (6^7 - 6) in every round, so peak
# memory compares across seeds.  (11, 3) recurs six times and
# `verify --max-n 6 --max-lambda 2` eight times, so that the median and
# the 75th percentile fall inside a block of equal jobs.
_ORACLE_LADDER = [(6, 7, "rotation"), (6, 7, "full"), (6, 8, "rotation"), (6, 8, "full"),
                  (7, 7, "full")] + [(11, 3, "rotation")] * 6
_VERIFY_BOUNDS = ([(n, lam) for n in (3, 4, 5) for lam in (1, 2, 3)]
                  + [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1)]
                  + [(6, 2)] * 8 + [(7, 1), (7, 2), (7, 3)])


def _orbital_oracle(n: int, lam: int, group: str) -> Job:
    argv = ("orbital", str(n), "--method", "oracle", "--group", group,
            "--lam", str(lam), "--format", "json")
    return Job("orbital_oracle", argv, (n, group, lam))


def _oracle_verify(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = [_orbital_oracle(n, lam, group) for n, lam, group in _ORACLE_LADDER]
    jobs += [_orbital_oracle(n, lam, rng.choice(GROUPS)) for n, lam in ((9, 4), (8, 5))]
    for max_n, max_lambda in _VERIFY_BOUNDS:
        argv = ("verify", "--max-n", str(max_n), "--max-lambda", str(max_lambda))
        jobs.append(Job("verify", argv, (max_n, max_lambda)))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "closed_ladder",
            "the route users call to build tables: a few huge rationalpoly pow/mul "
            "products with big-integer coefficients, plus JSON output of them",
            _closed_ladder,
        ),
        Workload(
            "burnside_definition",
            "many small path and cycle quotients, the same shapes recurring across "
            "group elements, and the O(|G|^2 n) group axiom check",
            _burnside_definition,
        ),
        Workload(
            "chromatic_graphs",
            "one deep deletion-contraction per job: multigraph delete, contract, "
            "simplify and hash, and very many tiny polynomials",
            _chromatic_graphs,
        ),
        Workload(
            "oracle_verify",
            "brute-force enumeration held in memory, and verify running all three "
            "routes and all five suites",
            _oracle_verify,
        ),
    )
}
