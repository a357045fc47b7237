"""Spans around the public functions of each orbichrom layer.

The tracer wraps functions from outside the program: each target is
named by its defining module and attribute, and the wrapper is patched
into every place the original is looked up -- the class (so aliases such
as ``__radd__ = __add__`` are caught) and every orbichrom module that
imported it by name.  Spans are kept in memory as parallel arrays
(name, start, end, parent, job, work) and only recorded while a job is
running, so the benchmark's own checks are never traced.

Per-layer metrics are derived from the spans afterwards:

* ``calls``: number of spans with that name;
* ``total_s``: inclusive time, counting only the outermost span of a
  name (``__sub__`` runs ``__add__`` inside it);
* ``self_s``: a span's duration minus the part of its interval that its
  child spans cover, summed over the spans of that name;
* computed work (``coeff_products``, ``colorings_enumerated``,
  ``group_order.sum``) from the sizes of each call's inputs.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# span name -> (defining module, attribute path) of every function it covers.
TARGETS = {
    "rationalpoly.add": [("rationalpoly", "RationalPoly.__add__"), ("rationalpoly", "RationalPoly.__sub__"),
                         ("rationalpoly", "RationalPoly.__rsub__"), ("rationalpoly", "RationalPoly.__neg__")],
    "rationalpoly.mul": [("rationalpoly", "RationalPoly.__mul__")],
    "rationalpoly.pow": [("rationalpoly", "RationalPoly.__pow__")],
    "rationalpoly.eval": [("rationalpoly", "RationalPoly.__call__")],
    "rationalpoly.to_den_coeffs": [("rationalpoly", "RationalPoly.to_den_coeffs")],
    "rationalpoly.x_minus_one_pow": [("rationalpoly", "x_minus_one_pow")],
    "multigraph.build": [("multigraph", "Multigraph.__init__")],
    "multigraph.hash": [("multigraph", "Multigraph.__hash__")],
    "multigraph.simplify": [("multigraph", "simplify")],
    "multigraph.delete_edge": [("multigraph", "delete_edge")],
    "multigraph.contract_edge": [("multigraph", "contract_edge")],
    "multigraph.contract_partition": [("multigraph", "contract_partition")],
    "multigraph.parse_graph_text": [("multigraph", "parse_graph_text")],
    "multigraph.classify_shape": [("multigraph", "classify_shape")],
    "chroma.chromatic_polynomial": [("chroma", "chromatic_polynomial")],
    "chroma.quotient_graph": [("chroma", "quotient_graph")],
    "chroma.orbital_by_definition": [("chroma", "orbital_by_definition")],
    "chroma.orbital_rotation_closed": [("chroma", "orbital_rotation_closed")],
    "chroma.orbital_full_closed": [("chroma", "orbital_full_closed")],
    "chroma.cycle_index_rotation_at": [("chroma", "cycle_index_rotation_at")],
    "chroma.fermat_check": [("chroma", "fermat_check")],
    "permgroup.construct": [("permgroup", "PermGroup.__init__")],
    "permgroup.compose": [("permgroup", "Permutation.compose")],
    "permgroup.is_automorphism": [("permgroup", "is_automorphism")],
    "oracle.count_coloring_orbits": [("oracle", "count_coloring_orbits")],
    "numtheory.divisors": [("numtheory", "divisors")],
    "numtheory.totient": [("numtheory", "totient")],
    "numtheory.alternating_totient_sum": [("numtheory", "alternating_totient_sum")],
    "numtheory.is_prime": [("numtheory", "is_prime")],
    "numtheory.smallest_prime_factor": [("numtheory", "smallest_prime_factor")],
    "cli.main": [("cli", "main")],
}


def _terms(p) -> int:
    return p.degree() + 1 if hasattr(p, "degree") else 1


# Work per call, computed from the call's inputs (and result) after it returns.
WORK = {
    "rationalpoly.mul": lambda args, result: _terms(args[0]) * _terms(args[1]),
    "permgroup.construct": lambda args, result: args[0].order(),
    "oracle.count_coloring_orbits": lambda args, result: args[2] ** args[0].n,
    "chroma.orbital_by_definition": lambda args, result: args[1].order(),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.work = array("d")
        self.outermost = array("b")
        self._open: list[int] = []  # per name id: spans of that name now open
        self._stack: list[int] = []
        self.job_id = -1  # recording only while >= 0
        self.patched: list[str] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def reset(self) -> None:
        """Drop the recorded spans, keeping the patches."""
        for column in (self.name, self.start, self.end, self.parent, self.job, self.work, self.outermost):
            del column[:]

    def wrap(self, span: str, fn):
        nid = self._name_id(span)
        work = WORK.get(span)
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job_id < 0:
                return fn(*args, **kwargs)
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.outermost.append(opened[nid] == 0)
            self.work.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            opened[nid] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                opened[nid] -= 1
                stack.pop()
            if work is not None:
                self.work[i] = work(args, result)
            return result

        return traced

    def install(self, package: str = "orbichrom") -> None:
        """Patch every target wherever it is looked up in the loaded package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for span, places in TARGETS.items():
            for module_name, attr_path in places:
                owner = sys.modules.get(f"{package}.{module_name}")
                *class_path, attr = attr_path.split(".")
                for part in class_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr_path}")
                    continue
                wrapper = self.wrap(span, original)
                for holder in ([owner] if class_path else modules):
                    label = f"{holder.__module__}.{holder.__qualname__}" if class_path else holder.__name__
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self.patched.append(f"{label}.{key}")
        cli = sys.modules.get(f"{package}.cli")
        suites = getattr(cli, "_SUITES", None)
        if isinstance(suites, dict):
            for suite, fn in list(suites.items()):
                suites[suite] = self.wrap(f"cli.verify.{suite}", fn)
                self.patched.append(f"{package}.cli._SUITES[{suite!r}]")
        else:
            self.missing.append("cli._SUITES")

    def write(self, path: Path) -> None:
        """Write the spans as JSON columns."""
        path.write_text(json.dumps({
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "job", "work"],
            "name": list(self.name), "start": list(self.start), "end": list(self.end),
            "parent": list(self.parent), "job": list(self.job), "work": list(self.work),
        }))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span.  Spans must be listed in order of start time
    (a parent before its children), as the tracer records them."""
    count = len(start)
    covered = [0.0] * count
    reach = [float("-inf")] * count  # end of the covered part so far, per parent
    for i in range(count):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(count)]


def _under(tracer: Tracer, i: int, ancestor: int) -> bool:
    p = tracer.parent[i]
    while p >= 0:
        if tracer.name[p] == ancestor:
            return True
        p = tracer.parent[p]
    return False


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, total_s, self_s and work for every span name seen."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0} for name in tracer.names}
    for i, nid in enumerate(tracer.name):
        row = out[tracer.names[nid]]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["work"] += tracer.work[i]
        if tracer.outermost[i]:
            row["total_s"] += tracer.end[i] - tracer.start[i]
    return out


def count_under(tracer: Tracer, span: str, ancestor: str) -> int:
    """Spans named `span` that run inside a span named `ancestor`."""
    if span not in tracer.names or ancestor not in tracer.names:
        return 0
    sid, aid = tracer.names.index(span), tracer.names.index(ancestor)
    return sum(1 for i, nid in enumerate(tracer.name) if nid == sid and _under(tracer, i, aid))
