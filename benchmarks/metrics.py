"""Metric definitions: the tail percentile, the per-layer metrics derived
from a trace, and the guard against wrappers that record nothing."""

from __future__ import annotations

import math
from fractions import Fraction

from tracing import Tracer, count_under, summarize

PERCENTILES = (50, 75, 90, 95, 99, 99.9)

SUITES = ("closed-vs-definition", "cycle-index-identities", "oracle-agreement",
          "quotient-shapes", "totient-identities")


def _rank(p: float, count: int) -> int:
    """Nearest rank of percentile p among count values (exact, so that
    p99.9 of 10000 values is rank 9990)."""
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(values) -> tuple[float, float]:
    """(p, value) for the highest p in PERCENTILES that leaves at least ten
    values above its nearest rank.  With fewer than 20 values no
    percentile qualifies, and the median is returned."""
    count = len(values)
    best = 50
    for p in PERCENTILES:
        if count - _rank(p, count) >= 10:
            best = p
    return best, percentile(values, best)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"rationalpoly.{op}.{k}", "count" if k == "calls" else "s", "lower")
     for op in ("mul", "pow", "add", "eval") for k in ("calls", "self_s")]
    + [("rationalpoly.mul.coeff_products", "count", "lower"),
       ("rationalpoly.x_minus_one_pow.calls", "count", "lower"),
       ("rationalpoly.x_minus_one_pow.total_s", "s", "lower"),
       ("rationalpoly.to_den_coeffs.calls", "count", "lower"),
       ("rationalpoly.to_den_coeffs.self_s", "s", "lower")]
    + [(f"multigraph.{op}.{k}", "count" if k == "calls" else "s", "lower")
       for op in ("build", "hash", "simplify", "delete_edge", "contract_edge",
                  "contract_partition", "parse_graph_text")
       for k in ("calls", "self_s")]
    + [(f"chroma.chromatic_polynomial.{k}", "count" if k == "calls" else "s", "lower")
       for k in ("calls", "total_s", "self_s")]
    + [("chroma.dc_nodes", "count", "lower"),
       ("chroma.dc_nodes_per_s", "1/s", "higher")]
    + [(f"chroma.orbital_by_definition.{k}", "count" if k == "calls" else "s", "lower")
       for k in ("calls", "total_s", "self_s")]
    + [("chroma.quotient_graph.calls", "count", "lower"),
       ("chroma.quotient_graph.total_s", "s", "lower"),
       ("chroma.chromatic_calls_per_element", "ratio", "lower"),
       ("chroma.closed_form.total_s", "s", "lower"),
       ("chroma.fermat_check.total_s", "s", "lower"),
       ("permgroup.construct.calls", "count", "lower"),
       ("permgroup.construct.self_s", "s", "lower"),
       ("permgroup.compose.calls", "count", "lower"),
       ("permgroup.group_order.sum", "count", "lower"),
       ("permgroup.is_automorphism.calls", "count", "lower"),
       ("permgroup.is_automorphism.self_s", "s", "lower"),
       ("oracle.count_coloring_orbits.calls", "count", "lower"),
       ("oracle.count_coloring_orbits.total_s", "s", "lower"),
       ("oracle.colorings_enumerated", "count", "lower"),
       ("oracle.colorings_per_s", "1/s", "higher"),
       ("numtheory.divisors.calls", "count", "lower"),
       ("numtheory.totient.calls", "count", "lower"),
       ("numtheory.self_s", "s", "lower"),
       ("cli.main.calls", "count", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.output_bytes", "bytes", "lower")]
    + [(f"cli.verify.{suite}.total_s", "s", "lower") for suite in SUITES]
    + [("trace.spans", "count", "lower"),
       ("trace.untraced_s", "s", "lower"),
       ("trace.traced_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Metrics that the workload exercises by design: a zero here means a
# wrapper was patched where the program does not look the function up.
_POLY_CORE = ["rationalpoly.mul.calls", "rationalpoly.mul.self_s", "rationalpoly.mul.coeff_products",
              "rationalpoly.pow.calls", "rationalpoly.pow.self_s",
              "rationalpoly.x_minus_one_pow.calls", "rationalpoly.x_minus_one_pow.total_s",
              "rationalpoly.eval.calls", "rationalpoly.eval.self_s", "rationalpoly.to_den_coeffs.self_s"]
_NUMTHEORY = ["numtheory.divisors.calls", "numtheory.totient.calls", "numtheory.self_s"]
_CLI = ["cli.main.calls", "cli.main.self_s", "cli.output_bytes"]
_ADD = ["rationalpoly.add.calls", "rationalpoly.add.self_s"]
DOMINANT = {
    "closed_ladder": _POLY_CORE + _NUMTHEORY + _CLI
    + ["chroma.closed_form.total_s", "chroma.fermat_check.total_s"],
    "burnside_definition": _ADD + [
        "chroma.orbital_by_definition.calls", "chroma.orbital_by_definition.total_s",
        "chroma.orbital_by_definition.self_s", "chroma.quotient_graph.calls",
        "chroma.quotient_graph.total_s", "chroma.chromatic_calls_per_element",
        "permgroup.construct.calls", "permgroup.construct.self_s", "permgroup.compose.calls",
        "permgroup.group_order.sum", "permgroup.is_automorphism.calls",
        "permgroup.is_automorphism.self_s"],
    "chromatic_graphs": _ADD + [
        f"multigraph.{op}.{k}" for op in ("build", "simplify", "delete_edge", "contract_edge",
                                          "contract_partition") for k in ("calls", "self_s")
    ] + ["multigraph.parse_graph_text.self_s", "chroma.chromatic_polynomial.calls",
         "chroma.chromatic_polynomial.total_s", "chroma.chromatic_polynomial.self_s",
         "chroma.dc_nodes", "chroma.dc_nodes_per_s"],
    "oracle_verify": _NUMTHEORY + _CLI + [
        "oracle.count_coloring_orbits.calls", "oracle.count_coloring_orbits.total_s",
        "oracle.colorings_enumerated", "oracle.colorings_per_s"]
    + [f"cli.verify.{suite}.total_s" for suite in SUITES],
}


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric but the trace timings, from one traced pass."""
    rows = summarize(tracer)

    def get(span: str, key: str) -> float:
        return rows.get(span, {}).get(key, 0)

    m: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key in ("calls", "self_s", "total_s"):
            m[name] = get(span, key)
    dc_nodes = count_under(tracer, "multigraph.delete_edge", "chroma.chromatic_polynomial")
    chromatic_s = get("chroma.chromatic_polynomial", "total_s")
    oracle_s = get("oracle.count_coloring_orbits", "total_s")
    m.update({
        "rationalpoly.mul.coeff_products": get("rationalpoly.mul", "work"),
        "chroma.dc_nodes": dc_nodes,
        "chroma.dc_nodes_per_s": _ratio(dc_nodes, chromatic_s),
        "chroma.chromatic_calls_per_element": _ratio(
            count_under(tracer, "chroma.chromatic_polynomial", "chroma.orbital_by_definition"),
            get("chroma.orbital_by_definition", "work")),
        "chroma.closed_form.total_s": get("chroma.orbital_rotation_closed", "total_s")
        + get("chroma.orbital_full_closed", "total_s"),
        "permgroup.group_order.sum": get("permgroup.construct", "work"),
        "oracle.colorings_enumerated": get("oracle.count_coloring_orbits", "work"),
        "oracle.colorings_per_s": _ratio(get("oracle.count_coloring_orbits", "work"), oracle_s),
        "numtheory.self_s": sum(row["self_s"] for span, row in rows.items()
                                if span.startswith("numtheory.")),
        "cli.output_bytes": output_bytes,
        "trace.spans": len(tracer.name),
    })
    return m


def silent_wrappers(workload: str, metrics: dict[str, float]) -> list[str]:
    """Metrics that must be non-zero on this workload but read zero."""
    return [name for name in DOMINANT.get(workload, []) if not metrics.get(name)]
