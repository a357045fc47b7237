"""Tests of the benchmark itself: percentile selection, self time, output
checks, the tracer's patching, and agreement of BENCHMARK.json with the
code.  Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402


@pytest.fixture
def cli():
    """A fresh orbichrom import, dropped afterwards so patches do not leak."""
    module = run.import_program()
    yield module
    run.import_program()


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("count, expected", [
    (5, 50), (19, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_jobs_beyond(count, expected):
    values = [float(v) for v in range(1, count + 1)]
    p, value = metrics.tail_percentile(values)
    assert p == expected
    above = sum(1 for v in values if v > value)
    assert above >= 10 or count < 20
    assert value == metrics.percentile(values, p)


def test_percentile_is_nearest_rank_and_ignores_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert metrics.percentile(values, 50) == 3.0
    assert metrics.percentile(values, 75) == 4.0
    assert metrics.percentile(values, 100) == 5.0


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_and_sibling_children():
    # 0 root [0, 10]; 1 and 3 are siblings under it; 2 is nested in 1.
    start = [0.0, 1.0, 1.5, 4.0]
    end = [10.0, 3.0, 2.5, 8.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([4.0, 1.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children 1 and 2 overlap on [6, 7]; child 3 runs past the parent's end.
    start = [0.0, 5.0, 6.0, 9.0]
    end = [10.0, 7.0, 8.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 3.0 - 1.0)


# ---------------------------------------------------------------------------
# output checks


def _round_trip(cli, job):
    seconds, rc, out, err = run.execute(cli.main, job.argv)
    return rc, out


def _sample_jobs(tmp_path):
    edges = ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": 5, "edges": [list(e) for e in edges]}))
    looped = tmp_path / "looped.json"
    looped.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 1], [0, 1]]}))
    cycle = tmp_path / "c.json"
    cycle.write_text(json.dumps({"vertices": 7, "edges": [[i, (i + 1) % 7] for i in range(7)]}))
    return [
        Job("orbital_closed", ("orbital", "12", "--method", "closed", "--group", "full",
                               "--lam", "3", "--format", "json"), (12, "full", 3)),
        Job("orbital_closed", ("orbital", "11", "--method", "closed", "--group", "rotation",
                               "--lam", "4", "--format", "json"), (11, "rotation", 4)),
        Job("table", ("table", "2", "--max-n", "12", "--format", "json"), (2, 12)),
        Job("table", ("table", "1", "--max-n", "12", "--format", "json"), (1, 12)),
        Job("fermat", ("fermat", "53", "--max-lambda", "6"), (53, 6)),
        Job("orbital_definition", ("orbital", "9", "--method", "definition", "--group", "full",
                                   "--format", "json"), (9, "full")),
        Job("orbital_oracle", ("orbital", "6", "--method", "oracle", "--group", "full",
                               "--lam", "3", "--format", "json"), (6, "full", 3)),
        Job("verify", ("verify", "--max-n", "4", "--max-lambda", "2"), (4, 2)),
        Job("chromatic", ("chromatic", str(graph), "--format", "json"), ("sparse", 5, edges)),
        Job("chromatic", ("chromatic", str(looped), "--format", "json"),
            ("looped", 3, ((0, 1), (0, 1), (1, 1)))),
        Job("chromatic", ("chromatic", str(cycle), "--format", "json"),
            ("cycle", 7, tuple(sorted((min(i, (i + 1) % 7), max(i, (i + 1) % 7)) for i in range(7))))),
    ]


def test_checker_accepts_every_kind_of_correct_output(cli, tmp_path):
    checker = checks.Checker()
    for job in _sample_jobs(tmp_path):
        rc, out = _round_trip(cli, job)
        assert checker.check(job, rc, out) is None, job.argv


def _corrupt(out: str) -> str:
    """Change one number in the output."""
    data = json.loads(out)
    if "coeffs" in data:
        data["coeffs"][-1] += 1
    elif "rows" in data:
        data["rows"][-1]["coeffs"][0] += 1
    else:
        data["count"] += 1
    return json.dumps(data)


def test_a_corrupted_output_counts_as_failed(cli, tmp_path):
    checker = checks.Checker()
    for job in _sample_jobs(tmp_path):
        rc, out = _round_trip(cli, job)
        if job.kind in ("fermat", "verify"):
            bad = out.replace("PASS", "FAIL", 1)
        elif job.spec[0] == "looped":
            bad = json.dumps({"den": 1, "coeffs": [0, 1]})
        else:
            bad = _corrupt(out)
        assert checker.check(job, rc, bad) is not None, job.argv
        assert checker.check(job, 1, out) is not None


def test_the_loop_records_wrong_output_raised_errors_and_exit_codes(tmp_path):
    job = _sample_jobs(tmp_path)[0]
    outputs = iter([
        lambda: print(json.dumps({"n": 12, "group": "full", "lambda": 3, "den": 1,
                                  "coeffs": [1], "value": {"num": 1, "den": 1}})) or 0,
        lambda: 1 / 0,
        lambda: 2,
    ])
    fake = SimpleNamespace(main=lambda argv: next(outputs)())
    loop = run.Loop(fake, checks.Checker())
    durations, _, _ = loop.run([job, job, job])
    assert len(durations) == 3 and loop.attempted == 3
    assert len(loop.failures) == 3
    assert "ZeroDivisionError" in loop.failures[1]


# ---------------------------------------------------------------------------
# reference values


def test_references_agree_with_the_published_tables_in_the_test_suite():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import test_acceptance
    finally:
        sys.path.remove(str(ROOT / "tests"))
    assert checks.ROTATION_TABLE == test_acceptance.ROTATION_TABLE
    assert checks.FULL_TABLE == test_acceptance.FULL_TABLE
    for n in range(1, 11):
        for group, table in checks.PUBLISHED.items():
            assert checks.closed_form(n, group) == checks.expand_published(table[n])


@pytest.mark.parametrize("group", ["rotation", "full"])
def test_burnside_counts_match_the_closed_forms(group):
    for n in range(1, 25):
        den, coeffs = checks.closed_form(n, group)
        for lam in range(6):
            assert checks.evaluate(coeffs, lam) == checks.burnside_count(n, group, lam) * den


def test_brute_force_counts_match_the_cycle_formula_and_two_colorings():
    for n in range(3, 9):
        edges = [(i, (i + 1) % n) for i in range(n)]
        for lam in range(5):
            assert checks.count_colorings(n, edges, lam) == checks.evaluate(checks.cycle_chromatic(n), lam)
        assert checks.two_colorings(n, edges) == checks.count_colorings(n, edges, 2)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_patches_every_lookup_and_the_guard_sees_the_work(cli, tmp_path):
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == []
    assert "orbichrom.chroma.delete_edge" in tracer.patched
    assert "orbichrom.rationalpoly.RationalPoly.__radd__" in tracer.patched
    assert "orbichrom.permgroup.Permutation.__mul__" in tracer.patched
    loop = run.Loop(cli, checks.Checker())
    jobs = [j for j in _sample_jobs(tmp_path) if j.kind in ("chromatic", "orbital_definition")]
    _, _, output_bytes = loop.run(jobs, on_job=lambda index: setattr(tracer, "job_id", index))
    assert loop.failures == []
    layer = metrics.layer_metrics(tracer, output_bytes)
    assert layer["chroma.dc_nodes"] == layer["multigraph.delete_edge.calls"] > 0
    assert layer["chroma.chromatic_calls_per_element"] == 1.0
    assert layer["permgroup.group_order.sum"] == 18
    assert set(tracer.job) == set(range(len(jobs)))


def test_untraced_calls_record_nothing(cli):
    tracer = Tracer()
    tracer.install()
    cli.main(["table", "1", "--max-n", "3"])
    assert len(tracer.name) == 0


def test_the_guard_names_dominant_metrics_that_read_zero():
    layer = {name: 1.0 for name, _, _ in metrics.PER_LAYER}
    assert metrics.silent_wrappers("chromatic_graphs", layer) == []
    layer["multigraph.contract_edge.calls"] = 0
    assert metrics.silent_wrappers("chromatic_graphs", layer) == ["multigraph.contract_edge.calls"]


# ---------------------------------------------------------------------------
# workloads and BENCHMARK.json


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in WORKLOADS.values():
        first = workload.generate(7, tmp_path / "a")
        again = workload.generate(7, tmp_path / "a")
        other = workload.generate(8, tmp_path / "b")
        assert first == again
        assert [j.argv for j in first] != [j.argv for j in other]
        assert len(first) == 40  # so job_s_tail is p75 with ten commands beyond it


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "job_s_p50", "job_s_tail", "jobs_per_s", "peak_rss_mb"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert set(metrics.DOMINANT) == set(WORKLOADS)
    assert all(set(names) <= set(metrics.UNITS) for names in metrics.DOMINANT.values())
