"""Run one benchmark workload against the orbichrom CLI and print its metrics.

    python3 benchmarks/run.py --workload closed_ladder --seed 1 --seconds 20 --trace 0

The program is orbichrom from ``src/`` of the checkout this file sits in,
imported in-process.  Each job calls ``orbichrom.cli.main(argv)`` with
stdout and stderr captured: one client, one job at a time (a closed
loop), in one thread.  Every output is checked against an independent
reference (checks.py) outside the timed region.

--trace 0  repeats the workload's round of commands until --seconds of
           job time have passed, and at least MIN_ROUNDS times, and
           reports the end-to-end metrics over each command's median
           time.  Job times are scaled to a host of reference speed:
           between jobs, outside the timing, a fixed piece of
           pure-Python work (the probe) is timed, and a job's time is
           multiplied by PROBE_REFERENCE_S over the mean probe time on
           either side of it.  On a shared host whose speed swings by
           tens of percent for minutes at a time this keeps repeated
           runs comparable; the record also gives the unscaled times.
--trace 1  runs the round untraced and then traced, repeating the pair
           until --seconds have passed, and reports the per-layer
           metrics (medians over the pairs) with the tracing overhead.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the full record, which is also written to
benchmarks/out/ together with the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from checks import Checker
from metrics import UNITS, layer_metrics, silent_wrappers, tail_percentile
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"
SETUP_REPEATS = 15
MIN_ROUNDS = 3
# The probe's time on an idle host of the kind the benchmark was built on
# (a 2-vCPU KVM guest on a 2.1 GHz Xeon): scaled job times are seconds on
# such a host.
PROBE_REFERENCE_S = 0.0025


def import_program():
    """Import orbichrom.cli afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "orbichrom" or n.startswith("orbichrom.")]:
        del sys.modules[name]
    cli = importlib.import_module("orbichrom.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"orbichrom was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int, workdir: Path):
    """Import the program and make the inputs, SETUP_REPEATS times.
    setup_s is the median time, scaled like the job times; the unscaled
    median is returned beside it."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = perf_counter()
        cli = import_program()
        jobs = workload.generate(seed, workdir)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * 2 * PROBE_REFERENCE_S / (before + probe()))
    return cli, jobs, statistics.median(scaled), statistics.median(raw)


def probe() -> float:
    """The best of two timings of a fixed piece of work of the program's
    kind (small tuples, a dict, sorting, Fraction sums, a big-integer
    product): how fast the host runs this process right now."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        pairs = sorted({(i * 7919) % 4093: (i, i + 1) for i in range(6000)}.items())
        acc = Fraction(0)
        for key, (u, v) in pairs[:150]:
            acc += Fraction(u, v + key)
        acc += 3 ** 12000 * 7 ** 9000 % 9973
        best = min(best, perf_counter() - start)
    return best


def execute(main, argv) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed job is recorded; the run goes on
        rc, err = None, io.StringIO(f"raised {type(exc).__name__}: {exc}")
    return perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Loop:
    """Runs jobs one at a time and checks each output outside the timing."""

    def __init__(self, cli, checker: Checker) -> None:
        self.cli = cli  # main is looked up per job, so a traced main is seen
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_jobs: set[int] = set()  # positions in the round
        self.probes: list[float] = []

    def run(self, jobs, on_job=None) -> tuple[list[float], list[float], int]:
        """The jobs' durations, the same scaled to the reference host
        speed, and the bytes the jobs printed."""
        durations, output_bytes = [], 0
        probes = [probe()]
        for index, job in enumerate(jobs):
            gc.collect()  # every job starts from a collected heap, as in a fresh process
            if on_job:
                on_job(index)
            seconds, rc, out, err = execute(self.cli.main, job.argv)
            if on_job:
                on_job(-1)
            probes.append(probe())
            durations.append(seconds)
            output_bytes += len(out.encode())
            self.attempted += 1
            if rc is None:
                reason = err.strip()
            else:
                reason = self.checker.check(job, rc, out)
            if reason:
                self.failures.append(f"{' '.join(job.argv)}: {reason}")
                self.failed_jobs.add(index)
        scaled = [d * 2 * PROBE_REFERENCE_S / (before + after)
                  for d, before, after in zip(durations, probes, probes[1:])]
        self.probes += probes
        return durations, scaled, output_bytes


def _job_metrics(times: list[float], correct: int) -> dict[str, float]:
    p, tail = tail_percentile(times)
    return {"job_s_p50": statistics.median(times), "job_s_tail": tail,
            "jobs_per_s": correct / sum(times), "job_s_tail_percentile": p}


def run_timed(loop: Loop, jobs, seconds: float, setup_s: float) -> tuple[dict, dict]:
    raw: list[list[float]] = []
    scaled: list[list[float]] = []
    while len(raw) < MIN_ROUNDS or sum(map(sum, raw)) < seconds:
        durations, host_scaled, _ = loop.run(jobs)
        raw.append(durations)
        scaled.append(host_scaled)
    correct = len(jobs) - len(loop.failed_jobs)
    job = _job_metrics([statistics.median(t) for t in zip(*scaled)], correct)
    unscaled = _job_metrics([statistics.median(t) for t in zip(*raw)], correct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s_p50": (job["job_s_p50"], "s"),
        "job_s_tail": (job["job_s_tail"], "s"),
        "jobs_per_s": (job["jobs_per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"rounds": len(raw), "jobs": len(jobs), "timed_s": sum(map(sum, raw)),
               "job_s_tail_percentile": job["job_s_tail_percentile"],
               "failed_ratio": len(loop.failures) / loop.attempted,
               "probe_s_p50": statistics.median(loop.probes), "unscaled": unscaled,
               "durations": raw, "scaled": scaled}
    return metrics, details


def run_traced(loop: Loop, jobs, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    def on_job(index: int) -> None:
        tracer.job_id = index

    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        untraced = sum(loop.run(jobs)[1])
        tracer.reset()
        _, scaled, output_bytes = loop.run(jobs, on_job)
        traced = sum(scaled)
        layer = layer_metrics(tracer, output_bytes)
        layer.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                      "trace.overhead_s": traced - untraced})
        passes.append(layer)
    metrics = {name: (statistics.median(p[name] for p in passes), unit)
               for name, unit in UNITS.items()}
    details = {"passes": len(passes), "jobs": len(jobs),
               "failed_ratio": len(loop.failures) / loop.attempted,
               "patched": tracer.patched, "missing": tracer.missing}
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbichrom" / "__init__.py").is_file():
        print(f"error: no orbichrom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{workload.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    cli, jobs, setup_s, unscaled_setup_s = setup(workload, args.seed, workdir)
    loop = Loop(cli, Checker())

    silent: list[str] = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        metrics, details = run_traced(loop, jobs, args.seconds, tracer)
        silent = silent_wrappers(workload.name, {k: v for k, (v, _) in metrics.items()})
        tracer.write(OUT / f"{stem}-spans.json")
        details["silent_wrappers"] = silent
    else:
        metrics, details = run_timed(loop, jobs, args.seconds, setup_s)
        details["unscaled"]["setup_s"] = unscaled_setup_s

    correct = not loop.failures and not silent
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "python": sys.version.split()[0],
        **details, "failures": loop.failures[:20], "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["metrics"]["failed_ratio"] = {"value": details["failed_ratio"], "unit": "ratio"}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    result = {"correct": correct, "attempted": loop.attempted, "failed": len(loop.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("record " + json.dumps(record))
    print(json.dumps(result))
    if silent:
        print(f"error: layer metrics read zero on {workload.name}: {', '.join(silent)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
