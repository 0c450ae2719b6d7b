"""Seeded closed-loop benchmark of the hadamix JSON CLI.

    python3 clibench/run.py --workload certify --seed 1 --seconds 12 --trace 0

One client sends one job at a time to `hadamix.cli.main`, in this process,
with the job's argv, stdin and a fresh stdout, exactly as one shell
invocation of `hadamix <command>` would see them. The job list comes from
--seed (see workloads.py) and is fixed for the run:

1. A check pass runs every job once, untimed, and checks each exit code and
   stdout against oracle.py, which does not use hadamix. It also fixes the
   sha256 digest of the workload's concatenated exit codes and stdout, and
   traces each job's allocations with tracemalloc: job_peak_heap_mb is the
   peak of Python memory that one main() call allocated, averaged over jobs.
2. Timed passes rerun the whole list until --seconds have passed (at least
   three passes). Every rerun must reproduce its check-pass output byte for
   byte. A job's latency is its median over the timed passes.
3. Spread over the same seconds, between passes, a fresh interpreter
   imports hadamix.cli 11 times; setup_s is the median import time, which
   every shell invocation of the CLI pays before any work. It is timed
   inside the interpreter, so interpreter start-up is excluded.

Host speed. Shared hosts change clock speed by up to 2x within seconds, in
episodes longer than a run, so raw wall times of one run mostly measure the
episode. Every timed job is therefore bracketed by a fixed pure-Python
calibration loop, and its wall time is scaled by CALIBRATION_REFERENCE_S
over the mean of the two calibration times. An import of hadamix.cli is
scaled the same way by a fresh import of REFERENCE_IMPORTS run right after
it. Times are thus reported at one fixed host speed. The unscaled
jobs_per_s is printed too.

With --trace 1 the timed passes alternate between plain and traced passes
(tracer.py) and the per-layer metrics are printed instead of the end-to-end
ones. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import oracle
from tracer import Tracer, span_names
from workloads import WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_TIMED_PASSES = 3
SETUP_SAMPLES = 11
# Best time of calibrate() on an uncontended Xeon (Sapphire Rapids) core
# with CPython 3.11.7.
CALIBRATION_REFERENCE_S = 135e-6
# Imports scale with the host differently from calibrate(), so an import of
# hadamix.cli is scaled by a fresh import of these standard modules, whose
# best time on the same host is REFERENCE_IMPORT_S.
REFERENCE_IMPORTS = "argparse, dataclasses, fractions, json, typing"
REFERENCE_IMPORT_S = 17e-3

# Per-layer metrics, in BENCHMARK.json order, besides the per-span ones.
WORK_COUNTS = [
    "cli.stdin_bytes",
    "cli.stdout_bytes",
    "exact_core.span.vectors_in",
    "exact_core.span.dim_out",
    "hadamard.exhaustive_min_rows.subsets_scanned",
    "mixture.moment_masks",
]


def load_cli():
    """Import hadamix.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "hadamix" / "cli.py").is_file():
        raise SystemExit(f"error: no hadamix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hadamix.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "hadamix":
        raise SystemExit(f"error: imported hadamix from {cli.__file__}, not {SRC}")
    return cli


def calibrate() -> float:
    """Seconds taken by a fixed amount of Fraction and dict work."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 60):
        total += Fraction(i, i % 13 + 2)
        seen[i] = total
    return time.perf_counter() - start


def import_seconds(modules: str) -> float:
    """Seconds a fresh interpreter takes to import `modules`, timed inside it."""
    code = f"import time\nstart = time.perf_counter()\nimport {modules}\n" \
        "print(time.perf_counter() - start)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    return float(done.stdout)


def setup_sample() -> float:
    """Import time of hadamix.cli, scaled by a reference import run next to it."""
    return import_seconds("hadamix.cli") * REFERENCE_IMPORT_S / import_seconds(REFERENCE_IMPORTS)


def run_job(cli, job: Job) -> tuple[int, str, float]:
    stdin, stdout, stderr = io.StringIO(job.stdin), io.StringIO(), io.StringIO()
    start = time.perf_counter()
    rc = cli.main(list(job.argv), stdin, stdout, stderr)
    elapsed = time.perf_counter() - start
    return rc, stdout.getvalue(), elapsed


def run_job_traced(cli, job: Job) -> tuple[int, str, int]:
    """Like run_job, but returns the peak bytes main() allocated, not its time.

    Tracing starts afresh for the call, so the harness, the inputs and
    earlier jobs are not counted; the stdout the job writes is. A collection
    first makes the job's own collections fall at the same points each time.
    """
    stdin, stdout, stderr = io.StringIO(job.stdin), io.StringIO(), io.StringIO()
    gc.collect()
    tracemalloc.start()
    rc = cli.main(list(job.argv), stdin, stdout, stderr)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return rc, stdout.getvalue(), peak


class Run:
    """Outputs, failures and timings of one workload run."""

    def __init__(self, cli, jobs: list[Job]) -> None:
        self.cli = cli
        self.jobs = jobs
        self.expected: list[tuple[int, bytes]] = []
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []  # scaled seconds per fresh import
        self.raw_seconds = 0.0  # unscaled job time over all timed passes
        self.scaled_seconds = 0.0
        self.calibrations: list[float] = []
        self.peaks: list[int] = []  # allocation peak of each job, in bytes

    def check_pass(self) -> None:
        for i, job in enumerate(self.jobs):
            rc, out, peak = run_job_traced(self.cli, job)
            self.peaks.append(peak)
            self.attempted += 1
            reason = oracle.check(job, rc, out)
            if reason is not None:
                self.failures.append(f"job {i} ({' '.join(job.argv)}): {reason}")
            self.digest.update(f"{rc}\n{out}".encode())
            self.expected.append((rc, hashlib.sha256(out.encode()).digest()))

    def timed_pass(self, tracer: Tracer | None = None) -> list[float]:
        """Scaled seconds per job; the tracer's self times are scaled too."""
        gc.collect()
        times = []
        raw = 0.0
        before = calibrate()
        for i, job in enumerate(self.jobs):
            rc, out, elapsed = run_job(self.cli, job)
            after = calibrate()
            times.append(elapsed * CALIBRATION_REFERENCE_S * 2 / (before + after))
            raw += elapsed
            self.calibrations.append(after)
            before = after
            self.attempted += 1
            if (rc, hashlib.sha256(out.encode()).digest()) != self.expected[i]:
                self.failures.append(f"job {i} ({' '.join(job.argv)}): output changed on rerun")
            if tracer is not None:
                tracer.counts["cli.stdin_bytes"] += len(job.stdin.encode())
                tracer.counts["cli.stdout_bytes"] += len(out.encode())
        self.raw_seconds += raw
        self.scaled_seconds += sum(times)
        if tracer is not None:
            scale = sum(times) / raw
            for name in tracer.self_s:
                tracer.self_s[name] *= scale
        return times


def median_times(passes: list[list[float]]) -> list[float]:
    """Each job's median over the passes."""
    return [statistics.median(samples) for samples in zip(*passes)]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def paced(seconds: float, step, run: Run | None = None) -> None:
    """Call step() until `seconds` have passed, at least MIN_TIMED_PASSES times.

    With a run, its SETUP_SAMPLES fresh-interpreter imports are spread
    evenly over the same time, between steps.
    """
    start = time.perf_counter()
    steps = 0
    while True:
        elapsed = time.perf_counter() - start
        while run is not None and len(run.setup) < SETUP_SAMPLES \
                and elapsed >= len(run.setup) * seconds / SETUP_SAMPLES:
            run.setup.append(setup_sample())
            elapsed = time.perf_counter() - start
        if steps >= MIN_TIMED_PASSES and elapsed >= seconds:
            return
        step()
        steps += 1


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    passes: list[list[float]] = []
    paced(seconds, lambda: passes.append(run.timed_pass()), run)
    latency = median_times(passes)
    n = len(latency)
    metrics = {
        "jobs_per_s": (n / sum(latency), "1/s"),
        "job_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "job_p90_ms": (percentile(latency, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(run.setup), "s"),
        "job_peak_heap_mb": (statistics.mean(run.peaks) / 2**20, "MiB"),
    }
    notes = [
        f"{n} jobs x {len(passes)} timed passes; job latency = median of {len(passes)}",
        f"job_p90_ms has {n - math.ceil(0.9 * n)} of {n} samples above it",
        f"setup_s is the median of {len(run.setup)} fresh-interpreter imports",
        f"unscaled jobs_per_s {len(passes) * n / run.raw_seconds}",
    ]
    return metrics, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    tracers: list[Tracer] = []

    def pair() -> None:
        plain.append(run.timed_pass())
        tracer = Tracer()
        with tracer.installed():
            traced.append(run.timed_pass(tracer))
        tracers.append(tracer)

    paced(seconds, pair)
    first = tracers[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in span_names():
        metrics[f"{name}.calls"] = (first.calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(t.self_s[name] for t in tracers), "s")
    for name in WORK_COUNTS:
        metrics[name] = (first.counts[name], "count")
    extends = first.calls["hadamard.extend_rowspace"]
    grown = first.counts["hadamard.extend_rowspace.grown"]
    metrics["hadamard.extend_rowspace.grow_ratio"] = (grown / extends if extends else 0.0, "ratio")
    metrics["trace_overhead_ratio"] = (
        sum(median_times(traced)) / sum(median_times(plain)), "ratio"
    )
    notes = [f"{len(run.jobs)} jobs x {len(traced)} plain/traced pass pairs"]
    if any((t.calls, t.counts) != (first.calls, first.counts) for t in tracers[1:]):
        notes.append("warning: counts differ between traced passes")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    setup_sample()  # the first import compiles bytecode; not a setup sample
    run = Run(cli, WORKLOADS[args.workload](args.seed))
    run.check_pass()
    gc.freeze()  # inputs and the harness stay out of every timed collection
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(run, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    print(f"host speed: median calibration {statistics.median(run.calibrations) * 1e6:.1f} us, "
          f"reference {CALIBRATION_REFERENCE_S * 1e6:.1f} us; "
          f"times scaled by {run.scaled_seconds / run.raw_seconds:.4f} overall")
    for failure in run.failures:
        print(f"FAIL {failure}")
    print(f"fail_ratio {len(run.failures) / run.attempted} "
          f"({len(run.failures)} of {run.attempted} jobs run)")
    print(f"output sha256 {run.digest.hexdigest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
