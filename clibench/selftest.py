"""Self-test of the traced run: wrapper coverage and count determinism.

    python3 clibench/selftest.py

Wrapper coverage: while a Tracer is installed, no hadamix module or class
may still hold an unwrapped target function under any name, and once it
is removed every original is back. The held-out seed must give every
workload the same job sizes as the tuning seed. Then two traced runs per
workload, each in its own process, must report identical counts, and the call counts
must show each layer working only where the workload says it does.
"""

from __future__ import annotations

import sys

from run import load_cli
from spread import run_once
from tracer import TARGETS, Tracer, resolve
from workloads import WORKLOADS as JOB_LISTS

# The benchmark was tuned on seeds 1-10; the held-out seed must give the
# job sizes of TUNING_SEED.
TUNING_SEED = 1
HELD_OUT_SEED = 2027

# metric -> workloads on which it must be above zero; zero everywhere else
CALL_MATRIX = {
    "exact_core.span.calls": {"certify", "subspace", "mixture"},
    "nae.eps_bar.calls": {"nae"},
    "mixture.moment_map.calls": {"mixture"},
}


def _targets() -> list[object]:
    return [resolve(module, path)[3] for module, path, _, _ in TARGETS]


def _bindings(modules: list) -> list[object]:
    values = []
    for mod in modules:
        for value in vars(mod).values():
            values.append(value)
            if isinstance(value, type) and value.__module__.startswith("hadamix"):
                values.extend(
                    v.__func__ if isinstance(v, classmethod) else v
                    for v in vars(value).values()
                )
    return values


def check_coverage() -> list[str]:
    load_cli()
    modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("hadamix.")}
    originals = _targets()
    errors = []
    with Tracer().installed():
        bound = _bindings(list(modules.values()) + [sys.modules["hadamix"]])
        for (module, path, _, _), fn in zip(TARGETS, originals):
            if any(value is fn for value in bound):
                errors.append(f"{module}.{path} is still reachable unwrapped")
    if _targets() != originals:
        errors.append("originals were not restored after tracing")
    return errors


def sizes(jobs) -> list[tuple]:
    """Command and input shape of every job, in order."""
    out = []
    for job in jobs:
        rows = job.ref.get("m") or job.ref.get("basis") or []
        out.append((job.argv[0], job.kind, len(rows), len(rows[0]) if rows else 0,
                    len(job.ref.get("v", ()))))
    return out


def main() -> int:
    errors = check_coverage()
    print(f"wrapper coverage: {len(TARGETS)} targets, {len(errors)} errors")
    for workload, make in JOB_LISTS.items():
        same = sizes(make(TUNING_SEED)) == sizes(make(HELD_OUT_SEED))
        print(f"{workload}: seed {HELD_OUT_SEED} gives the job sizes of seed {TUNING_SEED}: {same}")
        if not same:
            errors.append(f"{workload}: seed {HELD_OUT_SEED} changes the job sizes")
    for workload in JOB_LISTS:
        first, second = (run_once(workload, TUNING_SEED, 0, trace=1) for _ in range(2))
        for result in (first, second):
            if not result["correct"]:
                errors.append(f"{workload}: {result['failed']} jobs failed the oracle")
        counts = {name: m["value"] for name, m in first["metrics"].items() if m["unit"] == "count"}
        again = {name: m["value"] for name, m in second["metrics"].items() if m["unit"] == "count"}
        differ = sorted(name for name in counts if counts[name] != again.get(name))
        if differ:
            errors.append(f"{workload}: counts differ between runs: {', '.join(differ)}")
        for name, active in CALL_MATRIX.items():
            value = counts[name]
            if (value > 0) != (workload in active):
                want = "above 0" if workload in active else "0"
                errors.append(f"{workload}: {name} = {value}, expected {want}")
        print(f"{workload}: {len(counts)} counts identical across two runs: {not differ}")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
