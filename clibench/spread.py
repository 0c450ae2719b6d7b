"""Run-to-run spread of the metrics over several seeds, for any workloads.

    python3 clibench/spread.py --workload certify,mixture,nae,subspace --seeds 1-10 --seconds 12

Runs run.py once per workload and seed, in a child process each, and prints
for every metric of every workload, by name and unit, the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median. With --json FILE the summaries are also written as
JSON, keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON result line of one run.py child."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", default=None, metavar="FILE")
    args = parser.parse_args()

    report = {}
    for workload in args.workload.split(","):
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            results.append(result)
        summary = summarise(results)
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"Q1 {s['q1']:.6g}, Q3 {s['q3']:.6g}, spread {s['spread']:.4f}", flush=True)
        report[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                            "failed": sum(r["failed"] for r in results), "metrics": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
