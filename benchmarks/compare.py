"""Compare two checkouts on the kernel ladder by alternating runs.

    python3 benchmarks/compare.py PARENT_SRC CHANGE_SRC

Runs `benchmarks/ladder.py` ROUNDS times for each side, each run in a
fresh interpreter whose PYTHONPATH is that side's `src` directory, and
switches which side goes first every round, so that a drift in host speed
falls on both sides alike. For each (case, kernel) it reports each side's
median scaled time, the spread of the parent's runs (the distance between
their quartiles), how many rounds the change was faster, whether the
difference of the medians exceeds that spread ("unresolved" when it does
not: such a row shows no change either way, whatever its wins), and whether
every run gave the same answer digest; mismatches are listed first. The summary
is printed and written to BENCH_compare_<n>.json in the current directory,
n being the first unused number. Both sides run this checkout's ladder, so
its cases must build against both.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from itertools import count
from pathlib import Path

LADDER = Path(__file__).resolve().with_name("ladder.py")
# Runs per side. One ladder run takes about a minute, and the scaled times
# of one case spread 20-50% between runs, so one pair resolves little.
ROUNDS = 4
SIDES = ("parent", "change")


def schedule(rounds: int) -> list[tuple[str, str]]:
    """The order of the two sides in each round: the parent first in even
    rounds, the change first in odd ones."""
    return [SIDES if r % 2 == 0 else SIDES[::-1] for r in range(rounds)]


def timing_row(p: list[float], c: list[float]) -> dict:
    """The timing fields of a summary row from the parent's and the change's
    times, round by round: each side's median, the parent's spread (the
    distance between its quartiles; a single run has none), whether the
    medians differ by more than that spread, and the rounds the change won."""
    spread = 0.0
    if len(p) > 1:
        q1, _, q3 = statistics.quantiles(p, n=4)
        spread = q3 - q1
    parent_median, change_median = statistics.median(p), statistics.median(c)
    return {
        "parent_median_s": parent_median,
        "change_median_s": change_median,
        "parent_iqr_s": spread,
        "resolved": abs(change_median - parent_median) > spread,
        "change_wins": sum(b < a for a, b in zip(p, c)),
        "rounds": len(p),
    }


def run_ladder(src: Path) -> list[dict]:
    """The results of one ladder run on the package in `src`."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, str(LADDER)], cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL,
                       env={**os.environ, "PYTHONPATH": str(src)})
        return json.loads((Path(tmp) / "BENCH_1.json").read_text())["results"]


def summarize(parent: list[list[dict]], change: list[list[dict]]) -> list[dict]:
    """One row per (case, kernel) that every run reports, in the parent's
    order with answer mismatches first; run i of each side is round i."""
    def by_key(run: list[dict]) -> dict[tuple[str, str], dict]:
        return {(r["case"], r["kernel"]): r for r in run}

    parent_runs, change_runs = list(map(by_key, parent)), list(map(by_key, change))
    keys = [key for key in parent_runs[0]
            if all(key in run for run in parent_runs + change_runs)]
    rows = []
    for case, kernel in keys:
        ours = [run[case, kernel] for run in parent_runs]
        theirs = [run[case, kernel] for run in change_runs]
        rows.append({
            "case": case,
            "kernel": kernel,
            **timing_row([r["scaled_s"] for r in ours], [r["scaled_s"] for r in theirs]),
            "answers_match": len({r["answer"] for r in ours + theirs}) == 1,
        })
    return sorted(rows, key=lambda row: row["answers_match"])


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit("usage: compare.py PARENT_SRC CHANGE_SRC")
    srcs = dict(zip(SIDES, (Path(arg).resolve() for arg in argv)))
    runs: dict[str, list[list[dict]]] = {side: [] for side in SIDES}
    order = schedule(ROUNDS)
    for r, sides in enumerate(order, 1):
        for side in sides:
            print(f"round {r}/{ROUNDS}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_ladder(srcs[side]))
    rows = summarize(runs["parent"], runs["change"])
    for row in rows:
        print(f"{row['case']:34} {row['kernel']:28}"
              f" {row['parent_median_s'] * 1e3:9.3f} -> {row['change_median_s'] * 1e3:9.3f} ms"
              f"  iqr {row['parent_iqr_s'] * 1e3:7.3f}"
              f"  wins {row['change_wins']}/{row['rounds']}"
              f"  {'resolved' if row['resolved'] else 'unresolved'}"
              f"  {'same answers' if row['answers_match'] else 'ANSWERS DIFFER'}")
    path = next(Path(f"BENCH_compare_{n}.json") for n in count(1)
                if not Path(f"BENCH_compare_{n}.json").exists())
    path.write_text(json.dumps({
        "python": sys.version.split()[0],
        "rounds": ROUNDS,
        "order": order,
        "src": {side: str(src) for side, src in srcs.items()},
        "rows": rows,
    }, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
