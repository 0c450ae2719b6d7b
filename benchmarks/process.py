"""Time whole `python -m hadamix.cli` processes of two checkouts, alternating.

    python3 benchmarks/process.py PARENT_SRC CHANGE_SRC

The user this models runs one hadamix process per matrix, so the time that
counts is the whole process: interpreter start, `import hadamix.cli` and
one small job. For each command of COMMANDS, on its small fixed document,
this runs ROUNDS processes per side, each with PYTHONPATH set to that
side's `src` directory, and switches which side goes first every round, as
`compare.py` does. Per command it reports each side's median wall time,
the spread of the parent's runs (the distance between their quartiles),
how many rounds the change was faster, and whether every process printed
the same stdout with the same exit code; mismatches are listed first and
make the exit status 1. The summary is printed and written to
BENCH_process_<n>.json in the current directory, n being the first unused
number, with the Python version, whether bytecode writing is disabled
(then every process compiles hadamix afresh) and whether each side's
`__pycache__` existed before the runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import count
from pathlib import Path

from compare import SIDES, schedule

# Runs per side and command. One process takes 80-200 ms; on a shared host
# its time drifts by up to 20-30 ms over a few seconds, on both sides alike.
ROUNDS = 15
MATRIX = '{"rows": 3, "cols": 3, "data": [[1, 2, 3], [1, "1/2", 0], [2, 2, "1/3"]]}'
# (argv, stdin) of each timed command
COMMANDS = {
    "rank": (["rank"], MATRIX),
    "nae-check": (["nae-check"], MATRIX),
    "moments": (["moments"], '{"m": {"rows": 2, "cols": 2, "data": [["1/4", "3/4"],'
                             ' ["1/3", "1"]]}, "pi": ["1/3", "2/3"]}'),
    "blocks": (["blocks"], '{"v": [3, "1/2", 3, 0, "1/2"]}'),
}


def run_process(src: Path, argv: list[str], text: str, cwd: str) -> dict:
    """Wall seconds, exit code and stdout of one `python -m hadamix.cli` process."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "hadamix.cli", *argv],
                          input=text.encode(), capture_output=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": done.returncode, "stdout": done.stdout.decode()}


def measure(srcs: dict[str, Path], commands: dict[str, tuple[list[str], str]],
            rounds: int) -> dict[str, dict[str, list[dict]]]:
    """runs[side][command]: that side's processes of the command, round by round."""
    runs: dict[str, dict[str, list[dict]]] = {side: {name: [] for name in commands}
                                              for side in SIDES}
    with tempfile.TemporaryDirectory() as cwd:  # no hadamix on `-m`'s sys.path[0]
        for r, sides in enumerate(schedule(rounds), 1):
            print(f"round {r}/{rounds}: {' then '.join(sides)}", file=sys.stderr, flush=True)
            for name, (argv, text) in commands.items():
                for side in sides:
                    runs[side][name].append(run_process(srcs[side], argv, text, cwd))
    return runs


def _spread(values: list[float]) -> float:
    """The distance between the quartiles; a single run has none."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: dict[str, dict[str, list[dict]]]) -> list[dict]:
    """One row per command, in COMMANDS order with output mismatches first."""
    rows = []
    for name in runs["parent"]:
        ours, theirs = runs["parent"][name], runs["change"][name]
        p = [run["seconds"] for run in ours]
        c = [run["seconds"] for run in theirs]
        rows.append({
            "command": name,
            "parent_median_s": statistics.median(p),
            "change_median_s": statistics.median(c),
            "parent_iqr_s": _spread(p),
            "change_wins": sum(b < a for a, b in zip(p, c)),
            "rounds": len(p),
            "outputs_match": len({(run["code"], run["stdout"]) for run in ours + theirs}) == 1,
        })
    return sorted(rows, key=lambda row: row["outputs_match"])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: process.py PARENT_SRC CHANGE_SRC")
    srcs = dict(zip(SIDES, (Path(arg).resolve() for arg in argv)))
    pycache = {side: (src / "hadamix" / "__pycache__").is_dir() for side, src in srcs.items()}
    rows = summarize(measure(srcs, COMMANDS, ROUNDS))
    for row in rows:
        print(f"{row['command']:10}"
              f" {row['parent_median_s'] * 1e3:8.1f} -> {row['change_median_s'] * 1e3:8.1f} ms"
              f"  iqr {row['parent_iqr_s'] * 1e3:6.1f}"
              f"  wins {row['change_wins']}/{row['rounds']}"
              f"  {'same outputs' if row['outputs_match'] else 'OUTPUTS DIFFER'}")
    path = next(Path(f"BENCH_process_{n}.json") for n in count(1)
                if not Path(f"BENCH_process_{n}.json").exists())
    path.write_text(json.dumps({
        "python": sys.version.split()[0],
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "pycache_existed": pycache,
        "rounds": ROUNDS,
        "src": {side: str(src) for side, src in srcs.items()},
        "rows": rows,
    }, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(row["outputs_match"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
