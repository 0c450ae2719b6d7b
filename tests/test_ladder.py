"""The kernel ladder must keep building against the package's API.

`benchmarks/ladder.py` is run by hand, not by the tests, so a renamed or
moved function would break it unseen. These tests load it as a file (as
`tests/test_benchmark_contract.py` loads the benchmark tracer), which
builds every case, and resolve every kernel the cases name. The
whole-process timer `benchmarks/process.py` runs one process per side.
The tests time nothing.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hadamix
from hadamix import examples

LADDER = Path(__file__).resolve().parents[1] / "benchmarks" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("benchmarks_ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_builds_and_names_known_kernels(ladder):
    names = [name for name, _, _ in ladder.CASES]
    assert len(set(names)) == len(names)
    for name, _, kernels in ladder.CASES:
        assert kernels, name
        for kernel in kernels:
            assert isinstance(kernel, int) or callable(ladder.KERNELS[kernel]), (name, kernel)


def test_every_kernel_is_named_by_some_case(ladder):
    named = {kernel for _, _, kernels in ladder.CASES for kernel in kernels}
    assert set(ladder.KERNELS) <= named


def test_the_families_match_gen_without_importing_it(ladder):
    # compare.py runs this ladder against checkouts that have no
    # hadamix.examples, so the ladder builds the families itself
    row = ladder.distinct_row(5, 6)
    for built, generated in [
        (ladder.hamming(4), examples.gen_hamming(4)),
        (ladder.stairstep(6), examples.gen_stairstep(6)),
        (ladder.vandermonde(5, 3, None), examples.gen_vandermonde(5, 3, None)),
        (ladder.vandermonde(6, 12, row), examples.gen_vandermonde(6, 12, row)),
    ]:
        assert (built, repr(built)) == (generated, repr(generated))
    load = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('ladder', {str(LADDER)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print('hadamix.examples' in sys.modules)")
    src = str(Path(hadamix.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", load], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"False\n", b"")


def test_each_cli_case_answers_with_one_json_document(ladder):
    cases = [x for _, x, kernels in ladder.CASES if "cli.main" in kernels]
    assert [argv[0] for argv, _ in cases] == [
        "nae-check", "eps", "project", "project", "invariant", "moments", "recover-pi",
        "hadext", "hadext", "hadext"]
    for x in cases:
        stdout = ladder.KERNELS["cli.main"](x)
        assert stdout.endswith("\n") and "error" not in json.loads(stdout), x


COMPARE = LADDER.with_name("compare.py")


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("benchmarks_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_alternates_which_side_runs_first(compare):
    order = compare.schedule(compare.ROUNDS)
    assert len(order) == compare.ROUNDS >= 2
    assert order[:2] == [("parent", "change"), ("change", "parent")]
    assert all(a == b[::-1] for a, b in zip(order, order[1:]))


def _run(times, answers=("a", "b")):
    return [{"case": "c", "kernel": k, "scaled_s": t, "answer": a}
            for k, t, a in zip(("x", "y"), times, answers)]


def test_compare_summarizes_rounds_and_lists_mismatches_first(compare):
    parent = [_run((1.0, 5.0)), _run((2.0, 5.0)), _run((3.0, 5.0)), _run((4.0, 5.0))]
    change = [_run((0.5, 5.0)), _run((2.5, 4.0)), _run((1.0, 6.0), ("a", "B")),
              _run((3.0, 4.0))]
    y_row, x_row = compare.summarize(parent, change)
    # 3 wins of 4, but the medians differ by less than the parent's spread
    assert x_row == {"case": "c", "kernel": "x", "parent_median_s": 2.5,
                     "change_median_s": 1.75, "parent_iqr_s": 2.5, "resolved": False,
                     "change_wins": 3, "rounds": 4, "answers_match": True}
    # ties win for neither side; one differing answer marks the row
    assert (y_row["kernel"], y_row["change_wins"], y_row["parent_iqr_s"],
            y_row["answers_match"]) == ("y", 2, 0.0, False)
    # the medians 5.0 and 4.5 differ by more than the parent's spread of 0
    assert (y_row["change_median_s"], y_row["resolved"]) == (4.5, True)
    # a difference equal to the spread is not resolved
    change[1] = _run((2.5, 5.0))
    assert [row["resolved"] for row in compare.summarize(parent, change)] == [False, False]
    # a row missing from any run is left out
    change[3] = change[3][:1]
    assert [row["kernel"] for row in compare.summarize(parent, change)] == ["x"]


@pytest.fixture
def process(monkeypatch):
    monkeypatch.syspath_prepend(str(LADDER.parent))  # process.py imports compare
    spec = importlib.util.spec_from_file_location("benchmarks_process",
                                                  LADDER.with_name("process.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_process_timer_runs_each_side_and_checks_their_outputs(process):
    # one process per side on one command, this checkout's src as both sides
    assert list(process.COMMANDS) == ["rank", "nae-check", "moments", "blocks"]
    src = Path(hadamix.__file__).resolve().parents[1]
    runs = process.measure({"parent": src, "change": src},
                           {"rank": process.COMMANDS["rank"]}, 1)
    (row,) = process.summarize(runs)
    timing = {"parent_median_s", "change_median_s", "parent_iqr_s", "resolved", "change_wins",
              "rounds"}
    assert set(row) == {"command", "outputs_match", *timing, *(f"import_{key}" for key in timing),
                        *(f"main_{key}" for key in timing)}
    assert (row["command"], row["rounds"], row["parent_iqr_s"], row["outputs_match"]) == (
        "rank", 1, 0.0, True)
    (run,) = runs["parent"]["rank"]
    assert run["code"] == 0 and run["stdout"] == '{"full": true, "rank": 3}\n'
    # the import and the first call, timed inside the process, fit in its time
    assert 0 < run["import_s"] and 0 < run["main_s"]
    assert run["import_s"] + run["main_s"] < run["seconds"]
    assert row["import_parent_median_s"] == run["import_s"]
    runs["change"]["rank"][0]["stdout"] += " "
    assert process.summarize(runs)[0]["outputs_match"] is False


def test_process_timer_marks_a_win_inside_the_parents_spread_unresolved(process):
    def side(seconds):
        return {"rank": [{"seconds": s, "import_s": s / 10, "main_s": s / 100, "code": 0,
                          "stdout": "{}"} for s in seconds]}

    runs = {"parent": side([1.0, 2.0, 3.0, 4.0]), "change": side([0.9, 1.9, 2.9, 3.9])}
    (row,) = process.summarize(runs)
    # 4 wins of 4, but the medians 2.5 and 2.4 lie within the spread of 2.5
    assert (row["change_wins"], row["parent_iqr_s"], row["resolved"]) == (4, 2.5, False)
    assert (row["main_change_wins"], row["main_resolved"]) == (4, False)
    # the same medians are resolved against a parent without spread
    runs["parent"] = side([2.5] * 4)
    assert process.summarize(runs)[0]["resolved"] is True
