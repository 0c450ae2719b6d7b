"""The kernel ladder must keep building against the package's API.

`benchmarks/ladder.py` is run by hand, not by the tests, so a renamed or
moved function would break it unseen. These tests load it as a file (as
`tests/test_benchmark_contract.py` loads the benchmark tracer), which
builds every case, and resolve every kernel the cases name; they time
nothing.
"""

import importlib.util
from pathlib import Path

import pytest

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
    assert x_row == {"case": "c", "kernel": "x", "parent_median_s": 2.5,
                     "change_median_s": 1.75, "parent_iqr_s": 2.5,
                     "change_wins": 3, "rounds": 4, "answers_match": True}
    # ties win for neither side; one differing answer marks the row
    assert (y_row["kernel"], y_row["change_wins"], y_row["parent_iqr_s"],
            y_row["answers_match"]) == ("y", 2, 0.0, False)
    # a row missing from any run is left out
    change[3] = change[3][:1]
    assert [row["kernel"] for row in compare.summarize(parent, change)] == ["x"]
