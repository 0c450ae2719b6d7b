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
