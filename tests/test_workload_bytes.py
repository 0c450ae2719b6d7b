"""The four benchmark workloads write the bytes they always wrote.

`clibench/run.py` prints `output sha256`, the digest of every job's
f"{rc}\n{stdout}" in job order. The CLI contract keeps stdout byte for
byte, so these tests run every job of each workload through `cli.main` in
process, at seed 1 and at the held-out seed 2027, and compare that digest
with the one pinned here. Seed 1's digests are those of
`clibench/baseline.json`. clibench is read without being changed.
"""

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from hadamix import cli

CLIBENCH = Path(__file__).resolve().parents[1] / "clibench"

DIGESTS = {
    ("certify", 1): "88562d8475252ddf7bd25d8629d28a57ef76c65e712377390f038403f40b0543",
    ("mixture", 1): "e2e6886e74cdc803a20ee48e7b149d319f1efcfad7d97e78321f781b8663bfc3",
    ("nae", 1): "c3c116fd4325b95cb388cbfb251193eae4095efa8303e70c3fedaa43bee36f4e",
    ("subspace", 1): "4ae7b52b028f446e93eabd7e979b69dbccd2f7d7dfaa9a9b4796e0d66399e32b",
    ("certify", 2027): "ce6cc6037f7d2a9c349a8457223ed280628d2b09a062263e1b128bc9e9d0290b",
    ("mixture", 2027): "133630429c88b585ab3b42557f3a588e723756b2016114d2c8d84cf2602c8d7d",
    ("nae", 2027): "b811301243fd791bf8874c73967a59ba67454c352ed3cbb79dbb90edc68114b4",
    ("subspace", 2027): "cf870712952bafb72a4cf7e0f5506af527780f1c2eb58e1ea1df461cf508b488",
}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(CLIBENCH))  # workloads.py imports oracle.py by name
        spec = importlib.util.spec_from_file_location(
            "clibench_workloads", CLIBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # @dataclass looks its module up
        spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload, seed", list(DIGESTS), ids=str)
def test_every_workload_writes_its_pinned_bytes(workloads, workload, seed):
    digest = hashlib.sha256()
    for job in workloads[workload](seed):
        stdout = io.StringIO()
        rc = cli.main(list(job.argv), io.StringIO(job.stdin), stdout, io.StringIO())
        digest.update(f"{rc}\n{stdout.getvalue()}".encode())
    assert digest.hexdigest() == DIGESTS[workload, seed]
