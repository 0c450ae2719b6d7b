"""Replay the frozen CLI corpus byte for byte.

`golden/cli_corpus.json` holds CLI invocations with the exact stdout and
exit code the reference implementation produced for them. It is the
behaviour gate for refactors of the elimination kernel and the folds: a
change that alters any of these bytes changes the CLI contract. Never
regenerate the corpus to make a change pass.
"""

import io
import json
from pathlib import Path

import pytest

from hadamix.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
def test_golden_cli_output(case):
    out, err = io.StringIO(), io.StringIO()
    rc = main(list(case["argv"]), io.StringIO(case["stdin"]), out, err)
    assert rc == case["exit"], err.getvalue()
    assert out.getvalue() == case["stdout"]
