import argparse
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    diagonal_matrix,
    extension_table_reference,
    forward_moments_reference,
    lagrange_projection_reference,
    recover_pi_reference,
)
from hadamix import (
    DomainError,
    InputFormatError,
    InternalInvariantError,
    MixtureParams,
    MomentVector,
    NotFullRank,
    RMatrix,
    blocks_of,
    cli,
    exact_core,
    examples,
    greedy_min_rows,
    hadamard,
    lagrange_projection,
    mixture,
    moment_map,
    nae,
    partition_algebra,
    recover_pi,
)
from hadamix.cli import main
from hadamix.exact_core import (
    SubsetIndex,
    matrix_from_json,
    matrix_to_json,
    rational_pair,
    rational_to_json,
)


def run_cli(argv, stdin_text=""):
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def run_json(argv, stdin_text=""):
    code, out, err = run_cli(argv, stdin_text)
    assert code == 0, (code, out, err)
    return json.loads(out)


DUP_COLS = '{"rows":2,"cols":3,"data":[[1,1,2],[1,1,3]]}'


# ---------------------------------------------------------------------------
# generators


def test_gen_vandermonde_golden():
    code, out, _ = run_cli(["gen", "vandermonde", "--k", "3", "--copies", "2", "--row", "0,1,2"])
    assert code == 0
    assert out == '{"cols": 3, "data": [[0, 1, 2], [0, 1, 2]], "rows": 2}\n'


def test_gen_vandermonde_defaults():
    data = run_json(["gen", "vandermonde", "--k", "4"])
    assert data == {"cols": 4, "data": [[0, 1, 2, 3]] * 3, "rows": 3}


def test_gen_hamming_golden():
    code, out, _ = run_cli(["gen", "hamming", "--l", "2"])
    assert code == 0
    assert out == '{"cols": 4, "data": [[1, -1, 1, -1], [1, 1, -1, -1]], "rows": 2}\n'


def test_gen_stairstep_golden():
    code, out, _ = run_cli(["gen", "stairstep", "--k", "3"])
    assert code == 0
    assert out == '{"cols": 3, "data": [["1/2", 1, 1], ["1/2", "1/2", 1]], "rows": 2}\n'


def test_gen_families_hold_one_object_per_distinct_entry():
    # l * 2^l entries at --l 20 would otherwise be that many Fractions
    for matrix, distinct in [(examples.gen_hamming(5), 2), (examples.gen_stairstep(6), 2)]:
        entries = [x for row in matrix.entries for x in row]
        assert len(set(entries)) == len(set(map(id, entries))) == distinct


@pytest.mark.parametrize("text", [
    "0", "-0", "007", "+3", " 3", "1_0", "\u0663", "1/1", "3/", "", "-", "--3",
    "12", "-45", pytest.param("9" * 5000, id="past-int-digit-limit"),
])
def test_integer_flags_read_the_rational_grammar_without_a_slash(text):
    # integer(s) == int(s) exactly where rational_pair reads an integer from
    # an s with no '/'; everywhere else both refuse with a ValueError
    try:
        num, _ = rational_pair(text)
        reads_integer = "/" not in text
    except InputFormatError:
        reads_integer = False
    if reads_integer:
        assert cli.integer(text) == int(text) == num
    else:
        with pytest.raises(ValueError):
            cli.integer(text)


def test_gen_rejects_bad_parameters():
    for row in ["0,1,1", "1,2/2,3"]:
        code, _, err = run_cli(["gen", "vandermonde", "--k", "3", "--row", row])
        assert code == 2 and "distinct" in err, row
    code, _, _ = run_cli(["gen", "hamming", "--l", "0"])
    assert code == 2
    code, _, _ = run_cli(["gen", "hamming"])
    assert code == 2
    # integer flags take ASCII -?[0-9]+ only; "1_0" used to build k = 10
    for argv in [
        ["gen", "stairstep", "--k", "1_0"],
        ["gen", "vandermonde", "--k", "+3"],
        ["gen", "vandermonde", "--k", "3", "--copies", "\u0662"],
        ["gen", "hamming", "--l", " 2"],
        ["gen", "hamming", "--l", "2.0"],
        ["gen", "hamming", "--l", "1" * 5000],
        ["minrows", "--exhaustive", "--size", "2 "],
        ["project", "--block", "1_0"],
    ]:
        code, out, err = run_cli(argv, '{"v":[2,1]}')
        assert code == 2 and out == "" and "invalid integer value" in err, argv
    # negative and zero values keep their own messages
    code, _, err = run_cli(["gen", "vandermonde", "--k", "3", "--copies", "-1"])
    assert code == 2 and "--copies must be nonnegative" in err
    code, _, err = run_cli(["project", "--block", "-1"], '{"v":[2,1]}')
    assert code == 2 and "--block is 1-based" in err
    # no family emits more than `gen hamming --l 20` (2^20 columns, 20 * 2^20
    # entries); larger requests fail before anything is built
    run_cli(["gen", "hamming", "--l", "1"])  # the parser's own allocations
    for argv in [
        ["gen", "vandermonde", "--k", "3", "--copies", "100000000"],
        ["gen", "vandermonde", "--k", "1000000000", "--copies", "0"],
        ["gen", "vandermonde", "--k", "1000000000"],
        ["gen", "vandermonde", "--k", "1048577", "--copies", "0"],
        ["gen", "vandermonde", "--k", "1000000000", "--row", "0,1"],
        ["gen", "stairstep", "--k", "4580"],
        ["gen", "stairstep", "--k", "1000000000"],
    ]:
        tracemalloc.start()
        try:
            code, out, err = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "", argv
        assert "output size guard: at most 1048576 columns and 20971520 entries" in err, argv
        assert peak < 64 * 1024, (argv, peak)


def test_gen_refuses_flags_of_other_families():
    for argv in [
        ["gen", "hamming", "--l", "2", "--k", "9"],
        ["gen", "stairstep", "--k", "3", "--copies", "5", "--row", "1,2,3"],
        ["gen", "vandermonde", "--k", "2", "--l", "4"],
        ["gen", "--k", "3", "stairstep"],
        ["gen", "vandermonde", "--copies", "2"],
    ]:
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and "usage:" in err, argv


def test_gen_family_usage_errors_show_the_family_usage():
    # the root parser reported these with its own usage line, which lists
    # the thirteen commands and none of the family's flags
    for argv, usage, extras in [
        (["gen", "hamming", "--l", "2", "--k", "9"], "gen hamming [-h] --l L", "--k 9"),
        (["gen", "vandermonde", "--k", "2", "--l", "4"],
         "gen vandermonde [-h] --k K [--copies COPIES] [--row ROW]", "--l 4"),
        (["gen", "stairstep", "--k", "3", "--copies", "5", "--row", "1,2,3"],
         "gen stairstep [-h] --k K", "--copies 5 --row 1,2,3"),
    ]:
        family = " ".join(argv[:2])
        assert run_cli(argv) == (
            2, "", f"usage: hadamix {usage}\n"
                   f"hadamix {family}: error: unrecognized arguments: {extras}\n"), argv


# ---------------------------------------------------------------------------
# pipeline commands


def test_pipe_gen_hadext_rank():
    _, matrix_text, _ = run_cli(["gen", "hamming", "--l", "2"])
    _, extension_text, _ = run_cli(["hadext"], matrix_text)
    extension = json.loads(extension_text)
    assert extension["rows"] == 4
    assert extension["data"][0] == [1, 1, 1, 1]
    code, rank_text, _ = run_cli(["rank"], extension_text)
    assert code == 0
    # rank of the extension of the 4x4 character table itself
    assert json.loads(rank_text)["full"] is True


def test_rank_golden():
    _, matrix_text, _ = run_cli(["gen", "hamming", "--l", "2"])
    code, out, _ = run_cli(["rank"], matrix_text)
    assert code == 0
    assert out == '{"full": true, "rank": 4}\n'


def test_minrows_greedy_and_exhaustive():
    matrix = '{"rows":3,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2]]}'
    assert run_json(["minrows"], matrix) == {"greedy": [1, 2], "rank": 3}
    data = run_json(["minrows", "--exhaustive"], matrix)
    assert data["exhaustive"] == [[1, 2], [1, 3], [2, 3]]
    data = run_json(["minrows", "--exhaustive", "--size", "3"], matrix)
    assert data["exhaustive"] == [[1, 2, 3]]


def test_minrows_size_requires_exhaustive():
    matrix = '{"rows":3,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2]]}'
    for stdin_text in [matrix, "not json"]:
        code, out, err = run_cli(["minrows", "--size", "2"], stdin_text)
        assert (code, out) == (2, "")
        assert err == "hadamix minrows: --size requires --exhaustive\n"


def test_minrows_not_full_rank():
    assert run_json(["minrows"], DUP_COLS) == {"greedy": None, "rank": 2}


def test_eps_command():
    stairstep = '{"rows":2,"cols":3,"data":[["1/2",1,1],["1/2","1/2",1]]}'
    assert run_json(["eps", "--cols", "1,3"], stairstep) == {
        "cols": [1, 3],
        "eps": 0,
        "nae_rows": [1, 2],
    }
    code, _, _ = run_cli(["eps", "--cols", "9"], stairstep)
    assert code == 2
    # each part is ASCII -?[0-9]+: "1_0,\u0662, +3" was read as columns 10, 2, 3
    ten = '{"rows":1,"cols":10,"data":[[1,2,3,4,5,6,7,8,9,10]]}'
    for cols in ["1_0,\u0662, +3", "1_0", "\u0662", "+3", " 3", "1,,3", "1,3,", "", "1" * 5000]:
        code, out, err = run_cli(["eps", "--cols", cols], ten)
        assert code == 2 and out == "" and "comma-separated integers" in err, cols
    for cols in ["0", "-2", "11"]:
        code, out, err = run_cli(["eps", "--cols", cols], ten)
        assert code == 2 and out == "" and "indices must be in 1..10" in err, cols


def test_nae_check_golden():
    code, out, _ = run_cli(["nae-check"], DUP_COLS)
    assert code == 0
    assert json.loads(out) == {
        "eps_bar": -2,
        "nae_condition": False,
        "nae_rows": [],
        "witness": [1, 2],
    }


def test_nae_restrict_command():
    matrix = '{"rows":3,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2]]}'
    assert run_json(["nae-restrict"], matrix) == {"rows": [1, 2]}
    data = run_json(["nae-restrict", "--exhaustive"], matrix)
    assert data["exhaustive"] == [[1, 2], [1, 3], [2, 3]]


def test_blocks_project_invariant():
    assert run_json(["blocks"], '{"v":[2,1,2,1]}') == {
        "blocks": [[1, 3], [2, 4]],
        "values": [2, 1],
    }
    projector = run_json(["project", "--block", "2"], '{"v":[2,1,2,1]}')
    assert projector["data"] == [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    verdict = run_json(
        ["invariant"],
        '{"basis":{"rows":2,"cols":4,"data":[[1,0,0,0],[0,1,0,1]]},"v":[2,1,2,1]}',
    )
    assert verdict == {"invariant": True, "respects": True}
    verdict = run_json(
        ["invariant"],
        '{"basis":{"rows":1,"cols":4,"data":[[1,1,0,0]]},"v":[2,1,2,1]}',
    )
    assert verdict == {"invariant": False, "respects": False}


def test_invariant_builds_no_partition(monkeypatch):
    def refuse(*args):
        raise AssertionError("a partition was built")

    for module in (cli, partition_algebra):
        monkeypatch.setattr(module, "blocks_of", refuse)
    monkeypatch.setattr(partition_algebra, "Partition", refuse)
    basis = '{"rows": 2, "cols": 4, "data": [[1, 0, 0, 0], [0, 1, 0, 1]]}'
    for v, answer in [('[2, 1, 2, 1]', True), ('["1/2", "2/4", 1, 1]', False)]:
        verdict = run_json(["invariant"], '{"basis": %s, "v": %s}' % (basis, v))
        assert verdict == {"invariant": answer, "respects": answer}


def test_invariant_reports_a_disagreement_as_an_internal_error(monkeypatch):
    real = cli.respects
    monkeypatch.setattr(cli, "respects", lambda u, v: not real(u, v))
    code, out, _ = run_cli(
        ["invariant"], '{"basis":{"rows":1,"cols":4,"data":[[1,1,0,0]]},"v":[2,1,2,1]}'
    )
    assert code == 1
    assert json.loads(out) == {
        "error": "internal invariant violated: invariance and block-respect disagree;"
                 " they are provably equivalent (k = 4, dim = 1)",
        "witness": None,
    }


def test_vectors_key_equal_values_and_refuse_booleans():
    blocks = run_json(["blocks"], '{"v": ["1/2", "2/4", 0, "-0/5", 3, "6/2", 1]}')
    assert blocks == {"blocks": [[5, 6], [7], [1, 2], [3, 4]], "values": [3, 1, "1/2", 0]}
    # entries are parsed once per distinct int or string; `true` == 1 must
    # not be answered from that cache
    basis = '{"rows": 1, "cols": 3, "data": [[1, 0, 0]]}'
    for argv, text in [
        (["blocks"], '{"v": [1, true]}'),
        (["blocks"], '{"v": [true, 1]}'),
        (["project", "--block", "1"], '{"v": [1, 2, true]}'),
        (["invariant"], '{"basis": %s, "v": [1, true, 1]}' % basis),
        (["invariant"], '{"basis": %s, "v": [0, false, 1]}' % basis),
    ]:
        code, out, err = run_cli(argv, text)
        bad = "False" if "false" in text else "True"
        assert (code, out) == (2, ""), (argv, text)
        assert err == f"hadamix {argv[0]}: entry must be an integer or 'a/b' string: {bad}\n"


def _eps_by_walk(data, cols):
    """`eps`'s payload, from the 1-based columns of the rows of `data`."""
    nonconstant = [i + 1 for i, row in enumerate(data)
                   if len({Fraction(row[j - 1]) for j in cols}) > 1]
    return {"cols": cols, "eps": len(nonconstant) - len(cols), "nae_rows": nonconstant}


def test_eps_answers_on_many_rows_and_columns():
    tall = [[i % 3, 2, "4/2"] for i in range(63)]
    wide = [list(range(70)), [5] * 69 + ["1/2"]]
    for data, cols in [(tall, [1, 2]), (tall, [2, 3]), (tall, [1, 2, 3]),
                       (wide, [1, 2, 70]), (wide, [1, 2]), (wide, list(range(1, 71)))]:
        text = json.dumps({"rows": len(data), "cols": len(data[0]), "data": data})
        argv = ["eps", "--cols", ",".join(map(str, cols))]
        assert run_json(argv, text) == _eps_by_walk(data, cols), (len(data), cols)


def test_minrows_answers_on_more_than_62_rows():
    # the certificate is one row of 63, as `rank` already found
    text = json.dumps({"rows": 63, "cols": 2, "data": [[i % 2, 1] for i in range(63)]})
    assert run_cli(["rank"], text) == (0, '{"full": true, "rank": 2}\n', "")
    assert run_cli(["minrows"], text) == (0, '{"greedy": [1], "rank": 2}\n', "")
    assert run_json(["minrows", "--exhaustive", "--size", "1"], text) == {
        "greedy": [1], "rank": 2, "exhaustive": [[i] for i in range(1, 64, 2)]}
    # a certificate may need a row past the 62nd
    data = [[1, 1]] * 70 + [[1, 2]]
    text = json.dumps({"rows": 71, "cols": 2, "data": data})
    assert run_json(["minrows", "--exhaustive", "--size", "1"], text) == {
        "greedy": [71], "rank": 2, "exhaustive": [[71]]}


def test_minrows_exhaustive_walks_a_path_longer_than_the_recursion_limit():
    # 1,099 copies of [1, 1] then [1, 2]: the walk's first path picks every
    # copy before the last row, one level per row; only [1, 2] grows the rank
    n = 1100
    assert n > sys.getrecursionlimit()
    text = json.dumps({"rows": n, "cols": 2, "data": [[1, 1]] * (n - 1) + [[1, 2]]})
    found = run_json(["minrows", "--exhaustive", "--size", str(n - 1)], text)
    assert found["greedy"] == [n] and found["rank"] == 2
    everything = list(range(1, n + 1))
    # ascending masks: dropping a higher copy gives a smaller mask
    assert found["exhaustive"] == [
        everything[:i] + everything[i + 1:] for i in reversed(range(n - 1))]


def test_blocks_and_project_refuse_vectors_past_62_entries():
    # `project` writes k x k entries; the refusal keeps the old bound and text
    for k, block in [(62, 1), (62, 62), (5, 1)]:
        v = json.dumps({"v": list(range(k))})
        assert len(run_json(["blocks"], v)["blocks"]) == k
        projector = run_json(["project", "--block", str(block)], v)
        assert projector["rows"] == projector["cols"] == k
        assert projector["data"][k - block][k - block] == 1
    refusal = '{"error": "ground-set size guard: 0 <= size <= 62 (got 63)", "witness": null}\n'
    for v in [list(range(63)), [1] * 63, list(range(30000))]:
        text = json.dumps({"v": v})
        if len(v) == 63:
            assert run_cli(["blocks"], text) == (1, refusal, "")
            assert run_cli(["project", "--block", "1"], text) == (1, refusal, "")
            assert run_cli(["project", "--block", "64"], text) == (1, refusal, "")
        else:
            code, out, _ = run_cli(["project", "--block", "1"], text)
            assert code == 1 and json.loads(out)["error"].endswith("(got 30000)")


def test_project_block_out_of_range_names_the_typed_index():
    for block, v in [("5", "[2,1]"), ("3", "[2,1]"), ("2", "[7,7,7]")]:
        code, out, err = run_cli(["project", "--block", block], '{"v":%s}' % v)
        blocks = len(set(json.loads(v)))
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "error": f"block index {block} out of range for {blocks} blocks",
            "witness": None,
        }
    code, out, _ = run_cli(["project", "--block", "1"], '{"v":[]}')
    assert code == 1 and json.loads(out)["error"] == "vector must be nonempty"


# zero, signs, "a/b" entries and a denominator of 2^61 - 1
PROJECT_VALUES = [Fraction(x) for x in
                  (0, 1, -1, 5, -3, "7/3", "-2/10007", "1/2305843009213693951")]


def reference_text(m):
    return json.dumps(matrix_to_json(m), sort_keys=True)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.sampled_from(PROJECT_VALUES), min_size=1, max_size=6, unique=True)
       .flatmap(lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=62)))
def test_project_prints_the_projector_as_json_dumps(v):
    document = json.dumps({"v": [rational_to_json(x) for x in v]})
    for i in range(len(blocks_of(v))):
        expected = reference_text(diagonal_matrix(lagrange_projection(v, i))) + "\n"
        assert run_cli(["project", "--block", str(i + 1)], document) == (0, expected, ""), (v, i)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.fractions(max_denominator=2**61 - 1) | st.sampled_from(PROJECT_VALUES),
                max_size=20))
def test_diagonal_text_is_json_dumps_of_any_diagonal(d):
    expected = reference_text(diagonal_matrix(d))
    assert ("".join(exact_core._diagonal_text(d))
            == "".join(exact_core._diagonal_text(tuple(d))) == expected)


def hadext_reference(m):
    """The `hadext` document of m, each entry a Fraction of the full-table
    reference written by rational_to_json."""
    return {"rows": 1 << m.n_rows, "cols": m.n_cols,
            "data": [[rational_to_json(Fraction(x, den)) for x in nums]
                     for nums, den in extension_table_reference(m)]}


def document_of(m):
    """The matrix document of m, each entry written by rational_to_json."""
    return {"rows": m.n_rows, "cols": m.n_cols,
            "data": [[rational_to_json(x) for x in row] for row in m.entries]}


# zeros, integers, and rationals whose denominators cancel (2/3, 3/2)
HADEXT_ENTRIES = st.sampled_from([0, 1, -1, 3, Fraction(2, 3), Fraction(3, 2), Fraction(-5, 6)])
PROBABILITIES = st.sampled_from([0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)])


@st.composite
def streamed_commands(draw):
    """(argv, stdin, reference document) of a `hadext`, `project` or
    `moments` invocation: the three commands whose document main writes
    as it is made."""
    command = draw(st.sampled_from(["hadext", "project", "moments"]))
    if command == "project":
        v = draw(st.lists(st.sampled_from(PROJECT_VALUES), min_size=1, max_size=70))
        i = draw(st.integers(0, len(blocks_of(v)) - 1))
        return (["project", "--block", str(i + 1)],
                json.dumps({"v": [rational_to_json(x) for x in v]}),
                document_of(lagrange_projection_reference(v, i)))
    # 0 to 9 rows, odd counts included; 2^9 moments make two 256-key chunks
    n = draw(st.integers(0, 9 if command == "moments" else 7))
    k = draw(st.integers(0 if command == "hadext" else 1, 5))
    entries = HADEXT_ENTRIES if command == "hadext" else PROBABILITIES
    m = RMatrix.from_rows([[draw(entries) for _ in range(k)] for _ in range(n)], k)
    if command == "hadext":
        return ["hadext"], json.dumps(document_of(m)), hadext_reference(m)
    weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    pi = [Fraction(w, sum(weights)) for w in weights]
    moments = forward_moments_reference(m, pi)
    return (["moments"],
            json.dumps({"m": document_of(m), "pi": [rational_to_json(p) for p in pi]}),
            {"n": n, "moments": {str(mask): rational_to_json(q) for mask, q in moments.items()}})


@settings(deadline=None, max_examples=200)
@given(streamed_commands())
def test_a_streamed_document_is_json_dumps_of_its_reference(command):
    argv, stdin_text, reference = command
    expected = json.dumps(reference, sort_keys=True) + "\n"
    assert run_cli(argv, stdin_text) == (0, expected, "")


def traced_run(argv, stdin_text):
    """(exit code, stdout, peak bytes traced) of one invocation, after an
    untraced one that builds the parsers."""
    run_cli(argv, stdin_text)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(argv, stdin_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, peak


def test_project_allocates_no_k_by_k_structure():
    corpus = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())
    case = next(c for c in corpus if c["name"] == "project/k62-six-blocks")
    code, out, peak = traced_run(case["argv"], case["stdin"])
    assert (code, out) == (case["exit"], case["stdout"])
    # 44 KB on CPython 3.11; a k x k matrix of the projector, 62 tuples of
    # 62 pointers, adds about 33 KB, and peaked at 81 KB
    assert peak < 64 * 1024, peak


def test_project_writes_its_rows_as_they_are_made():
    corpus = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())
    case = next(c for c in corpus if c["name"] == "project/k62-six-blocks")
    code, out, peak = traced_run(case["argv"], case["stdin"])
    assert (code, out) == (case["exit"], case["stdout"])
    # 27 KB on CPython 3.11; the rows joined into one document, and that
    # copied once more with its newline, peaked at 44 KB
    assert peak < 32 * 1024, peak


def test_hadext_writes_its_document_as_it_is_made():
    rng = random.Random(16)
    n, k = 16, 4
    m = RMatrix.from_rows([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
                           for _ in range(n)], k)
    text = json.dumps(document_of(m))
    run_cli(["hadext"], '{"rows": 0, "cols": 0, "data": []}')  # the parser's own allocations
    stdin, stdout = io.StringIO(text), io.StringIO()  # not traced: the input is given
    tracemalloc.start()
    try:
        code = main(["hadext"], stdin, stdout, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = stdout.getvalue()
    assert (code, out) == (0, json.dumps(hadext_reference(m), sort_keys=True) + "\n")
    # 1.7 MiB on CPython 3.11 for 1.37 MiB of output held in stdout; k full
    # tables of 2^n products, and the document joined and copied before
    # its first byte was written, peaked at 8.9 MiB
    assert peak < 2 * len(out), (peak, len(out))


def test_invariant_frees_its_document_before_span():
    rng = random.Random(48)
    k, r = 48, 16
    v = [f"{rng.randint(-3, 3)}/{rng.randint(1, 2)}" for _ in range(k)]
    data = [[f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}" for _ in range(k)] for _ in range(r)]
    document = json.dumps({"basis": {"rows": r, "cols": k, "data": data}, "v": v})
    code, out, peak = traced_run(["invariant"], document)
    assert (code, out) == (0, '{"invariant": false, "respects": false}\n')
    # 84 KB on CPython 3.11; with the parsed document and the Fraction basis
    # alive through span, is_invariant and respects it peaked at 118 KB
    assert peak < 100 * 1024, peak


def test_moments_and_recover_pi_roundtrip():
    payload = '{"m":{"rows":1,"cols":2,"data":[["1/4","3/4"]]},"pi":["1/2","1/2"]}'
    moments = run_json(["moments"], payload)
    assert moments == {"moments": {"0": 1, "1": "1/2"}, "n": 1}
    recover_payload = json.dumps(
        {"m": {"rows": 1, "cols": 2, "data": [["1/4", "3/4"]]}, "moments": moments}
    )
    assert run_json(["recover-pi"], recover_payload) == {"pi": ["1/2", "1/2"]}
    # "00" aliased mask 0 before keys were checked, and which value won
    # depended on the key order
    m = '{"rows":1,"cols":1,"data":[["7/12"]]}'
    for moments in ['{"00": "1/2", "0": 1, "1": "7/12"}', '{"0": 1, "00": "1/2", "1": "7/12"}']:
        payload = '{"m": %s, "moments": {"n": 1, "moments": %s}}' % (m, moments)
        code, out, err = run_cli(["recover-pi"], payload)
        assert code == 2 and out == "" and "'00' is not a bitmask" in err


def test_moment_document_errors_keep_their_order_and_text():
    # key and entry errors in document order, every format error (exit 2)
    # before any domain error (exit 1)
    def recover(moments, n=1):
        payload = json.dumps({"m": {"rows": 1, "cols": 2, "data": [["1/4", "3/4"]]},
                              "moments": {"n": n, "moments": moments}})
        return run_cli(["recover-pi"], payload)

    usage = "hadamix recover-pi: %s\n"
    assert recover({"0": 1, "1": "x", "01": "1/2"}) == (2, "", usage % "not a rational: 'x'")
    assert recover({"0": 1, "01": "1/2", "1": "x"}) == (
        2, "", usage % "moment key '01' is not a bitmask")
    assert recover({"0": "1/2", "1": "x"}) == (2, "", usage % "not a rational: 'x'")
    assert recover({"0": 1, "1": "3/2"}) == (
        1, '{"error": "moment 3/2 for mask 1 is outside [0, 1]", '
           '"witness": {"subset_mask": 1}}\n', "")
    assert recover({"0": 1}) == (
        1, '{"error": "moments must cover all 2 subsets of [1]", "witness": null}\n', "")
    for n in [21, 1000000]:
        for moments in [{"0": 1, "1": "1/2"}, {"0": 1}]:
            tracemalloc.start()
            try:
                got = recover(moments, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == (1, '{"error": "moment guard: 0 <= n <= 20 (got %d)", '
                              '"witness": null}\n' % n, "")
            # refused before any table of 2^n entries (or the integer 2^n)
            assert peak < 64 * 1024, peak


def mixture_document(rng, n, k):
    """{m, pi} of an n x k mixture with a zero row and a row of ones, so
    that the moments hold zeros and integer ones besides the empty set's."""
    pool = [0, 1, "1/2", "1/3", "2/7", "5/8", "9/10"]
    data = [[0] * k, [1] * k] + [[rng.choice(pool) for _ in range(k)] for _ in range(n - 2)]
    rng.shuffle(data)
    weights = [rng.randint(1, 9) for _ in range(k)]
    pi = [f"{w}/{sum(weights)}" for w in weights]
    return {"m": {"rows": n, "cols": k, "data": data}, "pi": pi}


def test_the_moments_document_is_json_dumps_across_its_slices():
    rng = random.Random(30)
    for n in range(9, 13):  # 512 to 4096 entries: 2 to 16 slices
        document = mixture_document(rng, n, rng.randint(1, 4))
        params = MixtureParams(RMatrix.from_rows(document["m"]["data"], document["m"]["cols"]),
                               document["pi"])
        obj = moment_map(params).to_json_obj()
        values = list(obj["moments"].values())
        assert 0 in values and values.count(1) > 1 and any(isinstance(v, str) for v in values)
        expected = json.dumps(obj, sort_keys=True) + "\n"
        assert run_cli(["moments"], json.dumps(document)) == (0, expected, "")


def mixture_n12():
    document = mixture_document(random.Random(12), 12, 4)
    params = MixtureParams(RMatrix.from_rows(document["m"]["data"], 4), document["pi"])
    return document, moment_map(params)


def scaled_moments(table):
    """The moment table with every value in non-lowest terms, "2a/2b"."""
    scaled = {}
    for key, value in table.items():
        num, den = rational_pair(value)
        scaled[key] = f"{2 * num}/{2 * den}"
    return scaled


def test_recover_pi_checks_its_moments_a_block_at_a_time():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_ladder", Path(__file__).resolve().parents[1] / "benchmarks" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    x = ladder.mixture(9, 16)
    recover_pi(x.params.m, x.moments)  # the first call's own allocations
    tracemalloc.start()
    try:
        pi = recover_pi(x.params.m, x.moments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pi == x.params.pi
    # 0.27 MiB on CPython 3.11; checking against two whole tables of the
    # 2^16 forward moments peaked at 7.8 MiB
    assert peak < 0.5 * 2**20, peak


def test_a_document_read_whole_peaks_no_higher_than_before():
    # the text check fails at once, and the document is read whole by from_json_obj
    document, moments = mixture_n12()
    obj = moments.to_json_obj()
    obj["moments"] = scaled_moments(obj["moments"])
    text = json.dumps({"m": document["m"], "moments": obj})
    run_cli(["recover-pi"], text)  # the parser's own allocations
    stdin, stdout = io.StringIO(text), io.StringIO()  # not traced: the input is given
    tracemalloc.start()
    try:
        code = main(["recover-pi"], stdin, stdout, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pi = [rational_to_json(Fraction(x)) for x in document["pi"]]
    assert (code, json.loads(stdout.getvalue())) == (0, {"pi": pi})
    # 0.878 MiB on CPython 3.11, as when the parsed document was freed
    # before a check against whole tables; keeping it through that check
    # peaked at 1.07 MiB
    assert peak <= 0.9 * 2**20, peak


def interior_mixture(seed, n, k):
    """({m, moments} as `hadamix moments` writes the moments, pi as JSON) of
    an n x k mixture with entries a/8, 1 <= a <= 7, positive weights and a
    full-rank extension. No moment but the empty set's is an integer, so
    every other one is written as an "a/b" string."""
    rng = random.Random(seed)
    m = None
    while m is None or isinstance(greedy_min_rows(m), NotFullRank):
        m = RMatrix.from_rows([[Fraction(rng.randint(1, 7), 8) for _ in range(k)]
                               for _ in range(n)], k)
    weights = [rng.randint(1, 9) for _ in range(k)]
    pi = [rational_to_json(Fraction(w, sum(weights))) for w in weights]
    code, out, _ = run_cli(["moments"], json.dumps({"m": matrix_to_json(m), "pi": pi}))
    assert code == 0
    return {"m": matrix_to_json(m), "moments": json.loads(out)}, pi


def test_recover_pi_checks_a_canonical_document_below_a_full_read():
    document, pi = interior_mixture(12, 12, 4)
    assert all(isinstance(v, str) for v in list(document["moments"]["moments"].values())[1:])
    text = json.dumps(document)
    run_cli(["recover-pi"], text)  # the parser's own allocations
    stdin, stdout = io.StringIO(text), io.StringIO()  # not traced: the input is given
    tracemalloc.start()
    try:
        code = main(["recover-pi"], stdin, stdout, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, json.loads(stdout.getvalue())) == (0, {"pi": pi})
    # 0.73 MiB on CPython 3.11, about what the parse alone takes; reading
    # the document whole, as MomentVector.from_json_obj does, peaked at 1.0 MiB
    assert peak < 0.9 * 2**20, peak


def test_a_canonical_document_is_parsed_only_at_the_certificate(monkeypatch):
    document, pi = interior_mixture(10, 10, 4)
    table = document["moments"]["moments"]
    certificate = greedy_min_rows(matrix_from_json(document["m"]))
    at_certificate = {table[str(mask)] for mask in range(1 << 10)
                      if mask & certificate.mask == mask}
    read, checks = [], Counter()
    parse, fault = mixture.rational_pair, mixture._first_moment_fault

    def counted_parse(value):
        read.append(value)
        return parse(value)

    def counted_fault(*args):
        checks["fault"] += 1
        return fault(*args)

    monkeypatch.setattr(mixture, "rational_pair", counted_parse)
    monkeypatch.setattr(mixture, "_first_moment_fault", counted_fault)
    assert run_json(["recover-pi"], json.dumps(document)) == {"pi": pi}
    assert 0 < len(read) <= 1 << len(certificate) and set(read) <= at_certificate, read
    assert checks["fault"] == 0


def test_a_document_read_whole_is_solved_once(monkeypatch):
    document, pi = interior_mixture(8, 8, 3)
    table = document["moments"]["moments"]
    full = str((1 << 8) - 1)
    inconsistent = {**table, full: rational_to_json(Fraction(table[full]) * Fraction(6, 7))}
    # the first column repeated: a rank-deficient extension
    deficient = {**document["m"], "data": [[a, a, c] for a, _, c in document["m"]["data"]]}
    deficient_moments = run_json(["moments"], json.dumps({"m": deficient, "pi": pi}))["moments"]
    calls = Counter()
    for name in ("greedy_min_rows", "_solve_rows"):
        def counted(*args, _call=getattr(mixture, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(mixture, name, counted)
    for m, moments, code, solves in [(document["m"], scaled_moments(table), 0, 1),
                                     (document["m"], inconsistent, 1, 1),
                                     (deficient, deficient_moments, 1, 0)]:
        calls.clear()
        text = json.dumps({"m": m, "moments": {"n": 8, "moments": moments}})
        assert run_cli(["recover-pi"], text)[0] == code
        assert calls == Counter(greedy_min_rows=1, _solve_rows=solves), (code, calls)


def test_an_inconsistent_document_is_walked_once(monkeypatch):
    document, _ = interior_mixture(8, 10, 4)
    table = document["moments"]["moments"]
    full = str((1 << 10) - 1)
    table[full] = rational_to_json(Fraction(table[full]) * Fraction(6, 7))
    blocks = []
    walk = mixture._moment_blocks

    def counted_walk(*args):
        for block in walk(*args):
            blocks.append(block[0])
            yield block

    def no_table(*args):
        raise AssertionError("a table of all 2^n forward moments was built")

    monkeypatch.setattr(mixture, "_moment_blocks", counted_walk)
    monkeypatch.setattr(mixture, "_forward_moments", no_table)
    code, out, err = run_cli(["recover-pi"], json.dumps(document))
    assert (code, json.loads(out)["witness"], err) == (1, {"subset_mask": (1 << 10) - 1}, "")
    # the text check's 2^(n-5) blocks, then the last one again
    assert len(blocks) <= (1 << 5) + 1, blocks


@st.composite
def resumed_check_documents(draw):
    """A recover-pi document of an interior mixture, n = 8-10, with one or
    two moments of block 0, a middle block or the last block scaled by a
    factor in (7/8, 1), which keeps every superset below them, and now and
    then an earlier moment written in non-lowest terms."""
    n = draw(st.integers(8, 10))
    document, _ = interior_mixture(draw(st.integers(0, 10**6)), n, draw(st.integers(1, 4)))
    table = document["moments"]["moments"]
    last = (1 << (n - 5)) - 1
    base = draw(st.sampled_from([0, draw(st.integers(1, last - 1)), last])) << 5
    masks = draw(st.lists(st.integers(max(base, 1), base + 31),
                          min_size=1, max_size=2, unique=True))
    for mask in masks:
        factor = draw(st.sampled_from([Fraction(8, 9), Fraction(15, 16)]))
        table[str(mask)] = rational_to_json(Fraction(table[str(mask)]) * factor)
    if min(masks) > 1 and draw(st.booleans()):
        earlier = str(draw(st.integers(1, min(masks) - 1)))
        table[earlier] = scaled_moments({earlier: table[earlier]})[earlier]
    return json.dumps(document)


@settings(deadline=None, max_examples=60)
@given(resumed_check_documents())
def test_the_resumed_check_answers_as_the_reference(text):
    obj = json.loads(text)
    m = matrix_from_json(obj["m"])
    try:
        pi = recover_pi_reference(m, MomentVector.from_json_obj(obj["moments"]))
        expected = (0, {"pi": [rational_to_json(p) for p in pi]})
    except DomainError as exc:
        expected = (1, {"error": str(exc), "witness": cli._witness_to_json(exc.witness)})
    code, out, err = run_cli(["recover-pi"], text)
    assert (code, json.loads(out), err) == (*expected, "")


def recover_pi_reference_run(text):
    """(exit code, stdout, stderr) of `hadamix recover-pi` on text as it
    was: the document read whole by MomentVector.from_json_obj, then
    recover_pi."""
    obj = json.loads(text)
    try:
        matrix = matrix_from_json(obj["m"])
        pi = recover_pi(matrix, MomentVector.from_json_obj(obj["moments"]))
    except InputFormatError as exc:
        return 2, "", f"hadamix recover-pi: {exc}\n"
    except DomainError as exc:
        payload = {"error": str(exc), "witness": cli._witness_to_json(exc.witness)}
        return 1, json.dumps(payload, sort_keys=True) + "\n", ""
    except InternalInvariantError as exc:
        payload = {"error": f"internal invariant violated: {exc}", "witness": None}
        return 1, json.dumps(payload, sort_keys=True) + "\n", ""
    return 0, json.dumps({"pi": [rational_to_json(p) for p in pi]}) + "\n", ""


# The document kinds of the differential test: the form `hadamix moments`
# writes, and each way a document can leave it
DOCUMENT_EDITS = ["canonical", "non-lowest", "mask-0", "true", "int", "shuffled", "missing",
                  "extra", "leading-zero", "n", "perturbed", "guard"]


@st.composite
def recover_pi_documents(draw):
    n = draw(st.integers(0, 7))  # past 5 rows the text check reads several blocks
    k = draw(st.integers(1, min(n + 1, 4)))
    inside = ["1/2", "1/3", "2/7", "5/8", "9/10", "3/4"]
    # integer moments, entries outside [0, 1], repeated columns
    # (a rank-deficient extension) and negative weights, now and then
    outside = draw(st.sampled_from([[], [], [0, 1], ["3/2", "-1/2"]]))
    rows = [[Fraction(draw(st.sampled_from(inside + outside))) for _ in range(k)]
            for _ in range(n)]
    if k > 1 and draw(st.integers(0, 4)) == 0:
        rows = [[row[0], row[0], *row[2:]] for row in rows]
    weights = draw(st.lists(st.integers(-1 if outside else 1, 9), min_size=k, max_size=k)
                   .filter(lambda w: sum(w) != 0))
    pi = [Fraction(w, sum(weights)) for w in weights]
    values = [sum(p * math.prod((row[j] for i, row in enumerate(rows) if mask >> i & 1),
                                start=Fraction(1))
                  for j, p in enumerate(pi))
              for mask in range(1 << n)]
    edit = draw(st.sampled_from(DOCUMENT_EDITS if n else DOCUMENT_EDITS[:3]))
    mask = draw(st.integers(1, (1 << n) - 1)) if n else 0
    if edit == "perturbed":
        values[mask] = draw(st.sampled_from([values[mask] * Fraction(6, 7),
                                             values[mask] + Fraction(1, 7)]))
    table = {str(i): rational_to_json(v) for i, v in enumerate(values)}
    table = dict(sorted(table.items()))  # the key order `hadamix moments` writes
    doc_n = n
    if edit == "non-lowest":
        table = scaled_moments(table)
    elif edit == "mask-0":
        table["0"] = draw(st.sampled_from(["1", True, 1.0]))
    elif edit == "true":
        table[str(mask)] = True
    elif edit == "int":
        table[str(mask)] = draw(st.sampled_from([0, 1]))
    elif edit == "shuffled":
        items = list(table.items())
        draw(st.randoms()).shuffle(items)
        table = dict(items)
    elif edit == "missing":
        del table[str(mask)]
    elif edit == "extra":
        table[str(1 << n)] = "1/2"
    elif edit == "leading-zero":
        table[f"0{mask}"] = table.pop(str(mask))
    elif edit == "n":
        doc_n = n + draw(st.sampled_from([-1, 1]))
    elif edit == "guard":  # n past the guard, and as many matrix rows
        doc_n = 21
        rows = [rows[i % n] for i in range(21)]
    matrix = {"rows": len(rows), "cols": k,
              "data": [[rational_to_json(x) for x in row] for row in rows]}
    return json.dumps({"m": matrix, "moments": {"n": doc_n, "moments": table}})


# entries of 3001 digits, whose full-mask moment has more digits than
# int-to-str conversion allows, and a full-mask value that increases
TINY = f"1/{10 ** 3000}"
PAST_THE_DIGIT_LIMIT = json.dumps({
    "m": {"rows": 2, "cols": 1, "data": [[TINY], [TINY]]},
    "moments": {"n": 2, "moments": {"0": 1, "1": TINY, "2": TINY, "3": "1/2"}},
})


@settings(deadline=None, max_examples=400)
@given(recover_pi_documents())
@example(PAST_THE_DIGIT_LIMIT)
def test_recover_pi_answers_as_a_full_read_does(text):
    assert run_cli(["recover-pi"], text) == recover_pi_reference_run(text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no digit limit on int-to-str conversion")
@pytest.mark.parametrize("argv, document", [
    (["moments"], {"m": {"rows": 2, "cols": 1, "data": [[TINY], [TINY]]}, "pi": ["1"]}),
    (["hadext"], {"rows": 2, "cols": 1, "data": [[TINY], [TINY]]}),
    # weights of about 4,400 digits
    (["recover-pi"], {"m": {"rows": 1, "cols": 2, "data": [[
        f"1/{10 ** 2200 + 7}", f"1/{10 ** 2200 + 10 ** 1000 + 3}"]]},
        "moments": {"n": 1, "moments": {"0": 1, "1": "1/3"}}}),
], ids=["moments", "hadext", "recover-pi"])
def test_an_output_past_the_digit_limit_is_an_error_object(argv, document):
    code, out, err = run_cli(argv, json.dumps(document))
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert "integer string conversion" in payload["error"] and payload["witness"] is None


@pytest.mark.parametrize("document, refusal", [
    ({"rows": 21, "cols": 1, "data": [[2]] * 21}, "extension guard: at most 20 rows (got 21)"),
    # 21 * 2^20 entries: the row and column guards pass
    ({"rows": 20, "cols": 21, "data": [list(range(21))] * 20},
     "extension guard: at most 20971520 entries (got 22020096)"),
    ({"rows": 1, "cols": 1025, "data": [[2] * 1025]},
     "extension guard: at most 1024 columns (got 1025)"),
], ids=["rows", "entries", "columns"])
def test_hadext_refuses_before_its_first_byte(document, refusal):
    expected = json.dumps({"error": refusal, "witness": None}) + "\n"
    assert run_cli(["hadext"], json.dumps(document)) == (1, expected, "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no digit limit on int-to-str conversion")
def test_hadext_joins_a_document_whose_bound_passes_the_digit_limit():
    # a/b and b/a of 3001 digits each: their product over both rows is 1,
    # but the bound on it, a * b, has 6001 digits
    a, b = 10 ** 3000 + 1, 10 ** 3000 + 3
    m = RMatrix.from_rows([[Fraction(a, b), 2], [Fraction(b, a), Fraction(1, 3)]])
    assert not hadamard._within_the_digit_limit(m)
    args = argparse.Namespace(input=None)
    assert len(list(cli._cmd_hadext(args, io.StringIO(json.dumps(document_of(m)))))) == 1
    expected = json.dumps(hadext_reference(m), sort_keys=True) + "\n"
    assert run_cli(["hadext"], json.dumps(document_of(m))) == (0, expected, "")


def test_the_moments_document_peaks_below_one_json_dumps():
    document, moments = mixture_n12()
    text = json.dumps(document)
    run_cli(["moments"], text)  # the parser's own allocations
    peaks = []
    for encode in [lambda: run_cli(["moments"], text),
                   lambda: json.dumps(moments.to_json_obj(), sort_keys=True)]:
        tracemalloc.start()
        try:
            encode()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    command, one_dumps = peaks
    # the whole command, parse and moment sums included, against the
    # table and one json.dumps over it
    assert command <= one_dumps * 3 / 4, peaks


# ---------------------------------------------------------------------------
# exit codes and error objects


def test_malformed_json_is_usage_error():
    huge_entry = '{"rows":1,"cols":1,"data":[[%s]]}' % ("1" * 5000)
    for text in ["{not json", huge_entry, "[" * 100000]:
        code, out, err = run_cli(["rank"], text)
        assert code == 2 and out == "" and "malformed JSON input" in err


def test_repeated_entries_keep_their_refusals():
    # entries are parsed once per distinct int or string, and true == 1,
    # false == 0 and 1.0 == 1 must not be answered from that cache
    for data, bad in [
        ('[[1, true]]', "True"),
        ('[[0, false]]', "False"),
        ('[[1, 1.0]]', "1.0"),
        ('[["1", 1], ["1/2", true]]', "True"),
    ]:
        text = '{"rows": %d, "cols": 2, "data": %s}' % (data.count("[") - 1, data)
        code, out, err = run_cli(["rank"], text)
        assert (code, out) == (2, ""), data
        assert err == f"hadamix rank: entry must be an integer or 'a/b' string: {bad}\n"
    # the first bad entry in row-major order is the one named
    text = '{"rows": 3, "cols": 2, "data": [[1, 2], [2, "1/0"], [true, "x"]]}'
    assert run_cli(["rank"], text) == (
        2, "", "hadamix rank: denominator must be positive: '1/0'\n")
    text = '{"rows": 2, "cols": 2, "data": [[1, "2"], ["2", "x"]]}'
    assert run_cli(["rank"], text) == (2, "", "hadamix rank: not a rational: 'x'\n")


def test_wrong_shape_is_usage_error():
    code, _, err = run_cli(["rank"], '{"rows": 1}')
    assert code == 2 and "missing field" in err


ONE_ROW = {"rows": 1, "cols": 2, "data": [["1/4", "3/4"]]}


@pytest.mark.parametrize("argv, document, message", [
    (["recover-pi"], {"m": ONE_ROW, "moments": [1]},
     "moment JSON must be an object with 'n' and 'moments'"),
    (["recover-pi"], {"m": ONE_ROW, "moments": {"n": True, "moments": {"0": 1, "1": "1/2"}}},
     "'n' must be a nonnegative integer"),
    (["recover-pi"], {"m": ONE_ROW, "moments": {"n": -1, "moments": {"0": 1}}},
     "'n' must be a nonnegative integer"),
    (["recover-pi"], {"m": ONE_ROW, "moments": {"n": 1, "moments": {"1": "1/2"}}},
     "'moments' must be an object with the '0' entry"),
    (["recover-pi"], [ONE_ROW], "recover-pi input must be a JSON object"),
    (["recover-pi"], {"m": ONE_ROW}, "recover-pi input missing field 'moments'"),
    (["moments"], [1], "moments input must be a JSON object"),
    (["moments"], {"m": ONE_ROW}, "moments input missing field 'pi'"),
    (["moments"], {"m": ONE_ROW, "pi": {"0": 1}}, "'pi' must be a JSON array"),
    (["project", "--block", "1"], [2, 1], "project input must be a JSON object"),
    (["project", "--block", "1"], {"w": [2, 1]}, "project input missing field 'v'"),
    (["project", "--block", "1"], {"v": "2,1"}, "'v' must be a JSON array"),
    (["gen", "vandermonde", "--k", "0"], None, "--k must be at least 1"),
    (["gen", "vandermonde", "--k", "3", "--row", "1,2"], None, "--row must have 3 entries"),
    (["gen", "vandermonde", "--k", "2", "--row", "1,x"], None,
     "--row is not a rational list: '1,x'"),
    (["gen", "stairstep", "--k", "0"], None, "--k must be at least 1"),
])
def test_input_format_and_usage_errors(argv, document, message):
    text = json.dumps(document) if document is not None else ""
    assert run_cli(argv, text) == (2, "", f"hadamix {argv[0]}: {message}\n")


def test_input_file_reads_like_stdin(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(DUP_COLS, encoding="utf-8")
    piped = run_cli(["rank"], DUP_COLS)
    assert piped[0] == 0
    assert run_cli(["rank", "--input", str(path)]) == piped
    assert run_cli(["rank", "-i", str(path)]) == piped
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    for path in (tmp_path / "missing.json", bad):
        code, out, err = run_cli(["rank", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"hadamix rank: cannot read {path}: ")


def test_undecodable_stdin_is_an_input_error():
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="strict")
    stdout, stderr = io.StringIO(), io.StringIO()
    assert main(["rank"], stdin, stdout, stderr) == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue().startswith("hadamix rank: cannot read stdin: 'utf-8' codec")


# the document the CI workflow also sends through the installed `hadamix` script
MOMENTS_DOCUMENT = (
    '{"m": {"rows": 2, "cols": 2, "data": [["1/4", "3/4"], ["1/3", "1"]]}, "pi": ["1/3", "2/3"]}'
)


def test_module_runs_as_a_process():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv, text, code in [
        (["rank"], DUP_COLS, 0),
        (["nae-restrict"], DUP_COLS, 1),
        (["rank"], "{not json", 2),
        (["moments"], MOMENTS_DOCUMENT, 0),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "hadamix.cli", *argv], input=text.encode(),
            capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        # byte for byte, as a shell pipe sees them
        rc, out, err = run_cli(argv, text)
        assert (done.returncode, done.stdout, done.stderr) == (rc, out.encode(), err.encode())
        assert rc == code


def _probe(code):
    """stdout of `code` in a fresh interpreter that imports this checkout's
    hadamix; -S keeps the interpreter's site hooks (.pth files) out of it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr) == (0, b""), done
    return done.stdout.decode()


def test_importing_the_cli_pulls_in_neither_dataclasses_nor_inspect():
    # nor the example families and the selftest corpus, which only `gen`
    # and `selftest` import
    unwanted = "{'dataclasses', 'inspect', 'hadamix.examples'}"
    probe = f"import sys, hadamix.cli; print(sorted({unwanted} & set(sys.modules)))"
    assert _probe(probe) == "[]\n"


@pytest.mark.parametrize("argv", [["gen", "hamming", "--l", "2"], ["selftest"]], ids=" ".join)
def test_gen_and_selftest_load_the_examples_and_answer_as_before(argv):
    probe = (
        "import io, sys, hadamix.cli as cli\n"
        "loaded = lambda: 'hadamix.examples' in sys.modules\n"
        "before, out = loaded(), io.StringIO()\n"
        f"code = cli.main({argv!r}, io.StringIO(), out, io.StringIO())\n"
        "print(before, loaded(), code)\n"
        "print(out.getvalue(), end='')\n"
    )
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert _probe(probe) == f"False True 0\n{out}"


def test_witness_writer_walks_a_record_in_declaration_order():
    report = nae.NaeReport(-2, SubsetIndex(3, 0b110), SubsetIndex(2, 0))
    written = cli._witness_to_json(report)
    assert list(written.items()) == [
        ("eps_bar", -2), ("witness_columns", [2, 3]), ("nae_rows_of_witness", [])]
    witness = {"row": 2, "col": 1}
    assert list(cli._witness_to_json(witness).items()) == [("row", 2), ("col", 1)]


def test_domain_error_object_and_exit_code():
    code, out, _ = run_cli(["nae-restrict"], DUP_COLS)
    assert code == 1
    error = json.loads(out)
    assert "eps_bar = -2" in error["error"]
    assert error["witness"]["eps_bar"] == -2
    assert error["witness"]["witness_columns"] == [1, 2]


DUP_ROWS = {"rows": 2, "cols": 2, "data": [["1/4", "3/4"], ["1/4", "3/4"]]}


@pytest.mark.parametrize("argv, document, error, witness", [
    # CLI indices are 1-based: entry (0,1) of the library
    (["moments"], {"m": {"rows": 1, "cols": 2, "data": [["1/2", "3/2"]]}, "pi": ["1/2", "1/2"]},
     "entry (1,2) = 3/2 is not a probability", '{"col": 2, "row": 1}'),
    (["recover-pi"], {"m": ONE_ROW, "moments": {"n": 1, "moments": {"0": 1, "1": "3/2"}}},
     "moment 3/2 for mask 1 is outside [0, 1]", '{"subset_mask": 1}'),
    (["recover-pi"], {"m": {"rows": 1, "cols": 2, "data": [[1, 1]]},
                      "moments": {"n": 1, "moments": {"0": 1, "1": 1}}},
     "extension rank 1 < 2; weights are not identifiable", '{"extension_rank": 1}'),
    # row 1 alone fixes pi = (1/2, 1/2), whose moment for rows {1,2} is 5/16
    (["recover-pi"], {"m": DUP_ROWS, "moments": {
        "n": 2, "moments": {"0": 1, "1": "1/2", "2": "1/2", "3": "1/4"}}},
     "moments are inconsistent with every weight vector", '{"subset_mask": 3}'),
    (["nae-restrict"], {"rows": 1, "cols": 3, "data": [[1, 2, 3]]},
     "NAE condition fails: eps_bar = -2 < -1",
     '{"eps_bar": -2, "nae_rows_of_witness": [1], "witness_columns": [1, 2, 3]}'),
], ids=["moments-entry", "recover-pi-moment-fault", "recover-pi-rank",
        "recover-pi-inconsistent", "nae-restrict-fails-nae"])
def test_witness_json_of_each_refusal(argv, document, error, witness):
    assert run_cli(argv, json.dumps(document)) == (
        1, '{"error": "%s", "witness": %s}\n' % (error, witness), "")


def test_guard_error_exit_code(monkeypatch):
    big = json.dumps({"rows": 21, "cols": 1, "data": [[1]] * 21})
    code, out, _ = run_cli(["hadext"], big)
    assert code == 1
    assert "guard" in json.loads(out)["error"]
    # more than 62 rows are refused before any colour class is built
    tall = json.dumps({"rows": 63, "cols": 2, "data": [[1, 2]] * 63})
    with monkeypatch.context() as patch:
        patch.setattr(nae, "_row_classes", lambda m: pytest.fail("classes were built"))
        for argv in [["nae-check"], ["nae-restrict"], ["nae-restrict", "--exhaustive"]]:
            assert run_cli(argv, tall) == (
                1, '{"error": "ground-set size guard: 0 <= size <= 62 (got 63)", '
                   '"witness": null}\n', ""), argv
    # nae-restrict answers; --exhaustive then refuses C(20,13) * 2^14 column sets
    copies = json.dumps({"rows": 20, "cols": 14, "data": [list(range(14))] * 20})
    code, out, _ = run_cli(["nae-restrict", "--exhaustive"], copies)
    assert code == 1
    assert json.loads(out)["error"].startswith("exhaustive scan guard: C(20,13) * 2^14")
    # the column guard refuses before a fold holds a tuple of 10^6 entries
    wide = json.dumps({"rows": 0, "cols": 1000000, "data": []})
    refusal = ('{"error": "extension guard: at most 1024 columns (got 1000000)", '
               '"witness": null}\n')
    run_cli(["rank"], DUP_COLS)  # the parser's own allocations
    for argv, text in [
        (["rank"], wide),
        (["minrows"], wide),
        (["hadext"], wide),
        (["recover-pi"], '{"m": %s, "moments": {"n": 0, "moments": {"0": 1}}}' % wide),
    ]:
        tracemalloc.start()
        try:
            got = run_cli(argv, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (1, refusal, ""), argv
        assert peak < 64 * 1024, (argv, peak)


def test_unknown_command_is_usage_error():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_usage_errors_and_help_use_the_given_streams(capsys):
    code, out, err = run_cli(["rank", "--bogus"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --bogus" in err
    code, out, err = run_cli(["project"])
    assert code == 2 and out == "" and "--block" in err
    code, out, err = run_cli(["rank", "--format", "json"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --format json" in err
    code, out, err = run_cli(["rank", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: hadamix rank")
    assert "--format" not in out
    assert capsys.readouterr() == ("", "")


def test_each_call_writes_only_to_its_own_streams(capsys):
    # the parser is built once and shared, its streams are not; main() puts
    # the process streams back on every exit path
    calls = [
        # argv, stdin, exit code, start of stdout, part of stderr, usage lines
        (["rank", "--bogus"], "", 2, "", "unrecognized arguments: --bogus", 1),
        (["rank", "--help"], "", 0, "usage: hadamix rank", "", 0),
        (["project"], "", 2, "", "--block", 1),
        (["--help"], "", 0, "usage: hadamix", "", 0),
        (["frobnicate"], "", 2, "", "invalid choice", 1),
        (["gen", "hamming", "--l", "2"], "", 0, '{"cols": 4', "", 0),
        (["gen", "hamming", "--k", "3"], "", 2, "", "usage: hadamix gen hamming", 1),
        (["gen", "hamming", "--l", "0"], "", 2, "", "hadamix gen: --l must be in", 0),
        (["project", "--block", "3"], '{"v":[2,1]}', 1, '{"error": "block index 3', "", 0),
    ]
    process_streams = sys.stdin, sys.stdout, sys.stderr
    streams = []
    for argv, text, want_code, *_ in calls:
        out, err = io.StringIO(), io.StringIO()
        assert main(argv, io.StringIO(text), out, err) == want_code, argv
        assert (sys.stdin, sys.stdout, sys.stderr) == process_streams, argv
        streams.append((out, err))
    for (out, err), (argv, _, _, want_out, want_err, usages) in zip(streams, calls):
        if want_out:
            assert out.getvalue().startswith(want_out) and err.getvalue() == "", argv
        else:
            assert out.getvalue() == "" and want_err in err.getvalue(), argv
        assert err.getvalue().count("usage:") == usages, argv
    assert capsys.readouterr() == ("", "")


def test_a_parser_that_raises_leaves_the_process_streams_as_they_were(monkeypatch, capsys):
    class Failing(argparse.ArgumentParser):
        def parse_known_args(self, args=None, namespace=None):  # parse_args calls it
            print(f"partial {self.prog}", file=sys.stderr)
            raise LookupError("parser failed")

    root, command = Failing(prog="hadamix"), Failing(prog="hadamix rank")
    monkeypatch.setattr(cli, "_root_parser", lambda: root)
    monkeypatch.setattr(cli, "_command_parser", {"rank": command}.__getitem__)
    process_streams = sys.stdin, sys.stdout, sys.stderr
    for argv, prog in [(["rank"], "hadamix rank"), (["--help"], "hadamix")]:
        err = io.StringIO()
        with pytest.raises(LookupError, match="parser failed"):
            main(argv, io.StringIO(), io.StringIO(), err)
        assert (sys.stdin, sys.stdout, sys.stderr) == process_streams
        assert err.getvalue() == f"partial {prog}\n"
    assert capsys.readouterr() == ("", "")


# argv that main hands straight to the command's parser, and argv that must
# still take the root parser
DISPATCH_CASES = [
    [], ["-h"], ["--help"], ["--hel"],
    ["foo"], ["RANK"], ["ran"], ["-x", "rank"], ["--", "rank"],
    ["rank", "-h"], ["rank", "-h", "extra"], ["rank", "extra"], ["rank", "--bogus"],
    ["rank", "-x"],
    ["rank", "--inp", "F"], ["rank", "--input=F"], ["rank", "--input"],
    ["rank", "--input", "a", "--input", "b"], ["rank", "--", "x"],
    ["minrows", "--exh"], ["minrows", "--exhaustive=1"], ["minrows", "--size", "2"],
    ["eps"], ["eps", "--cols"], ["eps", "--cols", "-1"], ["eps", "--cols=1"],
    ["project", "--block", "-1"], ["project", "--block", "1", "--block", "2"],
    ["gen"], ["gen", "-h"], ["gen", "hamming", "--l", "2", "--x"],
    ["gen", "hamming", "--l", "2", "extra"], ["gen", "hamming", "--", "--l", "2"],
    ["selftest", "--input", "x"],
    *([name, flag]
      for name in ["hadext", "rank", "minrows", "eps", "nae-check", "nae-restrict", "blocks",
                   "project", "invariant", "moments", "recover-pi"]
      for flag in ["--help", "--no-such-flag", "--input"]
      if [name, flag] != ["rank", "--input"]),  # listed above
    ["gen", "--no-such-flag"], ["gen", "--input"],
    ["gen", "hamming", "--l", "2", "--k", "9"], ["gen", "vandermonde", "-h"],
    ["selftest", "-h"], ["selftest"],
]


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=" ".join)
def test_dispatch_on_the_command_name_answers_as_the_root_parser(monkeypatch, argv):
    shipped = run_cli(argv, DUP_COLS)
    assert cli._COMMANDS  # the shipped run could take the command's parser
    cli._root_parser()  # built, with every command's parser, while the names are known
    monkeypatch.setattr(cli, "_COMMANDS", {})  # so main hands every argv to the root
    assert shipped == run_cli(argv, DUP_COLS)


def test_parser_is_built_once_per_process(monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    gen = ["hadamix gen", "hadamix gen vandermonde", "hadamix gen hamming", "hadamix gen stairstep"]
    everything = {"hadamix", *gen, *(f"hadamix {name}" for name in cli._COMMANDS)}
    assert len(everything) == 17
    for root_first in [["--help"], ["rank", "--bogus"]]:
        cli._root_parser.cache_clear()
        cli._command_parser.cache_clear()
        progs.clear()
        run_cli(["rank"], DUP_COLS)
        assert progs == ["hadamix rank"]  # the first call builds its own parser alone
        for argv in [["rank", "--help"], ["rank", "-i", "missing.json"]]:
            run_cli(argv)
        assert progs == ["hadamix rank"]
        run_cli(["gen", "hamming", "--l", "2"])
        assert progs == ["hadamix rank", *gen]
        run_cli(root_first)
        assert progs[len(gen) + 1] == "hadamix"  # the root, with the other eleven
        for argv in [["--help"], ["rank", "--bogus"], ["frobnicate"], ["selftest"],
                     ["gen", "stairstep", "--k", "3"], ["nae-check"]]:
            run_cli(argv, DUP_COLS)
        assert Counter(progs) == Counter(everything)  # each once


def test_a_first_call_builds_only_its_commands_parser_on_the_heap():
    # argparse is warmed by an unrelated parser first, as a harness that
    # parses its own flags has; the root and all 16 parsers would add ~100 KB
    matrix = '{"rows": 3, "cols": 3, "data": [[1, 2, 3], [1, "1/2", 0], [2, 2, "1/3"]]}'
    probe = (
        "import argparse, gc, io, tracemalloc\n"
        "argparse.ArgumentParser(prog='warm').parse_args([])\n"
        "from hadamix.cli import main\n"
        f"stdin, out, err = io.StringIO({matrix!r}), io.StringIO(), io.StringIO()\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "code = main(['nae-check'], stdin, out, err)\n"
        "print(code, tracemalloc.get_traced_memory()[1], repr(err.getvalue()))\n"
    )
    code, peak, err = _probe(probe).split(" ", 2)
    assert (code, err) == ("0", "''\n")
    assert int(peak) < 32 * 1024


def test_internal_invariant_error_names_its_shape(monkeypatch):
    # every block's evaluated value comes out one too large
    monkeypatch.setattr(
        partition_algebra, "Fraction", lambda num, den: Fraction(num, den) + 1
    )
    code, out, _ = run_cli(["project", "--block", "2"], '{"v":[2,1,2,1]}')
    assert code == 1
    error = json.loads(out)
    assert error["witness"] is None
    assert error["error"].startswith("internal invariant violated: ")
    assert "block 1 (0-based)" in error["error"] and "len(v) = 4" in error["error"]


def test_nae_invariant_error_names_the_submatrix(monkeypatch):
    real = nae._constant_table

    def deficient_below_three_rows(classes, rows, width, size):
        n = rows.bit_count()
        if n >= 3:
            return real(classes, rows, width, size)
        # every scan over fewer than 3 rows now reports eps_bar < -1: each
        # row counts as constant on every column set, so eps(cols) = -|cols|
        field = n.to_bytes(size, "little")
        return int.from_bytes(field * (1 << width), "little")

    monkeypatch.setattr(nae, "_constant_table", deficient_below_three_rows)
    vandermonde = '{"rows":4,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2],[0,1,2]]}'
    code, out, _ = run_cli(["nae-restrict"], vandermonde)
    assert code == 1
    error = json.loads(out)
    assert error["witness"] is None
    assert error["error"] == (
        "internal invariant violated: no deletable row keeps eps_bar >= -1;"
        " the recursion guarantees one exists"
        " (matrix 4x3, rows 0x7, columns 0x6, forbidden rows 0x0)"
    )


def test_recover_pi_rank_failure():
    payload = json.dumps(
        {
            "m": {"rows": 1, "cols": 2, "data": [["1/2", "1/2"]]},
            "moments": {"n": 1, "moments": {"0": 1, "1": "1/2"}},
        }
    )
    code, out, _ = run_cli(["recover-pi"], payload)
    assert code == 1
    assert json.loads(out)["witness"] == {"extension_rank": 1}


# ---------------------------------------------------------------------------
# selftest and determinism


def test_selftest_passes():
    code, out, _ = run_cli(["selftest"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["failed"] == 0
    assert len(report["checks"]) >= 10


@pytest.mark.parametrize("message, detail", [("", "assertion failed"), ("rank 3", "rank 3")])
def test_selftest_reports_a_failed_check(monkeypatch, message, detail):
    real = examples._selftest_checks

    def fail():
        raise AssertionError(message)

    def one_failing():
        (name, _), *rest = real()
        return [(name, fail), *rest]

    monkeypatch.setattr(examples, "_selftest_checks", one_failing)
    code, out, _ = run_cli(["selftest"])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["failed"] == 1
    assert report["checks"][0] == {"name": "fourier-character-product", "ok": False,
                                   "detail": detail}
    assert all(check["ok"] for check in report["checks"][1:])


def test_repeat_invocations_are_byte_identical():
    cases = [
        (["gen", "hamming", "--l", "3"], ""),
        (["nae-check"], DUP_COLS),
        (["selftest"], ""),
    ]
    for argv, stdin_text in cases:
        first = run_cli(argv, stdin_text)
        second = run_cli(argv, stdin_text)
        assert first == second


def test_minrows_exhaustive_below_log2_k_adds_no_fold(fold_dims):
    matrix = json.dumps({"rows": 5, "cols": 8, "data": [
        [(3 * i + j) % 7 for j in range(8)] for i in range(5)
    ]})
    greedy = run_json(["minrows"], matrix)
    greedy_folds = len(fold_dims)
    fold_dims.clear()
    both = run_json(["minrows", "--exhaustive", "--size", "2"], matrix)
    assert both == {**greedy, "exhaustive": []}
    assert len(fold_dims) == greedy_folds


# ---------------------------------------------------------------------------
# matrices read as integer rows

ROWS_M = {"rows": 3, "cols": 3, "data": [["1/2", 2, "-1/3"], [1, "3/4", 0], ["5/6", "5/6", 2]]}
PROB_M = {"rows": 3, "cols": 2, "data": [["1/2", "1/3"], ["1/4", 1], ["2/3", "1/5"]]}
PROB_PI = ["1/3", "2/3"]


def _row_path_documents():
    moments = run_cli(["moments"], json.dumps({"m": PROB_M, "pi": PROB_PI}))[1]
    return [
        (["rank"], ROWS_M),
        (["minrows"], ROWS_M),
        (["minrows", "--exhaustive"], ROWS_M),
        (["hadext"], ROWS_M),
        (["moments"], {"m": PROB_M, "pi": PROB_PI}),
        (["recover-pi"], {"m": PROB_M, "moments": json.loads(moments)}),
        (["nae-check"], ROWS_M),
        (["invariant"], {"basis": {"rows": 2, "cols": 3, "data": [["1/2", "1/2", 0], [0, 0, 3]]},
                         "v": [2, 2, 5]}),
    ]


ROW_PATH_CASES = _row_path_documents()


@pytest.mark.parametrize("argv, document", ROW_PATH_CASES,
                         ids=[" ".join(argv) for argv, _ in ROW_PATH_CASES])
def test_commands_read_matrix_rows_as_integers(argv, document, monkeypatch):
    # the rows of the input matrix, as Fractions, whatever their key
    matrix = document.get("m", document.get("basis", document))
    fraction_rows = {tuple(map(Fraction, row)) for row in matrix_from_json(matrix).entries}
    scaled, read = [], []
    scale = exact_core.scale_to_integers

    def counted(vec):
        scaled.append(tuple(map(Fraction, vec)))
        return scale(vec)

    def reader(obj):
        read.append(matrix_from_json(obj))
        return read[-1]

    for module in (exact_core, hadamard, mixture, nae, partition_algebra, cli):
        monkeypatch.setattr(module, "scale_to_integers", counted, raising=False)
    monkeypatch.setattr(cli, "matrix_from_json", reader)
    if argv == ["recover-pi"]:  # the text path reads no MomentVector
        monkeypatch.setattr(mixture.MomentVector, "from_json_obj",
                            lambda doc: pytest.fail("the document was read whole"))
    code, out, err = run_cli(argv, json.dumps(document))
    assert code == 0, (out, err)
    assert len(read) == 1
    # every vector scaled is a weight, a v or the ones row, never a matrix row
    assert fraction_rows.isdisjoint(scaled), scaled
    # and the reader's matrix never built its Fraction view
    assert read[0]._entries is None


def test_probability_refusals_name_the_entry_in_lowest_terms():
    m = {"rows": 2, "cols": 2, "data": [["1/2", 0], ["6/4", "1/2"]]}
    assert run_cli(["moments"], json.dumps({"m": m, "pi": ["1/2", "1/2"]})) == (
        1, '{"error": "entry (2,1) = 3/2 is not a probability", "witness": {"col": 1, "row": 2}}\n',
        "")
    with pytest.raises(DomainError) as refused:
        MixtureParams(matrix_from_json(m), ("1/2", "1/2"))
    assert str(refused.value) == "entry (1,0) = 3/2 is not a probability"
    assert refused.value.witness == {"row": 1, "col": 0}
