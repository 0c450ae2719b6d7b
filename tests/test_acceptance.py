"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic, so every tolerance is equality; the
random corpora are seeded and deterministic. Run with `pytest -s` to see
the per-criterion lines.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from conftest import diagonal_matrix, random_matrix, SMALL_POOL, PROB_POOL
from hadamix import (
    MixtureParams,
    NotFullRank,
    RMatrix,
    SubsetIndex,
    blocks_of,
    eps_bar,
    exhaustive_nae_restrict,
    full_extension_rank,
    greedy_min_rows,
    hadamard_extension,
    identifiability_gate,
    is_invariant,
    lagrange_projection,
    moment_map,
    nae_restrict,
    recover_pi,
    respects,
    span,
)
from hadamix.cli import main as cli_main


def run_cli(argv, stdin_text=""):
    stdout = io.StringIO()
    code = cli_main(argv, stdin=io.StringIO(stdin_text), stdout=stdout, stderr=io.StringIO())
    return code, stdout.getvalue()


# ---------------------------------------------------------------------------
# corpus shared by criteria 1 and 2


def _rank_corpus():
    """Seeded random matrices (n <= 7, k <= 5, small value pool), collected
    until 500 of them have a full-rank extension; all draws are kept."""
    rng = random.Random(20260811)
    corpus = []
    full_rank_hits = 0
    while full_rank_hits < 500:
        n, k = rng.randint(1, 7), rng.randint(1, 5)
        m = random_matrix(rng, n, k, SMALL_POOL)
        corpus.append(m)
        if full_extension_rank(m) == k:
            full_rank_hits += 1
    return corpus


@pytest.fixture(scope="module")
def rank_corpus():
    return _rank_corpus()


def test_criterion_1_small_certificates(rank_corpus):
    checked = 0
    for m in rank_corpus:
        k = m.n_cols
        if full_extension_rank(m) != k:
            continue
        found = greedy_min_rows(m)
        assert isinstance(found, SubsetIndex), (m, found)
        assert len(found) <= k - 1, (m, found)
        assert full_extension_rank(m.restrict_rows(found)) == k, (m, found)
        checked += 1
    assert checked >= 500
    print(f"CRITERION 1 (full rank implies a <=k-1 row certificate): PASS "
          f"({checked} full-rank matrices, 0 failures)")


def test_criterion_2_fold_equals_materialized(rank_corpus):
    stalls = 0
    for m in rank_corpus:
        extension = hadamard_extension(m)
        materialized = span(extension.entries, extension.n_cols).dim
        assert full_extension_rank(m) == materialized, m
        found = greedy_min_rows(m)
        if isinstance(found, NotFullRank):
            # the greedy never stops strictly below the extension rank
            assert found.rank == materialized, (m, found)
            stalls += 1
    assert len(rank_corpus) >= 500
    print(f"CRITERION 2 (incremental fold matches materialized rank): PASS "
          f"({len(rank_corpus)} matrices, {stalls} non-full-rank, 0 failures)")


# ---------------------------------------------------------------------------
# criterion 3: deficiency condition


def test_criterion_3_nae_restriction_and_rank():
    rng = random.Random(31337)
    checked = 0
    while checked < 500:
        k = rng.randint(1, 5)
        n = rng.randint(1, 8)
        rows = []
        for _ in range(n):
            if rng.random() < 0.5:
                rows.append([Fraction(v) for v in rng.sample(range(-9, 10), k)])
            else:
                rows.append([Fraction(rng.choice(SMALL_POOL[:3])) for _ in range(k)])
        m = RMatrix.from_rows(rows, k)
        if eps_bar(m).eps_bar < -1:
            continue
        checked += 1
        certificates = exhaustive_nae_restrict(m)
        assert certificates, m
        found = nae_restrict(m)
        assert found in certificates, (m, found)
        assert len(found) == k - 1, (m, found)
        assert eps_bar(m.restrict_rows(found)).eps_bar == -1, (m, found)
        assert full_extension_rank(m) == k, m
    print(f"CRITERION 3 (deficiency >= -1: k-1 row restriction exists, is found, "
          f"and rank is full): PASS ({checked} matrices, 0 failures)")


# ---------------------------------------------------------------------------
# criterion 4: invariance vs block respect


def _random_partition_vector(rng, k):
    distinct = rng.randint(1, min(5, k))
    pool = rng.sample(range(-6, 7), distinct)
    return [Fraction(rng.choice(pool)) for _ in range(k)]


def test_criterion_4_invariance_characterization():
    rng = random.Random(424242)
    checked = 0
    for trial in range(1000):
        k = rng.randint(1, 8)
        v = _random_partition_vector(rng, k)
        part = blocks_of(v)
        if trial % 2 == 0:
            vectors = []
            for block in part.blocks:
                for _ in range(rng.randint(0, len(block))):
                    vec = [Fraction(0)] * k
                    for j in block:
                        vec[j] = Fraction(rng.randint(-3, 3))
                    vectors.append(vec)
            u = span(vectors, k)
        else:
            count = rng.randint(0, max(k - 1, 0))
            u = span(
                [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(count)],
                k,
            )
        assert is_invariant(v, u) == respects(u, v), (v, u)
        # lagrange_projection raises internally if polynomial evaluation
        # mismatches the block diagonal
        projectors = [diagonal_matrix(lagrange_projection(v, i)) for i in range(len(part))]
        total = [
            [sum(p.entries[r][c] for p in projectors) for c in range(k)]
            for r in range(k)
        ]
        assert RMatrix.from_rows(total, k) == diagonal_matrix([1] * k), v
        for value, p in zip(part.values, projectors):
            assert p == diagonal_matrix([1 if x == value else 0 for x in v]), (v, value)
        checked += 1
    assert checked == 1000
    print("CRITERION 4 (invariant under v iff respects blocks of v; projector "
          f"identities): PASS ({checked} (v, U) pairs, 0 failures)")


# ---------------------------------------------------------------------------
# criterion 5: worked-example golden corpus via the CLI selftest


def test_criterion_5_example_corpus_selftest():
    code, out = run_cli(["selftest"])
    report = json.loads(out)
    assert code == 0, out
    assert report["ok"] is True and report["failed"] == 0, out
    names = {check["name"] for check in report["checks"]}
    assert {
        "fourier-extension",
        "identical-columns-rank",
        "vandermonde-family",
        "stairstep-family",
    } <= names, names
    print(f"CRITERION 5 (worked-example golden corpus): PASS "
          f"({len(report['checks'])} checks, 0 failures)")


# ---------------------------------------------------------------------------
# criterion 6: mixture round trip and the duplicate-column witness


def test_criterion_6_mixture_round_trip():
    rng = random.Random(987654)
    recovered = 0
    while recovered < 200:
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        if not identifiability_gate(m).full_rank:
            continue
        weights = [Fraction(rng.randint(1, 9)) for _ in range(k)]
        pi = tuple(w / sum(weights) for w in weights)
        moments = moment_map(MixtureParams(m, pi))
        assert recover_pi(m, moments) == pi, (m, pi)
        recovered += 1

    swaps = 0
    for _ in range(25):
        n, k = rng.randint(1, 5), rng.randint(2, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        j = rng.randrange(k - 1)
        rows = [list(row) for row in m.entries]
        for row in rows:
            row[j + 1] = row[j]
        dup = RMatrix.from_rows(rows, k)
        weights = [Fraction(rng.randint(1, 9)) for _ in range(k)]
        pi = tuple(w / sum(weights) for w in weights)
        swapped = list(pi)
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        assert moment_map(MixtureParams(dup, pi)) == moment_map(
            MixtureParams(dup, tuple(swapped))
        ), (dup, pi)
        swaps += 1
    print(f"CRITERION 6 (exact weight recovery and duplicate-column swap "
          f"witness): PASS ({recovered} round trips, {swaps} swap witnesses, 0 failures)")


# ---------------------------------------------------------------------------
# criterion 7: byte-identical CLI output


GOLDEN_COMMANDS = [
    (["gen", "vandermonde", "--k", "3", "--copies", "2", "--row", "0,1,2"], ""),
    (["gen", "vandermonde", "--k", "6"], ""),
    (["gen", "hamming", "--l", "2"], ""),
    (["gen", "hamming", "--l", "3"], ""),
    (["gen", "stairstep", "--k", "3"], ""),
    (["gen", "stairstep", "--k", "6"], ""),
    (["hadext"], '{"rows":2,"cols":4,"data":[[1,-1,1,-1],[1,1,-1,-1]]}'),
    (["hadext"], '{"rows":0,"cols":3,"data":[]}'),
    (["rank"], '{"rows":2,"cols":4,"data":[[1,-1,1,-1],[1,1,-1,-1]]}'),
    (["rank"], '{"rows":2,"cols":3,"data":[[1,1,2],[1,1,3]]}'),
    (["minrows"], '{"rows":3,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2]]}'),
    (["minrows", "--exhaustive"], '{"rows":3,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2]]}'),
    (["minrows", "--exhaustive", "--size", "2"],
     '{"rows":2,"cols":4,"data":[[1,-1,1,-1],[1,1,-1,-1]]}'),
    (["eps", "--cols", "1,3"], '{"rows":2,"cols":3,"data":[["1/2",1,1],["1/2","1/2",1]]}'),
    (["nae-check"], '{"rows":2,"cols":3,"data":[[1,1,2],[1,1,3]]}'),
    (["nae-check"], '{"rows":2,"cols":3,"data":[["1/2",1,1],["1/2","1/2",1]]}'),
    (["nae-restrict"], '{"rows":3,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2]]}'),
    (["nae-restrict", "--exhaustive"], '{"rows":3,"cols":3,"data":[[0,1,2],[0,1,2],[0,1,2]]}'),
    (["blocks"], '{"v":[2,1,2,1]}'),
    (["blocks"], '{"v":["1/2","1/2",3]}'),
    (["project", "--block", "1"], '{"v":[2,1,2,1]}'),
    (["project", "--block", "2"], '{"v":[2,1,2,1]}'),
    (["invariant"], '{"basis":{"rows":2,"cols":4,"data":[[1,0,0,0],[0,1,0,1]]},"v":[2,1,2,1]}'),
    (["invariant"], '{"basis":{"rows":1,"cols":4,"data":[[1,1,0,0]]},"v":[2,1,2,1]}'),
    (["moments"], '{"m":{"rows":1,"cols":2,"data":[["1/4","3/4"]]},"pi":["1/3","2/3"]}'),
    (["moments"], '{"m":{"rows":2,"cols":2,"data":[["1/4","3/4"],["1/2","1/4"]]},"pi":["1/2","1/2"]}'),
    (["recover-pi"],
     '{"m":{"rows":1,"cols":2,"data":[["1/4","3/4"]]},'
     '"moments":{"n":1,"moments":{"0":1,"1":"7/12"}}}'),
    (["selftest"], ""),
    # domain errors also print JSON and must be reproducible
    (["nae-restrict"], '{"rows":2,"cols":3,"data":[[1,1,2],[1,1,3]]}'),
    (["hadext"], json.dumps({"rows": 21, "cols": 1, "data": [[1]] * 21})),
]


def test_criterion_7_cli_determinism():
    for argv, stdin_text in GOLDEN_COMMANDS:
        first = run_cli(argv, stdin_text)
        second = run_cli(argv, stdin_text)
        assert first == second, argv
        assert first[1].endswith("\n"), argv
    print(f"CRITERION 7 (byte-identical CLI output across runs): PASS "
          f"({len(GOLDEN_COMMANDS)} invocations, 0 differences)")
