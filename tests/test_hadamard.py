import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_POOL,
    basis,
    det_cofactor,
    exhaustive_min_rows_reference,
    extension_rows_reference,
    extension_table_reference,
    folded_rank_reference,
    greedy_min_rows_reference,
    initial_state,
    random_matrix,
)
from hadamix import (
    DomainError,
    MixtureParams,
    NotFullRank,
    RMatrix,
    Subspace,
    SubsetIndex,
    exhaustive_min_rows,
    full_extension_rank,
    greedy_min_rows,
    hadamard_extension,
    masks_by_cardinality,
    matrix_to_json,
    moment_map,
    span,
)
from hadamix import exact_core, hadamard
from hadamix.cli import main
from hadamix.exact_core import scale_to_integers
from hadamix.hadamard import RowspaceState, extend_rowspace

FOURIER_4 = RMatrix.from_rows(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
)
HAMMING_2 = RMatrix.from_rows([[1, -1, 1, -1], [1, 1, -1, -1]])


def fold_rowspace(m, row_indices):
    state = initial_state(m.n_rows, m.n_cols)
    for t in row_indices:
        state = extend_rowspace(state, m, t)
    return state.space


# ---------------------------------------------------------------------------
# extension construction


def test_extension_of_empty_matrix_is_ones_row():
    m = RMatrix.from_rows([], n_cols=3)
    ext = hadamard_extension(m)
    assert ext.entries == ((Fraction(1), Fraction(1), Fraction(1)),)


def test_extension_fourier_golden():
    assert hadamard_extension(HAMMING_2) == FOURIER_4


def test_extension_repeated_row():
    m = RMatrix.from_rows([[0, 1, 2], [0, 1, 2]])
    ext = hadamard_extension(m)
    assert ext == RMatrix.from_rows([[1, 1, 1], [0, 1, 2], [0, 1, 2], [0, 1, 4]])


def test_extension_row_order_golden():
    m = random_matrix(random.Random(0), 3, 2, SMALL_POOL)
    masks = [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    assert list(masks_by_cardinality(3)) == masks
    ext = hadamard_extension(m)
    assert len(ext.entries) == len(masks)
    for mask, values in zip(masks, ext.entries):
        expected = (Fraction(1),) * 2
        for i in SubsetIndex(3, mask):
            expected = tuple(a * b for a, b in zip(expected, m.row(i)))
        assert values == expected


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 6), st.integers(0, 4), st.data())
def test_extension_matches_per_mask_products(n, k, data):
    pool = st.sampled_from(SMALL_POOL + [Fraction(-7, 3), Fraction(5, 11)])
    m = RMatrix.from_rows([[data.draw(pool) for _ in range(k)] for _ in range(n)], k)
    ext = hadamard_extension(m)
    assert (ext.n_rows, ext.n_cols) == (1 << n, k)
    assert ext.entries == tuple(
        tuple(math.prod((m.entries[i][j] for i in SubsetIndex(n, mask)), start=Fraction(1))
              for j in range(k))
        for mask in masks_by_cardinality(n)
    )
    assert all(type(x) is Fraction for row in ext.entries for x in row)


def test_extension_guard():
    m = RMatrix.from_rows([[1]] * 21, n_cols=1)
    with pytest.raises(DomainError, match="guard"):
        hadamard_extension(m)
    # the row guard bounds only what is materialized: rank and minrows fold
    # any number of rows, and report the same rank
    for n in (21, 40):
        tall = matrix_to_json(RMatrix.from_rows([[i % 2, i % 3, 1, i % 3] for i in range(n)]))
        assert run(["rank"], tall) == (0, {"full": False, "rank": 3}), n
        assert run(["minrows"], tall) == (0, {"greedy": None, "rank": 3}), n
    wide = RMatrix(0, 1025, ())
    for refuse in [hadamard_extension, full_extension_rank, greedy_min_rows,
                   lambda m: exhaustive_min_rows(m, 0)]:
        with pytest.raises(DomainError) as err:
            refuse(wide)
        assert str(err.value) == "extension guard: at most 1024 columns (got 1025)"
    # 1024 columns still fold
    assert full_extension_rank(RMatrix.from_rows([range(1024)])) == 2


def run(argv, obj):
    """(exit code, parsed stdout) of one CLI command on a JSON document."""
    out = io.StringIO()
    code = main(argv, io.StringIO(json.dumps(obj)), out, io.StringIO())
    return code, json.loads(out.getvalue())


def hadext(m):
    out = io.StringIO()
    code = main(["hadext"], io.StringIO(json.dumps(matrix_to_json(m))), out, io.StringIO())
    return code, out.getvalue()


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 7), st.integers(0, 4), st.data())
def test_extension_matches_the_materialized_reference(n, k, data):
    # integer-only rows and rational rows whose denominators cancel (2/3, 3/2)
    integers = st.sampled_from([0, 1, -1, 3, -4])
    rationals = st.sampled_from([0, -1, Fraction(2, 3), Fraction(3, 2), Fraction(-5, 6),
                                 Fraction(9, 4), Fraction(-4, 9)])
    m = RMatrix.from_rows(
        [[data.draw(pool) for _ in range(k)]
         for pool in data.draw(st.lists(st.sampled_from([integers, rationals]),
                                        min_size=n, max_size=n))], k)
    expected = RMatrix(1 << n, k, tuple(row for _, row in extension_rows_reference(m)))
    assert hadamard_extension(m) == expected
    # the two half tables give the products of the full tables, unreduced
    assert list(hadamard._extension_table(m)) == extension_table_reference(m)
    # hadext writes each entry as rational_to_json does; from n = 5 on its
    # rows span several encoded slices
    assert hadext(m) == (0, json.dumps(matrix_to_json(expected), sort_keys=True) + "\n")


def test_extension_entry_guard():
    # 21 * 2^20 entries: the row and column guards pass, the entry guard refuses
    m = RMatrix.from_rows([range(21)] * 20)
    refusal = "extension guard: at most 20971520 entries (got 22020096)"
    hadext(m)  # the parser's own allocations
    for refuse in [hadamard_extension, hadext]:
        tracemalloc.start()
        try:
            try:
                got = refuse(m)
            except DomainError as exc:
                got = str(exc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got in (refusal, (1, '{"error": "%s", "witness": null}\n' % refusal))
        # refused before any table of 2^n entries is built
        assert peak < 1 << 20, peak


def test_extension_entry_guard_boundary(monkeypatch):
    monkeypatch.setattr(hadamard, "EXTENSION_ENTRY_GUARD", 24)
    for n, k in [(3, 3), (2, 6), (0, 24), (3, 0), (10, 0)]:
        assert hadamard_extension(RMatrix.from_rows([[2] * k] * n, k)).n_rows == 1 << n
    for n, k in [(3, 4), (0, 25), (1, 13)]:
        with pytest.raises(DomainError) as err:
            hadamard_extension(RMatrix.from_rows([[2] * k] * n, k))
        assert str(err.value) == f"extension guard: at most 24 entries (got {k << n})"


# ---------------------------------------------------------------------------
# incremental rowspace


def test_extend_rowspace_examples():
    m = RMatrix.from_rows([[0, 1, 2]])
    state = initial_state(1, 3)
    out = extend_rowspace(state, m, 0)
    assert out.space == span([(1, 1, 1), (0, 1, 2)], 3)
    assert out.space.dim == 2

    const = RMatrix.from_rows([[5, 5, 5]])
    grown = extend_rowspace(initial_state(1, 3), const, 0)
    assert grown.space.dim == 1

    full = RowspaceState(
        SubsetIndex(2, 0), span([(1, 0), (0, 1)], 2)
    )
    m2 = RMatrix.from_rows([[3, 7], [1, 1]])
    assert extend_rowspace(full, m2, 0).space.dim == 2


def test_rowspace_state_requires_ones_vector():
    with pytest.raises(DomainError):
        RowspaceState(SubsetIndex(1, 0), span([(1, 0)], 2))
    fine = RowspaceState(SubsetIndex(1, 0), span([(1, 1)], 2))
    assert fine.space.dim == 1


def test_extend_rowspace_errors():
    m = RMatrix.from_rows([[1, 2]])
    state = initial_state(1, 2)
    with pytest.raises(DomainError):
        extend_rowspace(state, m, 1)
    once = extend_rowspace(state, m, 0)
    with pytest.raises(DomainError):
        extend_rowspace(once, m, 0)


def test_fold_vs_materialize_random():
    rng = random.Random(23)
    for _ in range(120):
        n, k = rng.randint(0, 6), rng.randint(1, 5)
        m = random_matrix(rng, n, k, SMALL_POOL)
        assert full_extension_rank(m) == span(hadamard_extension(m).entries, k).dim


def test_single_row_always_grows_a_strict_subspace():
    # whenever the rowspace over S is strictly below the full extension's,
    # some single extra row already grows it
    rng = random.Random(97)
    for _ in range(80):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        m = random_matrix(rng, n, k, SMALL_POOL)
        full_rank = full_extension_rank(m)
        s_mask = rng.randrange(1 << n)
        members = [i for i in range(n) if (s_mask >> i) & 1]
        state = RowspaceState(
            SubsetIndex(n, s_mask), fold_rowspace(m, members)
        )
        if state.space.dim == full_rank:
            continue
        grew = any(
            extend_rowspace(state, m, t).space.dim > state.space.dim
            for t in range(n)
            if t not in state.chosen_rows
        )
        assert grew, (m, s_mask)


def test_rowspace_monotone_under_more_rows():
    rng = random.Random(29)
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        m = random_matrix(rng, n, k, SMALL_POOL)
        s_mask = rng.randrange(1 << n)
        extra = rng.randrange(1 << n)
        small = fold_rowspace(m, [i for i in range(n) if (s_mask >> i) & 1])
        big = fold_rowspace(m, [i for i in range(n) if ((s_mask | extra) >> i) & 1])
        assert all(big.contains(scale_to_integers(r)[1]) for r in basis(small).entries)


def test_a_row_that_fails_to_grow_fails_on_every_superset():
    # the lemma behind the one-pass greedy: if s leaves U_C unchanged, it
    # leaves U_C' unchanged for every C' containing C but not s
    rng = random.Random(61)
    hits = 0
    for _ in range(150):
        n, k = rng.randint(2, 6), rng.randint(1, 5)
        m = random_matrix(rng, n, k, SMALL_POOL)
        s = rng.randrange(n)
        others = (1 << n) - 1 & ~(1 << s)
        c_mask = rng.randrange(1 << n) & others

        def grows(mask):
            chosen = SubsetIndex(n, mask)
            state = RowspaceState(chosen, fold_rowspace(m, chosen))
            return extend_rowspace(state, m, s).space != state.space

        if grows(c_mask):
            continue
        for _ in range(4):
            big_mask = c_mask | rng.randrange(1 << n) & others
            assert not grows(big_mask), (m, s, c_mask, big_mask)
            hits += big_mask != c_mask
    assert hits >= 50


# ---------------------------------------------------------------------------
# rank of the full extension


def test_full_extension_rank_examples():
    assert full_extension_rank(HAMMING_2) == 4
    m = RMatrix.from_rows([[0, 1, 2], [0, 1, 2]])
    assert det_cofactor([[Fraction(1)] * 3, [0, 1, 2], [0, 1, 4]]) == 2
    assert full_extension_rank(m) == 3
    dup_cols = RMatrix.from_rows([[1, 1, 2], [1, 1, 3]])
    assert full_extension_rank(dup_cols) < 3


# ---------------------------------------------------------------------------
# greedy certificate


def test_greedy_examples():
    m = RMatrix.from_rows([[0, 1, 2], [0, 1, 2]])
    found = greedy_min_rows(m)
    assert found == SubsetIndex.from_members(2, [0, 1])
    assert len(found) == 2 == m.n_cols - 1

    found = greedy_min_rows(HAMMING_2)
    assert found == SubsetIndex.from_members(2, [0, 1])
    assert len(found) == 2 < HAMMING_2.n_cols - 1

    const = RMatrix.from_rows([[7, 7]])
    assert greedy_min_rows(const) == NotFullRank(1)


@pytest.mark.parametrize("k", [8, 16])
def test_greedy_folds_each_row_at_most_once(fold_dims, k):
    # k constant rows grow nothing; then k-1 copies of a distinct-entry row
    # grow the space by one each. Restarting at row 0 after each accepted
    # row re-probes every constant row: (k + 1)(k - 1) folds
    rows = [[c] * k for c in range(1, k + 1)] + [list(range(k))] * (k - 1)
    m = RMatrix.from_rows(rows, k)
    found = greedy_min_rows(m)
    assert len(fold_dims) <= m.n_rows == 2 * k - 1
    assert found == SubsetIndex(m.n_rows, (1 << m.n_rows) - (1 << k))
    assert found == greedy_min_rows_reference(m)


def test_greedy_answers_on_a_hundred_rows():
    # constant rows grow nothing, so the certificate lies among the few
    # random rows, placed past the 62nd; a copied column keeps the rank below k
    rng = random.Random(19)
    outcomes = set()
    for trial in range(8):
        k = rng.randint(2, 5)
        rows = [[rng.choice(SMALL_POOL)] * k for _ in range(100)]
        for i in rng.sample(range(60, 100), 5):
            rows[i] = [rng.choice(SMALL_POOL) for _ in range(k)]
            if trial % 2:
                rows[i][-1] = rows[i][0]
        m = RMatrix.from_rows(rows, k)
        found = greedy_min_rows(m)
        assert found == greedy_min_rows_reference(m), rows
        rank = full_extension_rank(m)
        if isinstance(found, NotFullRank):
            assert found.rank == rank < k
        else:
            assert rank == k and found.size == 100 and max(found) >= 60
            assert full_extension_rank(m.restrict_rows(found)) == k
        outcomes.add(type(found))
    assert outcomes == {SubsetIndex, NotFullRank}


def test_greedy_trivial_cases():
    # k = 1: the ones row alone spans, no rows needed
    assert greedy_min_rows(RMatrix.from_rows([[5], [3]])) == SubsetIndex(2, 0)
    # no rows at all
    assert greedy_min_rows(RMatrix.from_rows([], n_cols=2)) == NotFullRank(1)


def test_greedy_certificate_property():
    rng = random.Random(31)
    hits = 0
    while hits < 60:
        n, k = rng.randint(1, 6), rng.randint(2, 5)
        m = random_matrix(rng, n, k, SMALL_POOL)
        rank = full_extension_rank(m)
        found = greedy_min_rows(m)
        if rank == k:
            assert isinstance(found, SubsetIndex)
            assert len(found) <= k - 1
            assert full_extension_rank(m.restrict_rows(found)) == k
            hits += 1
        else:
            # the greedy never stalls below the true extension rank
            assert found == NotFullRank(rank)


# ---------------------------------------------------------------------------
# exhaustive scan


def test_exhaustive_examples():
    m = RMatrix.from_rows([[0, 1, 2], [0, 1, 2]])
    assert exhaustive_min_rows(m, 2) == [SubsetIndex.from_members(2, [0, 1])]

    dup_cols = RMatrix.from_rows([[1, 1, 2], [1, 1, 3]])
    for size in range(3):
        assert exhaustive_min_rows(dup_cols, size) == []

    vandermonde = RMatrix.from_rows([[0, 1, 2]] * 3)
    masks = [s.mask for s in exhaustive_min_rows(vandermonde, 2)]
    assert masks == [0b011, 0b101, 0b110]


def test_exhaustive_guards():
    m = RMatrix.from_rows([[1]] * 40, n_cols=1)
    with pytest.raises(DomainError, match="guard"):
        exhaustive_min_rows(m, 20)
    with pytest.raises(DomainError):
        exhaustive_min_rows(m, 41)


def test_exhaustive_prune_alone_answers_below_log2_k(fold_dims):
    # a fold at most doubles the dimension, so with 2^size < k no subset of
    # that size can reach rank k and the walk answers [] without a fold
    rng = random.Random(43)
    for k in (2, 3, 4, 5, 8, 9, 16):
        m = random_matrix(rng, 6, k, SMALL_POOL)
        for size in range(math.ceil(math.log2(k))):
            fold_dims.clear()
            assert exhaustive_min_rows(m, size) == []
            assert fold_dims == [], (k, size)
            assert exhaustive_min_rows_reference(m, size) == []


# ---------------------------------------------------------------------------
# the short-circuiting folds against the earlier extend_rowspace loops


@st.composite
def fold_inputs(draw, max_k=6):
    """A matrix with n 0-6, k 1-max_k, and a subset size 0..n.

    Entries come from a small pool, so equal values are common; on top of
    that, a column may be copied onto another, a row zeroed and a row
    repeated.
    """
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, max_k))
    entry = st.sampled_from([0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 7)])
    rows = [[draw(entry) for _ in range(k)] for _ in range(n)]
    index = st.integers(0, k - 1)
    if draw(st.booleans()):
        src, dst = draw(index), draw(index)
        for row in rows:
            row[dst] = row[src]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * k
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[j] = list(rows[i])
    return RMatrix.from_rows(rows, k), draw(st.integers(0, n))


@settings(deadline=None, max_examples=200)
@given(fold_inputs())
def test_folds_match_the_extend_rowspace_references(data):
    m, size = data
    assert full_extension_rank(m) == folded_rank_reference(m)
    # the same certificate, or the same NotFullRank with the same rank
    assert greedy_min_rows(m) == greedy_min_rows_reference(m)
    assert exhaustive_min_rows(m, size) == exhaustive_min_rows_reference(m, size)


# ---------------------------------------------------------------------------
# fold counts of the exhaustive walk


def test_exhaustive_folds_each_prefix_once(fold_dims):
    n, k, size = 8, 5, 4
    m = random_matrix(random.Random(8), n, k, SMALL_POOL)
    found = exhaustive_min_rows(m, size)
    folds = len(fold_dims)
    assert all(d < k for d in fold_dims)
    assert folds <= sum(math.comb(n, r) for r in range(1, size + 1))
    # folding every subset from scratch takes size * C(n, size)
    assert folds < size * math.comb(n, size)
    assert found == exhaustive_min_rows_reference(m, size)
    assert found  # the scan has something to find


def test_exhaustive_scales_no_row(monkeypatch, fold_dims):
    # m holds its rows scaled to integers, however many prefixes fold them,
    # and the starting span is of the integer ones row: nothing is scaled
    n, k, size = 8, 5, 4
    m = random_matrix(random.Random(8), n, k, SMALL_POOL)
    expected = exhaustive_min_rows_reference(m, size)
    calls = []
    scale = exact_core.scale_to_integers

    def counted(vec):
        calls.append(vec)
        return scale(vec)

    monkeypatch.setattr(exact_core, "scale_to_integers", counted)
    monkeypatch.setattr(hadamard, "scale_to_integers", counted, raising=False)
    assert exhaustive_min_rows(m, size) == expected
    assert len(fold_dims) > 2 * n  # many folds per row
    assert calls == []


def test_exhaustive_stops_folding_under_a_full_rank_prefix(fold_dims):
    # rows 3 and 4 are HAMMING_2, whose extension alone has rank 4, so the
    # prefix {4, 3} is full rank and its completions need no fold
    rows = [[2, 0, 1, 3], [1, 2, 2, 1], [0, 0, 1, 1]] + [list(r) for r in HAMMING_2.entries]
    m = RMatrix.from_rows(rows, 4)
    found = exhaustive_min_rows(m, 3)
    assert all(d < 4 for d in fold_dims)
    assert found == exhaustive_min_rows_reference(m, 3)
    masks = [s.mask for s in found]
    assert {0b11001, 0b11010, 0b11100} <= set(masks)
    assert masks == sorted(masks)



def test_matrices_with_no_columns():
    # the ones row of width 0 is empty (math.gcd() = 0): every space is {0},
    # already of full rank 0, so every subset certifies it
    for n in (3, 0):
        m = RMatrix(n, 0, ((),) * n)
        assert full_extension_rank(m) == 0
        assert greedy_min_rows(m) == SubsetIndex(n, 0)
        assert exhaustive_min_rows(m, 0) == [SubsetIndex(n, 0)]
        matrix = matrix_to_json(m)
        assert run(["rank"], matrix) == (0, {"full": True, "rank": 0})
        assert run(["minrows", "--exhaustive"], matrix) == (
            0, {"exhaustive": [[]], "greedy": [], "rank": 0})
    m = RMatrix(3, 0, ((),) * 3)
    assert exhaustive_min_rows(m, 1) == [SubsetIndex(3, 1 << i) for i in range(3)]
    assert run(["minrows", "--exhaustive", "--size", "1"], matrix_to_json(m)) == (
        0, {"exhaustive": [[1], [2], [3]], "greedy": [], "rank": 0})
    with pytest.raises(DomainError, match="subset size 1 out of range for 0 rows"):
        exhaustive_min_rows(RMatrix(0, 0, ()), 1)


# ---------------------------------------------------------------------------
# the all-ones row: in every folded space by construction


@settings(deadline=None, max_examples=200)
@given(fold_inputs(max_k=5))
def test_the_ones_row_lies_in_every_folded_space(data):
    # the empty product is a row of every extension: the ones row reduces to
    # zero against every space the in-order fold and the exhaustive walk
    # reach. Each space a fold starts from is a starting span or the result
    # of an earlier fold, so recording those covers them all.
    m, size = data
    k = m.n_cols
    spaces = []

    def recorded(fn):
        def call(*args):
            spaces.append(fn(*args))
            return spaces[-1]
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hadamard, "span", recorded(span))
        patch.setattr(Subspace, "extend_odot", recorded(Subspace.extend_odot))
        hadamard._fold(m)
        exhaustive_min_rows(m, size)
    assert len(spaces) >= 2  # the two starting spans
    for u in spaces:
        assert u.contains([1] * k), (m, u)


def test_commands_build_no_rowspace_state(monkeypatch):
    built = []
    check = RowspaceState.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(RowspaceState, "__post_init__", counted)
    m = RMatrix.from_rows([["1/4", "1/2", "3/4"]] * 2)
    moments = moment_map(MixtureParams(m, ("1/6", "1/3", "1/2"))).to_json_obj()
    matrix = matrix_to_json(m)
    assert run(["rank"], matrix) == (0, {"full": True, "rank": 3})
    assert run(["minrows", "--exhaustive"], matrix) == (
        0, {"exhaustive": [[1, 2]], "greedy": [1, 2], "rank": 3})
    assert run(["recover-pi"], {"m": matrix, "moments": moments}) == (
        0, {"pi": ["1/6", "1/3", "1/2"]})
    assert built == []
    # the count sees the state that extend_rowspace still builds
    extend_rowspace(initial_state(2, 3), m, 0)
    assert len(built) == 2
