import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_POOL,
    _constant_counts_reference,
    _largest_deficient_columns_reference,
    drop_row,
    eps_bar_reference,
    nae_restrict_reference,
    random_matrix,
    restrict_cols,
)
from hadamix import (
    DomainError,
    RMatrix,
    SubsetIndex,
    eps,
    eps_bar,
    exhaustive_min_rows,
    exhaustive_nae_restrict,
    full_extension_rank,
    masks_of_weight,
    nae,
    nae_restrict,
    nae_rows,
)
from hadamix.examples import gen_stairstep

STAIRSTEP_3 = RMatrix.from_rows(
    [[Fraction(1, 2), 1, 1], [Fraction(1, 2), Fraction(1, 2), 1]]
)


def brute_eps_bar(m):
    """Definitional minimum of eps over nonempty column subsets."""
    best, best_mask = None, None
    for mask in range(1, 1 << m.n_cols):
        e = eps(m, SubsetIndex(m.n_cols, mask))
        if best is None or e < best:
            best, best_mask = e, mask
    return best, best_mask


# ---------------------------------------------------------------------------
# nonconstant rows and deficiency


def test_nae_rows_examples():
    m = RMatrix.from_rows([[1, 1, 2], [1, 1, 3]])
    for j in range(3):
        assert nae_rows(m, SubsetIndex.from_members(3, [j])).mask == 0
    assert nae_rows(m, SubsetIndex.from_members(3, [0, 1])).mask == 0
    assert nae_rows(STAIRSTEP_3, SubsetIndex(3, 0b111)) == SubsetIndex.from_members(2, [0, 1])


def test_nae_rows_empty_columns_rejected():
    m = RMatrix.from_rows([[1, 2]])
    with pytest.raises(DomainError):
        nae_rows(m, SubsetIndex(2, 0))
    with pytest.raises(DomainError):
        eps(m, SubsetIndex(2, 0))


def test_eps_examples():
    m = RMatrix.from_rows([[1, 1, 2], [1, 1, 3]])
    assert eps(m, SubsetIndex.from_members(3, [0])) == -1
    assert eps(m, SubsetIndex.from_members(3, [0, 1])) == -2
    assert eps(STAIRSTEP_3, SubsetIndex.from_members(3, [0, 2])) == 0


def test_eps_bar_examples():
    report = eps_bar(STAIRSTEP_3)
    assert report.eps_bar == -1
    assert report.satisfies_nae

    report = eps_bar(RMatrix.from_rows([[1, 1, 2], [1, 1, 3]]))
    assert report.eps_bar == -2
    assert report.witness_columns == SubsetIndex.from_members(3, [0, 1])
    assert not report.satisfies_nae

    one_varying = RMatrix.from_rows([[1, 2, 3], [5, 5, 5]])
    assert eps_bar(one_varying).eps_bar <= -2


def test_eps_bar_matches_definitional_scan():
    rng = random.Random(37)
    for _ in range(120):
        n, k = rng.randint(0, 6), rng.randint(1, 5)
        m = random_matrix(rng, n, k, SMALL_POOL)
        report = eps_bar(m)
        best, best_mask = brute_eps_bar(m)
        assert report.eps_bar == best
        assert report.witness_columns.mask == best_mask
        assert report.eps_bar == eps(m, report.witness_columns)
        assert report.nae_rows_of_witness == nae_rows(m, report.witness_columns)


def test_eps_bar_guard():
    wide = RMatrix.from_rows([list(range(21))], n_cols=21)
    with pytest.raises(DomainError, match="guard"):
        eps_bar(wide)


def test_eps_bar_drops_at_most_one_per_deleted_row():
    rng = random.Random(41)
    for _ in range(80):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        m = random_matrix(rng, n, k, SMALL_POOL)
        before = eps_bar(m).eps_bar
        t = rng.randrange(n)
        after = eps_bar(drop_row(m, t)).eps_bar
        assert before - 1 <= after <= before


def test_color_invariance():
    rng = random.Random(43)
    for _ in range(60):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, n, k, SMALL_POOL)
        relabeled = []
        for row in m.entries:
            distinct = sorted(set(row))
            # injective per-row relabeling: same pattern, fresh values
            table = {v: Fraction(rng.randint(100, 10**6) * 2 + i) for i, v in enumerate(distinct)}
            relabeled.append([table[v] for v in row])
        m2 = RMatrix.from_rows(relabeled, k)
        a, b = eps_bar(m), eps_bar(m2)
        assert a.eps_bar == b.eps_bar
        assert a.witness_columns == b.witness_columns
        assert a.nae_rows_of_witness == b.nae_rows_of_witness


# ---------------------------------------------------------------------------
# constructive restriction


def test_nae_restrict_examples():
    single_col = RMatrix.from_rows([[1], [5], [5]])
    assert nae_restrict(single_col) == SubsetIndex(3, 0)

    vandermonde = RMatrix.from_rows([[0, 1, 2]] * 3)
    assert nae_restrict(vandermonde) == SubsetIndex.from_members(3, [0, 1])

    stacked = RMatrix.from_rows(
        [[Fraction(1, 2), 1, 1], [Fraction(1, 2), Fraction(1, 2), 1], [Fraction(1, 2), 1, 1]]
    )
    rows = nae_restrict(stacked)
    assert len(rows) == 2
    assert eps_bar(stacked.restrict_rows(rows)).eps_bar == -1
    assert rows in exhaustive_nae_restrict(stacked)


def test_nae_restrict_preconditions():
    bad = RMatrix.from_rows([[1, 1, 2], [1, 1, 3]])
    with pytest.raises(DomainError) as err:
        nae_restrict(bad)
    assert err.value.witness is not None

    # With n < k-1 rows the set of all columns has eps <= n - k <= -2, so
    # the NAE check refuses before any row count could.
    short = [
        RMatrix.from_rows([[0, 1, 2]]),
        RMatrix.from_rows([list(range(5))] * 2),
        RMatrix(0, 3, ()),
    ]
    for m in short:
        with pytest.raises(DomainError) as err:
            nae_restrict(m)
        assert str(err.value) == f"NAE condition fails: eps_bar = {m.n_rows - m.n_cols} < -1"
        assert err.value.witness.witness_columns == SubsetIndex(m.n_cols, (1 << m.n_cols) - 1)


def test_exhaustive_nae_restrict_examples():
    vandermonde = RMatrix.from_rows([[0, 1, 2]] * 3)
    assert [s.mask for s in exhaustive_nae_restrict(vandermonde)] == [0b011, 0b101, 0b110]

    violating = RMatrix.from_rows([[1, 1, 2], [1, 1, 3]])
    assert exhaustive_nae_restrict(violating) == []

    tight = STAIRSTEP_3  # n = k-1 and the NAE condition holds
    assert exhaustive_nae_restrict(tight) == [SubsetIndex(2, 0b11)]
    assert nae_restrict(tight) == SubsetIndex(2, 0b11)


def test_constructive_restriction_matches_oracle():
    rng = random.Random(47)
    satisfied = 0
    while satisfied < 120:
        k = rng.randint(1, 5)
        n = rng.randint(max(k - 1, 0), 7)
        rows = []
        for _ in range(n):
            if rng.random() < 0.5:
                values = rng.sample(range(-8, 9), k)
                rows.append([Fraction(v) for v in values])
            else:
                rows.append([Fraction(rng.choice(SMALL_POOL[:3])) for _ in range(k)])
        m = RMatrix.from_rows(rows, k)
        if eps_bar(m).eps_bar < -1:
            continue
        satisfied += 1
        certificates = exhaustive_nae_restrict(m)
        assert certificates, m
        found = nae_restrict(m)
        assert found in certificates
        assert len(found) == k - 1
        assert eps_bar(m.restrict_rows(found)).eps_bar == -1
        # deficiency >= -1 forces a full-rank extension
        assert full_extension_rank(m) == k


def test_nae_condition_not_necessary_for_rank():
    hamming = RMatrix.from_rows([[1, -1, 1, -1], [1, 1, -1, -1]])
    assert full_extension_rank(hamming) == 4
    assert eps_bar(hamming).eps_bar == -2


def test_exhaustive_nae_restrict_matches_definitional_enumeration():
    rng = random.Random(53)
    for trial in range(60):
        k = rng.randint(1, 5)
        n = rng.randint(0, 7)
        if trial % 3 == 0:
            rows = [list(range(k))] * n  # Vandermonde copies
        else:
            rows = [[rng.choice(SMALL_POOL[:3]) for _ in range(k)] for _ in range(n)]
        m = RMatrix.from_rows(rows, k)
        expected = sorted(
            sum(1 << i for i in subset)
            for subset in combinations(range(n), k - 1)
            if brute_eps_bar(m.restrict_rows(SubsetIndex.from_members(n, subset)))[0] == -1
        )
        assert [s.mask for s in exhaustive_nae_restrict(m)] == expected, m


class _Trap:
    """An integer-row entry that fails the test when it is read."""

    def __hash__(self):
        pytest.fail("entries were walked")

    def __eq__(self, other):
        pytest.fail("entries were walked")


def test_nae_rows_checks_its_columns_before_the_entry_walk():
    # the rows as the JSON reader holds them, scaled to integers
    trapped = RMatrix._trusted(63, 3, (1,) * 63, ((_Trap(),) * 3,) * 63, None)
    with pytest.raises(DomainError, match="column set must be nonempty"):
        nae_rows(trapped, SubsetIndex(3))
    with pytest.raises(DomainError, match="does not match 3 columns"):
        nae_rows(trapped, SubsetIndex(2, 1))
    # nothing is packed, so any number of rows is walked
    m = RMatrix.from_rows([[1, 2, 3]] * 63, 3)
    assert nae_rows(m, SubsetIndex(3, 0b011)) == SubsetIndex(63, (1 << 63) - 1)
    assert eps(m, SubsetIndex(3, 0b011)) == 61


def test_exhaustive_nae_restrict_builds_one_popcount_table():
    # every scan has k-1 rows over k columns: one cached table per shape
    for m in (RMatrix.from_rows([list(range(6))] * 9, 6), STAIRSTEP_3,
              random_matrix(random.Random(5), 8, 5, SMALL_POOL)):
        nae._popcounts.cache_clear()
        got = exhaustive_nae_restrict(m)
        assert nae._popcounts.cache_info().misses == 1
        assert exhaustive_nae_restrict(m) == got
        assert nae._popcounts.cache_info().misses == 1
        # the same answer with one table per scan
        assert got == [
            SubsetIndex(m.n_rows, mask)
            for mask in masks_of_weight(m.n_rows, m.n_cols - 1)
            if eps_bar(m.restrict_rows(SubsetIndex(m.n_rows, mask))).eps_bar == -1
        ]


def test_exhaustive_nae_restrict_guards():
    # the subset guard comes first, the column guard only once a subset exists
    with pytest.raises(DomainError, match=r"subset scan guard: C\(40,20\)"):
        exhaustive_nae_restrict(RMatrix.from_rows([list(range(21))] * 40, 21))
    with pytest.raises(DomainError, match="column scan guard: at most 20 columns"):
        exhaustive_nae_restrict(RMatrix.from_rows([list(range(21))] * 20, 21))
    assert exhaustive_nae_restrict(RMatrix.from_rows([list(range(22))] * 3, 22)) == []
    with pytest.raises(DomainError, match="at least one column"):
        exhaustive_nae_restrict(RMatrix(2, 0, ((), ())))


def test_exhaustive_nae_restrict_refuses_before_scanning(monkeypatch):
    def no_scan(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(nae, "_constant_table", no_scan)
    # each (k-1)-row subset costs a scan of 2^k column sets
    for n, subsets in [(17, 2380), (20, 77520)]:
        m = RMatrix.from_rows([list(range(14))] * n, 14)
        with pytest.raises(DomainError) as err:
            exhaustive_nae_restrict(m)
        assert str(err.value) == (
            f"exhaustive scan guard: C({n},13) * 2^14 = {subsets << 14}"
            " column sets exceeds 10000000"
        )
    # 63 rows pass the subset guard, C(63,1) = 63, but not the row guard
    m = RMatrix.from_rows([[1, 1]] * 63, 2)
    with pytest.raises(DomainError, match=r"^ground-set size guard: 0 <= size <= 62 \(got 63\)$"):
        exhaustive_nae_restrict(m)
    monkeypatch.undo()
    # C(16,13) * 2^14 = 9,175,040 is within the guard
    m = RMatrix.from_rows([list(range(14))] * 16, 14)
    assert len(exhaustive_nae_restrict(m)) == 560


COLOURS = [0, 1, Fraction(1, 2), -3]


@st.composite
def nae_matrices(draw):
    """Small matrices over 2-4 colours, Vandermonde copies among them, with
    duplicated rows and columns; many fail NAE."""
    k = draw(st.integers(1, 7))
    n = draw(st.integers(0, 9))
    pool = COLOURS[: draw(st.integers(2, 4))]
    vandermonde = list(draw(st.permutations(range(k))))
    all_vandermonde = draw(st.booleans())
    rows = [
        list(vandermonde)
        if all_vandermonde or draw(st.booleans())
        else draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        for _ in range(n)
    ]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        rows[draw(st.integers(0, n - 1))] = list(rows[draw(st.integers(0, n - 1))])
    for _ in range(draw(st.integers(0, 2))):
        target, source = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        for row in rows:
            row[target] = row[source]
    return RMatrix.from_rows(rows, k)


def _outcome(fn, m):
    try:
        return fn(m)
    except DomainError as exc:
        return str(exc), exc.witness


@settings(deadline=None, max_examples=150)
@given(nae_matrices())
def test_nae_restrict_matches_the_recursive_reference(m):
    assert eps_bar(m) == eps_bar_reference(m)
    assert _outcome(nae_restrict, m) == _outcome(nae_restrict_reference, m)


def test_nae_restrict_builds_few_count_tables(monkeypatch):
    real = nae._constant_table
    builds = 0

    def counting(*args):
        nonlocal builds
        builds += 1
        return real(*args)

    monkeypatch.setattr(nae, "_constant_table", counting)
    k, n = 8, 12
    rows = nae_restrict(RMatrix.from_rows([list(range(k))] * n, k))
    # the recursion without memoised subproblems made over 36,000 scans
    assert builds <= n * k
    assert rows == SubsetIndex(n, (1 << (k - 1)) - 1)

    monkeypatch.undo()
    k, n = 10, 14
    m = RMatrix.from_rows([list(range(k))] * n, k)
    assert nae_restrict(m) in exhaustive_nae_restrict(m)


# ---------------------------------------------------------------------------
# the packed subset-count table against the list-based references


def _fields(table, width, size):
    """The fields of a packed table, as a list indexed by column set."""
    mask = (1 << (8 * size)) - 1
    return [table >> (8 * size * s) & mask for s in range(1 << width)]


@st.composite
def table_cases(draw):
    """A matrix (Fraction or plain-int entries; each row random, constant,
    all-distinct or a staircase step; sometimes enough rows for multi-byte
    fields) with a row mask that may skip rows and a nonempty column mask
    that may skip columns."""
    k = draw(st.integers(1, 7))
    n = draw(st.sampled_from([draw(st.integers(0, 9)), draw(st.integers(40, 62))]))
    pool = [0, 1, 2, -3, 5][: draw(st.integers(1, 5))]
    shapes = draw(st.lists(st.sampled_from("rcds"), min_size=1, max_size=4))
    rows = []
    for i in range(n):
        shape = shapes[i % len(shapes)]
        if shape == "r":
            rows.append([draw(st.sampled_from(pool)) for _ in range(k)])
        elif shape == "c":
            rows.append([draw(st.sampled_from(pool))] * k)
        elif shape == "d":
            rows.append(list(draw(st.permutations(range(k)))))
        else:
            step = draw(st.integers(0, k))
            rows.append([0] * step + [1] * (k - step))
    if draw(st.booleans()):
        m = RMatrix(n, k, tuple(tuple(row) for row in rows))  # plain ints
    else:
        m = RMatrix.from_rows([[Fraction(v, 2) for v in row] for row in rows], k)
    row_mask = draw(st.integers(0, (1 << n) - 1))
    col_mask = draw(st.integers(1, (1 << k) - 1))
    return m, row_mask, col_mask


@settings(deadline=None, max_examples=200)
@given(table_cases(), st.integers(0, 2))
def test_packed_scan_matches_the_list_references(case, extra_bytes):
    m, row_mask, col_mask = case
    sub = restrict_cols(m, SubsetIndex(m.n_cols, col_mask)).restrict_rows(
        SubsetIndex(m.n_rows, row_mask)
    )
    n, width = sub.n_rows, sub.n_cols
    classes = nae._restrict_classes(nae._row_classes(m), col_mask)
    # every field width that holds the sums, one to three bytes wider
    size = nae._field_bytes(n * width + width) + extra_bytes
    counts = _constant_counts_reference(sub)
    table = _fields(nae._constant_table(classes, row_mask, width, size), width, size)
    assert table[0] == n  # every row is constant on the empty set
    assert table[1:] == counts[1:]

    best, witness, largest = nae._scan(classes, row_mask, width, n >= width > 1)
    reference = eps_bar_reference(sub)
    assert (best, witness) == (reference.eps_bar, reference.witness_columns.mask)
    if best == -1 and n >= width > 1:
        assert largest == _largest_deficient_columns_reference(sub).mask
    else:
        assert largest == 0


def test_find_skips_matches_across_two_fields():
    # two-byte fields 256 and 257: 257's bytes first match at byte 1, across
    # fields 0 and 1, so the search goes on to field 1; fields 256 and 1
    # hold no other match
    assert nae._find(bytes([0, 1, 1, 1]), 2, 257) == 1
    assert nae._find(bytes([0, 1, 1, 0]), 2, 257) == -1


def test_packed_scan_reads_two_byte_fields():
    # 62 rows on 8 columns, column 5 a copy of column 2: the empty set's
    # field sums more than 255 classes while the transform runs, so the
    # fields take two bytes
    k, n = 8, 62
    rng = random.Random(59)
    rows = [[rng.randrange(8) for _ in range(k)] for _ in range(n)]
    for row in rows:
        row[4] = row[1]
    m = RMatrix(n, k, tuple(tuple(row) for row in rows))
    classes = nae._row_classes(m)
    assert sum(len(p) * group.bit_count() for group, p in classes) > 255
    assert nae._field_bytes(n * k) == 2
    report = eps_bar(m)
    assert report == eps_bar_reference(m)
    assert (report.eps_bar, report.witness_columns.mask) == (-2, 0b10010)


def test_eps_bar_at_the_column_guard():
    k = 20
    m = RMatrix.from_rows(
        [
            list(range(k)),
            [j // 10 for j in range(k)],
            [0] * (k - 1) + [1],
            [j % 2 for j in range(k)],
        ],
        k,
    )
    report = eps_bar(m)
    assert report == eps_bar_reference(m)
    # row 2 is constant on the first 19 columns: 3 - 19, as low as all 20
    assert (report.eps_bar, report.witness_columns.mask) == (-16, (1 << 19) - 1)
    # 19 rows: two-byte fields over 2^20 column sets
    report = eps_bar(gen_stairstep(k))
    assert (report.eps_bar, report.witness_columns.mask) == (-1, 1)


def test_both_exhaustive_scans_refuse_with_one_text(monkeypatch):
    # one guard counts C(n, s) for the row subsets of both scans
    monkeypatch.setattr(nae, "_row_classes", lambda m: pytest.fail("classes were built"))
    m = RMatrix.from_rows([list(range(11))] * 30, 11)
    refusal = "subset scan guard: C(30,10) = 30045015 exceeds 1000000"
    for scan in (exhaustive_nae_restrict, lambda m: exhaustive_min_rows(m, 10)):
        with pytest.raises(DomainError) as err:
            scan(m)
        assert str(err.value) == refusal
