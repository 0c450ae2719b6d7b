import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_POOL,
    ZERO,
    basis,
    complement,
    det_cofactor,
    diagonal_matrix,
    drop_row,
    extend_odot_reference,
    matrix_from_json_reference,
    minor_rank,
    orthogonal_complement,
    random_matrix,
    restrict_cols,
)
from hadamix import (
    DomainError,
    InputFormatError,
    RMatrix,
    SubsetIndex,
    hadamard_extension,
    masks_by_cardinality,
    masks_of_weight,
    matrix_from_json,
    matrix_to_json,
    span,
)
from hadamix import exact_core
from hadamix.exact_core import as_vector, rational_to_json, scale_to_integers, solve_square

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


# ---------------------------------------------------------------------------
# rational scalars


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9),
       st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_arithmetic_matches_cross_multiplication(p1, q1, p2, q2):
    a, b = Fraction(p1, q1), Fraction(p2, q2)
    # oracle: arithmetic on raw integer pairs, compared by cross-multiplication
    assert a + b == Fraction(p1 * q2 + p2 * q1, q1 * q2)
    assert a - b == Fraction(p1 * q2 - p2 * q1, q1 * q2)
    assert a * b == Fraction(p1 * p2, q1 * q2)
    if p2 != 0:
        assert a / b == Fraction(p1 * q2, q1 * p2)
    assert (a == b) == (p1 * q2 == p2 * q1)
    assert (a < b) == (p1 * q2 < p2 * q1)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_lowest_terms_positive_denominator(p, q):
    x = Fraction(p, q)
    assert x.denominator > 0
    assert math.gcd(x.numerator, x.denominator) == 1


def test_as_rational_parsing():
    # as_vector is the one coercer: each value read as a rational
    third = Fraction(2, 3)
    got = as_vector(["3/6", "-5/2", "7", third])
    assert got == (Fraction(1, 2), Fraction(-5, 2), 7, third)
    assert got[3] is third and all(type(x) is Fraction for x in got)
    for bad in ("1/0", "x", True):
        with pytest.raises(InputFormatError):
            as_vector([1, bad])
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 1) / Fraction(0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0", "not a rational"),  # int() would read 10
        ("\u0663", "not a rational"),  # Arabic-Indic three; int() would read 3
        (" 1 / 2 ", "not a rational"),
        ("1/0", "denominator must be positive"),
        ("+1", "not a rational"),
        ("1/-2", "not a rational"),
        ("1.5", "not a rational"),
        ("-", "not a rational"),
        ("", "not a rational"),
        pytest.param("9" * 5000, "not a rational", id="past-int-digit-limit"),
    ],
)
def test_as_rational_strict_grammar(text, message):
    with pytest.raises(InputFormatError, match=message):
        as_vector([text])


def test_rational_json_encoding():
    assert rational_to_json(Fraction(3)) == 3
    assert rational_to_json(Fraction(-1, 2)) == "-1/2"
    assert as_vector(["-1/2", 4]) == (Fraction(-1, 2), 4)
    for bad in (0.5, True):
        with pytest.raises(InputFormatError, match="entry must be an integer or 'a/b' string"):
            as_vector([bad])


# ---------------------------------------------------------------------------
# hadamard product: the rows of the extension


def extension_rows(rows):
    """Row of the extension of `rows` for each subset mask."""
    m = RMatrix.from_rows(rows)
    return dict(zip(masks_by_cardinality(m.n_rows), hadamard_extension(m).entries))


def test_hadamard_product_examples():
    v = (Fraction(5), Fraction(-2), Fraction(1, 3))
    w = (Fraction(0), Fraction(1), Fraction(2))
    rows = extension_rows([v, w, w])
    assert rows[0b000] == (Fraction(1),) * 3
    assert rows[0b001] == v
    assert rows[0b011] == (Fraction(0), Fraction(-2), Fraction(2, 3))
    assert rows[0b110] == (Fraction(0), Fraction(1), Fraction(4))
    # fourth character row of the 4x4 sign table
    a = (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1))
    b = (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))
    assert extension_rows([a, b])[0b11] == (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1))


def test_hadamard_product_length_mismatch():
    with pytest.raises(DomainError):
        span([(1,)], 1).extend_odot((Fraction(1), Fraction(2)))


@given(st.lists(rationals, min_size=1, max_size=6), st.data())
def test_hadamard_product_laws(u, data):
    # row(S | T) = row(S) * row(T) for disjoint S and T; the all-ones row
    # of the empty set is the identity
    k = len(u)
    others = data.draw(st.lists(st.lists(rationals, min_size=k, max_size=k), max_size=3))
    rows = extension_rows([u, *others])
    full = len(rows) - 1
    s = data.draw(st.integers(0, full))
    t = data.draw(st.integers(0, full)) & ~s
    assert rows[s | t] == tuple(a * b for a, b in zip(rows[s], rows[t]))
    assert rows[0] == (Fraction(1),) * k
    assert tuple(a * b for a, b in zip(rows[0], rows[s])) == rows[s]


# ---------------------------------------------------------------------------
# span / subspaces


def test_span_examples():
    dependent = span([(1, 1), (2, 2)], 2)
    assert dependent.dim == 1
    assert basis(dependent).entries == ((Fraction(1), Fraction(1)),)
    assert span([], 3).dim == 0
    vectors = [(1, 1, 1), (0, 1, 2), (0, 1, 4)]
    assert det_cofactor([[Fraction(x) for x in v] for v in vectors]) == 2
    assert span(vectors, 3).dim == 3


def test_span_length_mismatch():
    with pytest.raises(DomainError):
        span([(1, 2, 3)], 2)


def test_span_idempotent_and_canonical():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 5)
        vecs = [
            [Fraction(rng.choice(SMALL_POOL)) for _ in range(k)]
            for _ in range(rng.randint(0, 4))
        ]
        u = span(vecs, k)
        assert span(basis(u).entries, k) == u
        # representation equality coincides with set equality
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        if vecs:
            a, b = rng.randrange(len(vecs)), rng.randrange(len(vecs))
            combo = [x + 2 * y for x, y in zip(vecs[a], vecs[b])]
            shuffled.append(combo)
        w = span(shuffled, k)
        assert w == u
        assert all(u.contains(scale_to_integers(r)[1]) for r in basis(w).entries)
        assert all(w.contains(scale_to_integers(r)[1]) for r in basis(u).entries)


def test_subspace_membership_reduction():
    u = span([(1, 0, 1), (0, 1, 1)], 3)
    assert u.contains((1, 1, 2))
    assert not u.contains((0, 0, 1))
    assert u.contains((0, 0, 0))
    with pytest.raises(DomainError):
        u.contains((1, 0))


@given(st.integers(1, 5), st.data())
def test_extend_odot_is_the_span_of_the_products(k, data):
    # small values, so that many folds stay inside the span
    entry = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])
    vecs = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), max_size=4))
    v = data.draw(st.one_of(
        st.lists(entry, min_size=k, max_size=k),
        entry.map(lambda x: [x] * k),
    ))
    u = span(vecs, k)
    grown = u.extend_odot(scale_to_integers(v)[1])
    products = [tuple(a * b for a, b in zip(row, as_vector(v))) for row in basis(u).entries]
    assert grown == u.extend(scale_to_integers(p)[1] for p in products) \
        == span(list(vecs) + products, k)
    # a fold that stays in U hands back U itself
    assert (grown is u) == (grown.dim == u.dim)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 12), st.data())
def test_extend_odot_matches_the_reference_fold(k, data):
    # U is any span, or one reached by folds; v has zeros, negatives and
    # repeats, so that products often stay inside U
    entry = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    vector = st.lists(entry, min_size=k, max_size=k)
    u = span(data.draw(st.lists(vector, max_size=k + 1)), k)
    for v in data.draw(st.lists(vector, max_size=2)):
        u = u.extend_odot(scale_to_integers(v)[1])
    values = data.draw(st.lists(entry, min_size=1, max_size=3))
    v = data.draw(st.one_of(vector, st.lists(st.sampled_from(values), min_size=k, max_size=k)))
    grown = u.extend_odot(scale_to_integers(v)[1])
    expected = extend_odot_reference(u, as_vector(v))
    assert (grown.rows, grown.pivots) == (expected.rows, expected.pivots)
    assert (grown is u) == (expected.dim == u.dim)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 8), st.data())
def test_the_kernel_reads_any_nonzero_multiple_of_a_row_alike(k, data):
    # _reduce makes every residue primitive, so the kernel takes no gcd of its
    # own: a nonprimitive or negated row gives the same primitive RREF rows,
    # each with a positive pivot
    vector = st.lists(st.integers(-9, 9), min_size=k, max_size=k)
    u = span(data.draw(st.lists(vector, max_size=3)), k)
    t = data.draw(st.one_of(vector, st.integers(-9, 9).map(lambda x: [x] * k)))
    c = data.draw(st.integers(-6, 6).filter(bool))
    ct = [c * x for x in t]
    for grown, expected in ((u.extend([ct]), u.extend([t])),
                            (u.extend_odot(ct), u.extend_odot(t))):
        assert (grown.rows, grown.pivots) == (expected.rows, expected.pivots)
        for row, p in zip(grown.rows, grown.pivots):
            assert row[p] > 0 and math.gcd(*row) == 1


def test_extend_odot_runs_no_elimination_when_v_is_constant_on_each_row(monkeypatch):
    # every RREF row lies inside one block of v = (3, 3, -1, -1, 0, 0, 5, 5, 7)
    v = (3, 3, -1, -1, 0, 0, 5, 5, 7)
    u = span([(1, 2, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0, 0),
              (0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 2, 7, 0),
              (0, 0, 0, 0, 0, 0, 0, 0, Fraction(1, 3))], 9)
    calls = []
    reduce = exact_core._reduce

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(exact_core, "_reduce", counted)
    assert u.extend_odot(v) is u
    assert calls == []
    # a v that splits a row's support does reduce
    assert u.extend_odot((3, 1, -1, -1, 0, 0, 5, 5, 7)).dim == u.dim + 1
    assert calls


def test_a_fold_that_fills_the_space_stops_at_the_last_residue_it_needs(monkeypatch):
    # dim U = 3 in Q^5, and each of the three residues (t - t_p)*b is nonzero:
    # the first two already give dim 5
    u = span([(1, 1, 1, 1, 1), (0, 1, 2, 3, 4), (0, 1, 4, 9, 16)], 5)
    t = (0, 1, 8, 27, 64)
    residues = [tuple((x - t[p]) * y for x, y in zip(t, row))
                for row, p in zip(u.rows, u.pivots)]
    assert all(map(any, residues))
    calls = []
    reduce = exact_core._reduce

    def counted(rows, pivots, vec):
        calls.append(tuple(vec))
        return reduce(rows, pivots, vec)

    monkeypatch.setattr(exact_core, "_reduce", counted)
    grown = u.extend_odot(t)
    assert grown.dim == 5
    # no old basis row is cleared, and the third residue is never read
    assert not set(calls) & set(u.rows)
    assert [vec for vec in calls if vec in residues] == residues[:2]


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12), st.data())
def test_a_fold_that_fills_the_space_returns_the_unit_rows(k, data):
    # rows with zeros and repeats from span(ones) on; some copy columns, so
    # that the fold often stops short of k
    entry = st.sampled_from([0, 0, 1, -1, 2, -3, 5, 7, Fraction(1, 2), Fraction(-2, 3)])
    cols = data.draw(st.one_of(st.just(list(range(k))),
                               st.lists(st.integers(0, k - 1), min_size=k, max_size=k)))
    u = span([[1] * k], k)
    for _ in range(8):
        base = data.draw(st.lists(entry, min_size=k, max_size=k))
        v = [base[c] for c in cols]
        grown = u.extend_odot(scale_to_integers(v)[1])
        expected = extend_odot_reference(u, as_vector(v))
        assert (grown.rows, grown.pivots) == (expected.rows, expected.pivots)
        if grown.dim == k:
            assert grown.pivots == tuple(range(k))
            assert grown.rows == tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
            return
        u = grown


@given(st.lists(st.one_of(st.integers(-10**6, 10**6), rationals)))
@example([])
@example([0, -3, Fraction(-1, 2), Fraction(5, 6)])
def test_scale_to_integers_matches_the_lcm_of_the_denominators(vec):
    scale = math.lcm(*(Fraction(x).denominator for x in vec))
    scaled = [Fraction(x) * scale for x in vec]
    assert scale_to_integers(vec) == (scale, scaled)
    assert all(type(x) is int for x in scale_to_integers(vec)[1])


# ---------------------------------------------------------------------------
# orthogonal complement


def test_orthogonal_complement_examples():
    full = span([(1, 0), (0, 1)], 2)
    assert orthogonal_complement(full).dim == 0
    axis = span([(1, 0, 0)], 3)
    comp = orthogonal_complement(axis)
    assert comp == span([(0, 1, 0), (0, 0, 1)], 3)
    diag = span([(1, 1)], 2)
    assert orthogonal_complement(diag) == span([(1, -1)], 2)


def test_orthogonal_complement_involution_and_dims():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 5)
        vecs = [
            [Fraction(rng.choice(SMALL_POOL)) for _ in range(k)]
            for _ in range(rng.randint(0, k))
        ]
        u = span(vecs, k)
        c = orthogonal_complement(u)
        assert u.dim + c.dim == k
        assert orthogonal_complement(c) == u
        # trivial intersection: stacked bases stay independent
        stacked = list(basis(u).entries) + list(basis(c).entries)
        assert span(stacked, k).dim == u.dim + c.dim


# ---------------------------------------------------------------------------
# rank


def matrix_rank(m):
    return span(m.entries, m.n_cols).dim


def test_matrix_rank_examples():
    assert matrix_rank(diagonal_matrix([1] * 3)) == 3
    two_identical_cols = RMatrix.from_rows([[1, 1], [2, 2], [5, 5]])
    assert matrix_rank(two_identical_cols) == 1
    m = [[1, 1, 1], [Fraction(1, 2), 1, 1], [Fraction(1, 2), Fraction(1, 2), 1]]
    assert det_cofactor([[Fraction(x) for x in r] for r in m]) == Fraction(1, 4)
    assert matrix_rank(RMatrix.from_rows(m)) == 3


def test_matrix_rank_against_minor_oracle_and_transpose():
    rng = random.Random(13)
    for _ in range(80):
        n, k = rng.randint(0, 4), rng.randint(1, 4)
        m = random_matrix(rng, n, k, SMALL_POOL)
        r = matrix_rank(m)
        assert r == minor_rank([list(row) for row in m.entries], k)
        assert r == matrix_rank(RMatrix.from_rows(zip(*m.entries), n))


# ---------------------------------------------------------------------------
# solve


def test_solve_square_roundtrip():
    rng = random.Random(17)
    solved = 0
    while solved < 30:
        k = rng.randint(1, 4)
        m = random_matrix(rng, k, k, SMALL_POOL)
        if det_cofactor([list(r) for r in m.entries]) == 0:
            continue
        x = [Fraction(rng.choice(SMALL_POOL)) for _ in range(k)]
        b = [sum(a * xx for a, xx in zip(row, x)) for row in m.entries]
        assert solve_square(m, b) == tuple(x)
        solved += 1
    with pytest.raises(DomainError):
        solve_square(RMatrix.from_rows([[1, 1], [2, 2]]), [1, 1])


# ---------------------------------------------------------------------------
# subset bitmasks


def test_subset_index_basics():
    s = SubsetIndex.from_members(6, [4, 0, 2])
    assert list(s) == [0, 2, 4]
    assert len(s) == 3
    assert 2 in s and 3 not in s
    assert s.add(3).members() == (0, 2, 3, 4)
    assert complement(s).members() == (1, 3, 5)
    assert str(s) == "{0,2,4}"
    with pytest.raises(DomainError):
        SubsetIndex(3, 0b1000)


def test_subset_index_takes_a_ground_set_of_any_size():
    assert list(SubsetIndex(63, 1 << 62)) == [62]
    assert len(SubsetIndex(63)) == 0
    top = 1 << (10**6 - 1)
    tracemalloc.start()
    try:
        s = SubsetIndex(10**6, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the check reads the mask's bit length: no 2^size, a 125 kB int, is built
    assert peak < 10_000, peak
    assert s.members() == (10**6 - 1,) and 10**6 - 1 in s and 10**6 not in s
    with pytest.raises(DomainError, match=r"^ground-set size must be nonnegative \(got -1\)$"):
        SubsetIndex(-1)
    for size, mask in [(10**6, top << 1), (63, 1 << 63), (0, 1), (5, -1), (5, -1 << 10**6)]:
        with pytest.raises(DomainError, match="out of range for size") as refused:
            SubsetIndex(size, mask)
        # the message names the bit length, not the mask
        assert len(str(refused.value)) < 60, str(refused.value)


def test_mask_enumeration_order():
    for n in range(7):
        seen = list(masks_by_cardinality(n))
        assert seen == sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
        for w in range(n + 1):
            weights = list(masks_of_weight(n, w))
            assert weights == sorted(m for m in range(1 << n) if m.bit_count() == w)


# ---------------------------------------------------------------------------
# matrices and their JSON form


def test_restriction_preserves_order():
    m = RMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    rows = m.restrict_rows(SubsetIndex.from_members(3, [2, 0]))
    assert rows.entries == ((Fraction(1), Fraction(2), Fraction(3)),
                            (Fraction(7), Fraction(8), Fraction(9)))
    # restrict_cols and drop_row are test helpers, used by the references
    cols = restrict_cols(m, SubsetIndex.from_members(3, [0, 2]))
    assert cols.entries == ((Fraction(1), Fraction(3)),
                            (Fraction(4), Fraction(6)),
                            (Fraction(7), Fraction(9)))
    assert drop_row(m, 1).entries == (m.entries[0], m.entries[2])
    with pytest.raises(DomainError):
        m.restrict_rows(SubsetIndex(2, 0))
    with pytest.raises(DomainError, match="does not match 3 columns"):
        restrict_cols(m, SubsetIndex(2, 0))
    with pytest.raises(DomainError, match="row index 3 out of range for 3 rows"):
        drop_row(m, 3)


def test_diagonal_shares_its_zero_and_serialises_entrywise():
    for diag in ([], [0], [3, 0, -2, Fraction(5, 7), Fraction(-1, 10007), 0, 1],
                 [Fraction(1, 2**61 - 1), -4, Fraction(9, 2)]):
        m = diagonal_matrix(diag)
        n = len(diag)
        assert (m.n_rows, m.n_cols) == (n, n)
        for r in range(n):
            assert m.entries[r][r] == diag[r]
            for c in range(n):
                if c != r:
                    assert m.entries[r][c] is ZERO
        # bare ints for integers, "a/b" otherwise; compared as bytes, so an
        # int subclass or a float would show
        entry = [int(x) if Fraction(x).denominator == 1 else f"{x.numerator}/{x.denominator}"
                 for x in diag]
        expected = {"rows": n, "cols": n, "data": [
            [entry[r] if r == c else 0 for c in range(n)] for r in range(n)
        ]}
        assert json.dumps(matrix_to_json(m)) == json.dumps(expected)


def test_matrix_to_json_writes_the_integer_rows_without_the_encoder(monkeypatch):
    monkeypatch.setattr(exact_core, "rational_to_json",
                        lambda q: pytest.fail("an entry went through the encoder"))
    diag = [Fraction(7, 3), 0, -2, Fraction(0), 5]
    m = diagonal_matrix(diag)
    obj = matrix_to_json(m)
    assert obj["data"][1] == [0] * 5 and obj["data"][0] == ["7/3", 0, 0, 0, 0]
    # a row of scale 1 is written as its ints, any other with a gcd per entry
    m = RMatrix.from_rows([[0, Fraction(1, 2)], [Fraction(0, 5), -1], [Fraction(-4, 6), 2]])
    assert m.scales == (2, 1, 3)
    assert matrix_to_json(m)["data"] == [[0, "1/2"], [0, -1], ["-2/3", 2]]
    monkeypatch.undo()
    assert matrix_to_json(m)["data"] == [list(map(rational_to_json, row)) for row in m.entries]


def test_entry_reader_parses_each_distinct_entry_once(monkeypatch):
    parses = []
    real = exact_core.rational_pair

    def counted(x):
        parses.append(x)
        return real(x)

    monkeypatch.setattr(exact_core, "rational_pair", counted)
    entry = exact_core._entry_reader()
    got = [entry(x) for x in ["1/2", 3, "1/2", "2/4", 3, "3"]]
    assert got == [Fraction(1, 2), 3, Fraction(1, 2), Fraction(1, 2), 3, 3]
    assert parses == ["1/2", 3, "2/4", "3"]
    # `true` is never answered from a cached 1, nor `false` from a cached 0
    assert entry(1) == 1 and entry(0) == 0
    for bad in (True, False, 1.0, 0.0):
        with pytest.raises(InputFormatError):
            entry(bad)


def test_matrix_reader_parses_each_distinct_entry_once(monkeypatch):
    parses = []
    real = exact_core.rational_pair

    def counted(x):
        parses.append(x)
        return real(x)

    monkeypatch.setattr(exact_core, "rational_pair", counted)
    obj = {"rows": 3, "cols": 3,
           "data": [["1/2", 3, "1/2"], ["2/4", 3, "3"], [1, 1, "1/2"]]}
    m = matrix_from_json(obj)
    # an int is read as it is, each distinct string once
    assert parses == ["1/2", "2/4", "3"]
    assert m.scales == (2, 2, 2)
    assert m.rows == ((1, 6, 1), (1, 6, 6), (2, 2, 1))
    # no Fraction is built until the entries are asked for
    assert m._entries is None
    assert m.entries == ((Fraction(1, 2), 3, Fraction(1, 2)), (Fraction(1, 2), 3, 3),
                         (1, 1, Fraction(1, 2)))
    # a row of scale 1 is its tokens; a scaled value outside CPython's small
    # ints is one object per matrix; a copy of the row before is one tuple
    big = 10**30
    m = matrix_from_json({"rows": 4, "cols": 2,
                          "data": [[big, "6/3"], ["-7/2", "1/2"], ["-7/2", "1/2"], [1, "-7/2"]]})
    assert m.rows == ((big, 2), (-7, 1), (-7, 1), (2, -7)) and m.scales == (1, 2, 2, 2)
    assert m.rows[0][0] is big
    assert m.rows[1] is m.rows[2] and m.rows[3][1] is m.rows[1][0]
    # `true` is never read from a cached 1, nor `false` from a cached 0
    for bad in (True, False, 1.0):
        with pytest.raises(InputFormatError):
            matrix_from_json({"rows": 1, "cols": 3, "data": [[1, 0, bad]]})


def test_rmatrix_validation():
    with pytest.raises(DomainError):
        RMatrix(2, 2, ((Fraction(1), Fraction(2)),))
    with pytest.raises(DomainError):
        RMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DomainError):
        RMatrix.from_rows([])
    empty = RMatrix.from_rows([], n_cols=3)
    assert empty.n_rows == 0 and empty.n_cols == 3


def test_matrix_json_roundtrip():
    m = RMatrix.from_rows([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    obj = matrix_to_json(m)
    assert obj == {"rows": 2, "cols": 2, "data": [["1/2", -3], [0, "7/5"]]}
    assert matrix_from_json(obj) == m
    empty = RMatrix.from_rows([], n_cols=2)
    assert matrix_from_json(matrix_to_json(empty)) == empty


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {"rows": 1, "cols": 1},
        {"rows": 1, "cols": 1, "data": [[0.5]]},
        {"rows": 1, "cols": 2, "data": [[1]]},
        {"rows": 2, "cols": 1, "data": [[1]]},
        {"rows": 1, "cols": 1, "data": [["1/0"]]},
        {"rows": True, "cols": 1, "data": [[1]]},
        {"rows": 1, "cols": 1, "data": [["1_0"]]},
    ],
)
def test_matrix_json_rejects_malformed(bad):
    with pytest.raises(InputFormatError):
        matrix_from_json(bad)


# tokens of every kind the reader meets: valid ints and strings (some not in
# lowest terms or past int-to-str's digit limit), and malformed ones
VALID_TOKENS = [0, 1, -1, 3, 10**5000, "0", "3", "-0/3", "1/2", "2/4", "-6/4", "007", "5/1"]
BAD_TOKENS = [True, False, 1.0, 0.5, None, "1/0", "1_0", " 1", "+1", "1/-2", "x",
              "9" * 5000, "1/" + "9" * 5000, [1], {}]


@st.composite
def matrix_documents(draw):
    """Matrix JSON objects, most of them valid; a fault, when there is one,
    is a bad token, a ragged or non-list row, or a bad header."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    tokens = st.sampled_from(VALID_TOKENS)
    if draw(st.booleans()):
        tokens = st.one_of(tokens, st.sampled_from(BAD_TOKENS))
    data = [draw(st.one_of(
        st.lists(tokens, min_size=cols, max_size=cols),
        st.lists(tokens, max_size=5),  # maybe ragged
        st.sampled_from([None, "row", (1,) * cols]),
    ) if draw(st.integers(0, 9)) == 0 else st.lists(tokens, min_size=cols, max_size=cols))
        for _ in range(rows)]
    obj = {"rows": rows, "cols": cols, "data": data}
    fault = draw(st.integers(0, 19))
    if fault == 0:
        obj["rows"] = draw(st.sampled_from([True, -1, "2", rows + 1]))
    elif fault == 1:
        del obj[draw(st.sampled_from(["rows", "cols", "data"]))]
    return obj


def _read(reader, obj):
    try:
        m = reader(obj)
    except InputFormatError as exc:
        return "refused", str(exc)
    return m, m.entries


@settings(deadline=None, max_examples=400)
@given(matrix_documents())
@example({"rows": 2, "cols": 2, "data": [["1/2", True], [1]]})
@example({"rows": 2, "cols": 2, "data": [[1, "1_0"], [1, 2, 3]]})
@example({"rows": 2, "cols": 2, "data": [[1, 1], [True, 1]]})
@example({"rows": 1, "cols": 3, "data": [["-0/3", "1/0", 1.0]]})
@example({"rows": 1, "cols": 2, "data": [[10**5000, "9" * 5000]]})
@example(42)
def test_matrix_reader_answers_as_the_fraction_reader(obj):
    got, expected = _read(matrix_from_json, obj), _read(matrix_from_json_reference, obj)
    # the same matrix and the same Fraction entries, or the same refusal
    assert got == expected
