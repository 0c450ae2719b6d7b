import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    diagonal_matrix,
    is_invariant_reference,
    lagrange_projection_reference,
    orthogonal_complement,
    respects_reference,
)
from hadamix import (
    DomainError,
    InputFormatError,
    RMatrix,
    Subspace,
    SubsetIndex,
    blocks_of,
    is_invariant,
    lagrange_projection,
    respects,
    span,
)
from hadamix import exact_core
from hadamix.exact_core import as_vector, scale_to_integers


def e(i, k):
    return tuple(Fraction(1 if j == i else 0) for j in range(k))


def random_partition_vector(rng, k):
    distinct = rng.randint(1, min(5, k))
    pool = rng.sample(range(-6, 7), distinct)
    values = [Fraction(rng.choice(pool)) for _ in range(k)]
    # make sure every pool value appears, keeping the block count honest
    for i, v in enumerate(pool):
        values[i % k] = Fraction(v) if i < k else values[i % k]
    return values


def random_block_respecting(rng, v):
    """Span of vectors each supported inside one block of blocks_of(v)."""
    part = blocks_of(v)
    k = part.ambient
    vectors = []
    for block in part.blocks:
        for _ in range(rng.randint(0, len(block))):
            vec = [Fraction(0)] * k
            for j in block:
                vec[j] = Fraction(rng.randint(-3, 3))
            vectors.append(vec)
    return span(vectors, k)


def random_generic(rng, k):
    count = rng.randint(0, k - 1) if k > 1 else 0
    vectors = [
        [Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(count)
    ]
    return span(vectors, k)


# ---------------------------------------------------------------------------
# partitions


def test_blocks_of_examples():
    part = blocks_of([2, 1, 2, 1])
    assert part.values == (Fraction(2), Fraction(1))
    assert part.blocks == (
        SubsetIndex.from_members(4, [0, 2]),
        SubsetIndex.from_members(4, [1, 3]),
    )

    constant = blocks_of([7, 7, 7])
    assert len(constant) == 1
    assert constant.blocks[0] == SubsetIndex(3, (1 << 3) - 1)

    distinct = blocks_of([3, 1, 2])
    assert len(distinct) == 3
    assert all(len(b) == 1 for b in distinct.blocks)
    assert distinct.values == (Fraction(3), Fraction(2), Fraction(1))


def test_blocks_of_empty_vector_rejected():
    with pytest.raises(DomainError):
        blocks_of([])


# ---------------------------------------------------------------------------
# projectors


def test_lagrange_projection_examples():
    # the projector's diagonal, a tuple of k Fractions
    p0 = lagrange_projection([2, 1, 2, 1], 0)
    assert type(p0) is tuple and all(type(x) is Fraction for x in p0)
    assert p0 == (1, 0, 1, 0)
    p1 = lagrange_projection([2, 1, 2, 1], 1)
    assert p1 == (0, 1, 0, 1)
    assert lagrange_projection([5, 5, 5], 0) == (1,) * 3
    with pytest.raises(DomainError):
        lagrange_projection([2, 1, 2, 1], 2)


def test_projectors_resolve_identity_and_annihilate():
    rng = random.Random(53)
    for _ in range(80):
        k = rng.randint(1, 8)
        v = random_partition_vector(rng, k)
        part = blocks_of(v)
        projectors = [diagonal_matrix(lagrange_projection(v, i)) for i in range(len(part))]
        for value, p in zip(part.values, projectors):
            assert p == diagonal_matrix([1 if x == value else 0 for x in v])
        total = RMatrix.from_rows(
            [
                [sum(p.entries[r][c] for p in projectors) for c in range(k)]
                for r in range(k)
            ],
            k,
        )
        assert total == diagonal_matrix([1] * k)
        # the product of two diagonal matrices is the diagonal of the
        # entrywise product of their diagonals
        diagonals = [[p.entries[r][r] for r in range(k)] for p in projectors]
        for i in range(len(diagonals)):
            for j in range(len(diagonals)):
                prod = [a * b for a, b in zip(diagonals[i], diagonals[j])]
                assert prod == (diagonals[i] if i == j else [0] * k)


VALUES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 10007, 2**61 - 1])),
)


@st.composite
def partition_vectors(draw):
    """Vectors of length 1-48 with 1-8 distinct values, each value present."""
    k = draw(st.integers(1, 48))
    values = draw(st.lists(VALUES, min_size=1, max_size=min(8, k), unique=True))
    labels = draw(st.lists(st.integers(0, len(values) - 1), min_size=k, max_size=k))
    for label, j in enumerate(draw(st.permutations(range(k)))[: len(values)]):
        labels[j] = label
    return [values[label] for label in labels]


def _outcome(fn, v, i):
    try:
        return fn(v, i)
    except DomainError as exc:
        return str(exc)


@settings(deadline=None, max_examples=120)
@given(partition_vectors())
def test_lagrange_projection_matches_the_per_entry_reference(v):
    blocks = len(blocks_of(v))
    for i in range(blocks):
        assert diagonal_matrix(lagrange_projection(v, i)) == lagrange_projection_reference(v, i)
    for i in (-1, blocks, blocks + 5):
        expected = f"block index {i} out of range for {blocks} blocks"
        assert _outcome(lagrange_projection, v, i) == expected
        assert _outcome(lagrange_projection_reference, v, i) == expected


def test_lagrange_projection_evaluates_once_per_value(monkeypatch):
    values = [Fraction(7, 3), Fraction(5, 7), Fraction(1, 2**61 - 1), 0,
              Fraction(-2, 10007), -3]
    v = [values[(j * 5) % 6] for j in range(48)]
    calls = 0

    def counted(real):
        def op(self, other):
            nonlocal calls
            calls += 1
            return real(self, other)
        return op

    for name in ("__sub__", "__rsub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    for i in range(len(values)):
        calls = 0
        projector = lagrange_projection(v, i)
        assert calls < len(values)
        projector = diagonal_matrix(projector)
        calls = 0
        assert projector == lagrange_projection_reference(v, i)
        # per entry and other value: two subtractions, a division, a product
        assert calls == 4 * 48 * (len(values) - 1)


# ---------------------------------------------------------------------------
# respects / bar_odot / invariance


def bar_odot(v, u):
    """span(U union v*U), the fold step of the paper's bar-odot."""
    return u.extend_odot(scale_to_integers(as_vector(v))[1])


def test_respects_examples():
    u = span([e(0, 4), tuple(a + b for a, b in zip(e(1, 4), e(3, 4)))], 4)
    v = [2, 1, 2, 1]
    assert respects(u, v)

    w = span([tuple(a + b for a, b in zip(e(0, 4), e(1, 4)))], 4)
    assert not respects(w, v)

    full = span([e(i, 4) for i in range(4)], 4)
    assert respects(full, v)

    with pytest.raises(DomainError):
        respects(span([], 3), v)


def test_bar_odot_examples():
    v = [2, 1, 2, 1]
    full = span([e(i, 4) for i in range(4)], 4)
    assert bar_odot(v, full) == full

    u = span([tuple(a + b for a, b in zip(e(0, 4), e(1, 4)))], 4)
    assert bar_odot(v, u) == span([e(0, 4), e(1, 4)], 4)

    const = [3, 3, 3, 3]
    assert bar_odot(const, u) == u

    with pytest.raises(DomainError):
        bar_odot([1, 2], u)


def test_is_invariant_examples():
    v = [2, 1, 2, 1]
    u = span([e(0, 4), tuple(a + b for a, b in zip(e(1, 4), e(3, 4)))], 4)
    assert is_invariant(v, u)
    w = span([tuple(a + b for a, b in zip(e(0, 4), e(1, 4)))], 4)
    assert not is_invariant(v, w)
    assert is_invariant(v, span([], 4))


def test_invariance_equals_block_respect():
    rng = random.Random(59)
    for trial in range(200):
        k = rng.randint(1, 8)
        v = random_partition_vector(rng, k)
        u = random_block_respecting(rng, v) if trial % 2 == 0 else random_generic(rng, k)
        assert is_invariant(v, u) == respects(u, v)


def test_complement_of_respecting_space_respects():
    rng = random.Random(61)
    for _ in range(80):
        k = rng.randint(1, 7)
        v = random_partition_vector(rng, k)
        u = random_block_respecting(rng, v)
        assert respects(u, v)
        assert respects(orthogonal_complement(u), v)


def test_bar_odot_iteration_stabilizes_and_respects():
    rng = random.Random(67)
    for _ in range(80):
        k = rng.randint(1, 6)
        v = random_partition_vector(rng, k)
        u = random_generic(rng, k)
        steps = 0
        while True:
            grown = bar_odot(v, u)
            if grown == u:
                break
            u = grown
            steps += 1
            assert steps <= k, "closure must stabilize within k steps"
        assert respects(u, v)


# ---------------------------------------------------------------------------
# the RREF readings against the elimination references


def _both_answers(v, u):
    got = (is_invariant(v, u), respects(u, v))
    assert got == (is_invariant_reference(v, u), respects_reference(u, blocks_of(v)))
    assert got[0] == got[1]
    return got[0]


def test_rref_readings_match_the_references_on_seeded_subspaces():
    rng = random.Random(71)
    seen = set()
    for trial in range(300):
        k = rng.randint(1, 12)
        v = random_partition_vector(rng, k)
        u = random_block_respecting(rng, v) if trial % 2 == 0 else random_generic(rng, k)
        seen.add(_both_answers(v, u))
        empty, full = span([], k), span([e(i, k) for i in range(k)], k)
        # a constant or zero v, and an empty or full U, always answer yes
        assert all(_both_answers(w, space) for w in ([Fraction(-7, 3)] * k, [0] * k)
                   for space in (u, empty, full))
        assert _both_answers(v, empty) and _both_answers(v, full)
    assert seen == {True, False}


@st.composite
def subspaces(draw):
    """(v, U) with k <= 12: U spanned by vectors inside one block each, by
    generic vectors, or by a mix, so both answers occur."""
    k = draw(st.integers(1, 12))
    pool = draw(st.lists(VALUES, min_size=1, max_size=min(4, k), unique=True))
    v = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    part = blocks_of(v)
    entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 7]))
    vectors = []
    for _ in range(draw(st.integers(0, k))):
        vec = draw(st.lists(entries, min_size=k, max_size=k))
        if draw(st.booleans()):
            mask = part.blocks[draw(st.integers(0, len(part) - 1))].mask
            vec = [x if mask >> j & 1 else 0 for j, x in enumerate(vec)]
        vectors.append(vec)
    return v, span(vectors, k)


@settings(deadline=None, max_examples=200)
@given(subspaces())
def test_rref_readings_match_the_references_on_hypothesis_subspaces(case):
    v, u = case
    k = u.ambient_dim
    _both_answers(v, u)
    for w in ([0] * k, [Fraction(2, 3)] * k):
        _both_answers(w, u)
    for space in (span([], k), span([e(i, k) for i in range(k)], k)):
        _both_answers(v, space)


# Each value in several spellings: ints, Fractions and unreduced strings.
SPELLINGS = [
    [Fraction(1, 2), "1/2", "2/4", "3/6"],
    [0, Fraction(0), "0", "-0/5", "-0"],
    [3, Fraction(6, 2), "6/2", "3"],
    [Fraction(-2, 3), "-2/3", "-4/6"],
    [-1, Fraction(-3, 3), "-1", "-7/7"],
]


@st.composite
def spelled_subspaces(draw):
    """(v, U) with k <= 12 and each coordinate of v in a random spelling of
    its value; U as in `subspaces`, over the blocks of the exact values."""
    k = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, len(SPELLINGS) - 1), min_size=k, max_size=k))
    v = [draw(st.sampled_from(SPELLINGS[label])) for label in labels]
    masks = sorted({sum(1 << j for j, b in enumerate(labels) if b == a) for a in labels})
    entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 7]))
    vectors = []
    for _ in range(draw(st.integers(0, k))):
        vec = draw(st.lists(entries, min_size=k, max_size=k))
        if draw(st.booleans()):
            mask = draw(st.sampled_from(masks))
            vec = [x if mask >> j & 1 else 0 for j, x in enumerate(vec)]
        vectors.append(vec)
    return v, span(vectors, k)


@settings(deadline=None, max_examples=200)
@given(spelled_subspaces())
def test_respects_matches_the_per_block_reference_on_spelled_values(case):
    v, u = case
    assert respects(u, v) == respects_reference(u, blocks_of(v)) == is_invariant(v, u)


def test_respects_error_texts():
    for u, v, message in [
        (span([], 0), [], "vector must be nonempty"),
        # an empty v is refused before the lengths are compared
        (span([], 3), [], "vector must be nonempty"),
        (span([], 3), [1, 2], "ambient mismatch: subspace 3, partition 2"),
        (span([[1, 1]], 2), ["1/2", "2/4", 0], "ambient mismatch: subspace 2, partition 3"),
    ]:
        with pytest.raises(DomainError) as error:
            respects(u, v)
        assert str(error.value) == message


def test_respects_runs_no_elimination(monkeypatch):
    v = [2, 1, 2, 1, 3]
    yes = span([e(0, 5), [0, 1, 0, -4, 0], e(4, 5)], 5)
    no = span([[1, 1, 0, 0, 0]], 5)

    def no_elimination(*args):
        raise AssertionError("respects eliminated")

    monkeypatch.setattr(exact_core, "_reduce", no_elimination)
    monkeypatch.setattr(Subspace, "extend", no_elimination)
    monkeypatch.setattr(Subspace, "extend_odot", no_elimination)
    assert respects(yes, v) and not respects(no, v)


def test_is_invariant_stops_at_the_first_product_outside(monkeypatch):
    reductions = 0
    real = Subspace.contains

    def counted(*args):
        nonlocal reductions
        reductions += 1
        return real(*args)

    monkeypatch.setattr(Subspace, "contains", counted)
    monkeypatch.setattr(Subspace, "extend_odot", lambda *args: pytest.fail("a fold was built"))
    k = 6
    v = [1, 1, 2, 2, 3, 3]
    # the products of the first RREF rows stay in U, the last one leaves it
    u = span([e(0, k), e(1, k), e(2, k), [0, 0, 0, 1, 1, 0]], k)
    for space, expected, count in [
        (u, False, 4),
        (span([e(0, k), [0, 0, 1, 0, 1, 0]], k), False, 2),
        # the first product leaves U; the rows after it are never reduced
        (span([[1, 0, 1, 0, 0, 0], e(1, k), e(4, k)], k), False, 1),
        (span([[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, -1]], k), True, 2),
        (span([], k), True, 0),
    ]:
        reductions = 0
        assert is_invariant(v, space) is expected
        assert reductions == count, space


def test_is_invariant_length_mismatch_matches_the_fold():
    u = span([[1, 2, 3]], 3)
    with pytest.raises(DomainError) as fold:
        bar_odot([1, 2], u)
    with pytest.raises(DomainError) as direct:
        is_invariant([1, 2], u)
    assert str(direct.value) == str(fold.value) == "vector length 2 does not match ambient 3"
    with pytest.raises(InputFormatError):
        is_invariant([True, 1, 2], u)


# ---------------------------------------------------------------------------
# blocks keyed on integer pairs


def test_blocks_of_keys_equal_values_written_differently():
    part = blocks_of(["1/2", "2/4", 0, "-0/5", 3, Fraction(6, 2), "-0", Fraction(1, 2)])
    assert part.values == (Fraction(3), Fraction(1, 2), Fraction(0))
    assert [b.members() for b in part.blocks] == [(4, 5), (0, 1, 7), (2, 3, 6)]
    mixed = blocks_of([1, Fraction(1), "1", Fraction(2, 2), -1, Fraction(-3, 3)])
    assert mixed.values == (1, -1)
    assert [b.members() for b in mixed.blocks] == [(0, 1, 2, 3), (4, 5)]
    assert all(type(x) is Fraction for x in mixed.values)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3),
                          st.sampled_from(["str", "int", "fraction"])),
                min_size=1, max_size=40))
def test_blocks_of_values_decrease_and_blocks_collect_equal_values(entries):
    v = []
    for num, den, scale, form in entries:
        q = Fraction(num, den)
        if form == "str":
            v.append(f"{num * scale}/{den * scale}")
        elif form == "int" and q.denominator == 1:
            v.append(q.numerator)
        else:
            v.append(q)
    part = blocks_of(v)
    exact = [Fraction(num, den) for num, den, _, _ in entries]
    assert all(a > b for a, b in zip(part.values, part.values[1:]))
    assert set(part.values) == set(exact)
    for value, block in zip(part.values, part.blocks):
        assert block.members() == tuple(j for j, q in enumerate(exact) if q == value)
