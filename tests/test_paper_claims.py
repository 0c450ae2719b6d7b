"""The paper's claims that no other test states, as hypothesis properties.

Matrices are small (k <= 5 columns, n <= 8 rows) with entries drawn from
1-4 distinct values, so ties, constant rows and equal columns are common.
With n <= 8 the 2^n-row extension is small enough to materialize, and its
rank by sympy, an implementation independent of the fold, is the oracle.
One more property states the identity that a k x k route to that rank
rests on: the Gram matrix of the extension E is the entrywise product of
the matrices J + m_i m_i^T, one per row m_i of m, and all three have the
same rank. The paper's invariance claim is a property too: a subspace U is
invariant under v (v*U lies in U) exactly when U respects the blocks of v,
checked against sympy's rank of U's spanning vectors stacked on their
products with v, and the block projectors that `project` prints resolve
the identity into orthogonal idempotents. The certificate bound of
criterion 1 is one as well: a full-rank extension is certified by at most
k - 1 rows of m, and the greedy finds them; test_acceptance.py checks the
same bound on its fixed corpus.
"""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadamix import (
    NotFullRank,
    RMatrix,
    SubsetIndex,
    blocks_of,
    eps_bar,
    full_extension_rank,
    greedy_min_rows,
    hadamard_extension,
    is_invariant,
    nae_restrict,
    respects,
    span,
)
from hadamix.cli import main
from hadamix.exact_core import rational_to_json

sympy = pytest.importorskip("sympy")

claims = settings(deadline=None, max_examples=100)
# zero, signs, a unit, and denominators 2 and 3
VALUES = [Fraction(x) for x in (0, 1, -1, 2, -3, "1/2", "-2/3")]


@st.composite
def matrices(draw, min_cols=1, max_cols=5):
    k = draw(st.integers(min_cols, max_cols))
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4, unique=True))
    entry = st.sampled_from(pool)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    return RMatrix.from_rows(rows, k)


def extension_rank(m):
    """sympy's rank of the materialized extension of m; repeated rows are
    dropped first, which leaves the rank as it is."""
    rows = sorted(set(hadamard_extension(m).entries))
    return sympy.Matrix(len(rows), m.n_cols, [
        sympy.Rational(*x.as_integer_ratio()) for row in rows for x in row
    ]).rank()


@claims
@given(matrices())
def test_nae_rows_alone_give_full_rank(m):
    # under NAE (eps_bar >= -1) the k-1 rows nae_restrict picks already
    # give the extension full column rank, not only all n rows of m
    assume(eps_bar(m).satisfies_nae)
    restricted = m.restrict_rows(nae_restrict(m))
    assert full_extension_rank(restricted) == extension_rank(restricted) == m.n_cols, m


@claims
@given(matrices())
def test_full_rank_is_certified_by_at_most_k_minus_1_rows(m):
    # criterion 1: the greedy certificate has at most k - 1 rows, and the
    # extension of those rows alone has full rank; below full rank the
    # greedy stops at the extension's rank
    rank = extension_rank(m)
    found = greedy_min_rows(m)
    if rank == m.n_cols:
        assert isinstance(found, SubsetIndex) and len(found) <= m.n_cols - 1, (m, found)
        assert extension_rank(m.restrict_rows(found)) == m.n_cols, (m, found)
    else:
        assert isinstance(found, NotFullRank) and found.rank == rank, (m, found)


@claims
@given(matrices(max_cols=3))
def test_up_to_three_columns_full_rank_is_exactly_nae(m):
    # for k <= 3 NAE is necessary as well as sufficient; the selftest's
    # nae-not-necessary-beyond-three shows a k = 4 matrix where it is not
    rank = full_extension_rank(m)
    assert rank == extension_rank(m), m
    assert (rank == m.n_cols) == eps_bar(m).satisfies_nae, m


@claims
@given(matrices(min_cols=2), st.data())
def test_a_repeated_column_leaves_the_rank_short(m, data):
    # two equal columns stay equal in every product row, so e_i - e_j is in
    # the kernel of the extension
    i, j = data.draw(st.lists(st.integers(0, m.n_cols - 1), min_size=2, max_size=2,
                              unique=True))
    m = RMatrix.from_rows([row[:j] + (row[i],) + row[j + 1:] for row in m.entries], m.n_cols)
    rank = full_extension_rank(m)
    assert rank == extension_rank(m) < m.n_cols, m


@claims
@given(matrices())
def test_the_extension_rank_is_the_rank_of_its_gram_matrix(m):
    # entry (j, l) of E^T E sums prod_{i in S} m_ij m_il over all row
    # subsets S, which factors as prod_i (1 + m_ij m_il)
    rows = hadamard_extension(m).entries
    e = sympy.Matrix(len(rows), m.n_cols, [
        sympy.Rational(*x.as_integer_ratio()) for row in rows for x in row
    ])
    gram = e.T * e
    product = sympy.ones(m.n_cols, m.n_cols)
    for row in m.entries:
        col = sympy.Matrix([sympy.Rational(*x.as_integer_ratio()) for x in row])
        product = product.multiply_elementwise(sympy.ones(m.n_cols, m.n_cols) + col * col.T)
    assert gram == product, m
    assert full_extension_rank(m) == extension_rank(m) == gram.rank() == product.rank(), m


def rational(x):
    return sympy.Rational(*Fraction(x).as_integer_ratio())


@st.composite
def vectors_and_spans(draw):
    """v with 1-8 coordinates from 1-4 values, and 0-k vectors spanning U: in
    half the examples each vector is supported inside one block of v, so
    that U respects the blocks, in the other half its entries are free."""
    pool = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4, unique=True))
    v = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    k = len(v)
    supported = draw(st.booleans())
    blocks = [list(block) for block in blocks_of(v).blocks]
    vectors = []
    for _ in range(draw(st.integers(0, k))):
        vector = [Fraction(0)] * k
        for j in draw(st.sampled_from(blocks)) if supported else range(k):
            vector[j] = draw(st.sampled_from(VALUES))
        vectors.append(vector)
    return v, vectors


@claims
@given(vectors_and_spans())
def test_invariance_under_v_is_respecting_its_blocks(case):
    v, vectors = case
    k = len(v)
    u = span(vectors, k)
    b = sympy.Matrix(len(vectors), k, [rational(x) for row in vectors for x in row])
    vb = sympy.Matrix(len(vectors), k, [rational(x) * rational(y)
                                        for row in vectors for x, y in zip(row, v)])
    dim = b.rank()
    assert u.dim == dim, case
    invariant = b.col_join(vb).rank() == dim
    assert is_invariant(v, u) == respects(u, v) == invariant, case

    # the projectors as `project` prints them: P_1 + ... + P_B = I and
    # P_i P_j is P_i when i = j, else 0
    document = json.dumps({"v": [rational_to_json(x) for x in v]})
    projectors = []
    for i in range(len(blocks_of(v))):
        out = io.StringIO()
        assert main(["project", "--block", str(i + 1)], io.StringIO(document), out,
                    io.StringIO()) == 0, case
        data = json.loads(out.getvalue())["data"]
        projectors.append(sympy.Matrix(k, k, [rational(x) for row in data for x in row]))
    assert sum(projectors, sympy.zeros(k, k)) == sympy.eye(k), case
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            assert p * q == (p if i == j else sympy.zeros(k, k)), (case, i, j)
