"""The paper's claims that no other test states, as hypothesis properties.

Matrices are small (k <= 5 columns, n <= 8 rows) with entries drawn from
1-4 distinct values, so ties, constant rows and equal columns are common.
With n <= 8 the 2^n-row extension is small enough to materialize, and its
rank by sympy, an implementation independent of the fold, is the oracle.
One more property states the identity that a k x k route to that rank
rests on: the Gram matrix of the extension E is the entrywise product of
the matrices J + m_i m_i^T, one per row m_i of m, and all three have the
same rank. The certificate bound and invariance versus block respect are
criteria 1 and 4 of test_acceptance.py and are not restated here.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadamix import (
    RMatrix,
    eps_bar,
    full_extension_rank,
    hadamard_extension,
    nae_restrict,
)

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
