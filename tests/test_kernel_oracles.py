"""Differential tests of the elimination kernel.

Every rank, span, membership and solve in hadamix runs on one integer
kernel, so the library's own `span` cannot check it. These tests
compare against sympy's exact rational matrices, an independent
implementation, and against `rref_reference`, the Fraction Gauss-Jordan
elimination kept in the test suite as the slow reference.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, orthogonal_complement, rref_reference
from hadamix import (
    DomainError,
    RMatrix,
    full_extension_rank,
    hadamard_extension,
    span,
)
from hadamix.exact_core import scale_to_integers, solve_square

sympy = pytest.importorskip("sympy")

# Zeros and repeated values are likely, so rank deficiency is common.
entries = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda k: st.tuples(
            st.lists(st.lists(entries, min_size=k, max_size=k), max_size=max_rows),
            st.just(k),
        )
    )


def to_sympy(rows, k):
    return sympy.Matrix(len(rows), k, [
        sympy.Rational(x.numerator, x.denominator) for row in rows for x in row
    ])


def from_sympy(q):
    return Fraction(int(q.p), int(q.q))


def sympy_rank(rows, k):
    return to_sympy(rows, k).rank() if rows else 0


oracle = settings(deadline=None, max_examples=80)


@oracle
@given(matrices())
def test_span_matches_sympy_rref(data):
    rows, k = data
    u = span(rows, k)
    reduced, pivots = to_sympy(rows, k).rref()
    assert u.dim == len(pivots)
    assert u.pivots == tuple(pivots)
    expected = tuple(
        tuple(from_sympy(x) for x in reduced.row(i)) for i in range(len(pivots))
    )
    assert basis(u).entries == expected
    assert list(expected) == rref_reference(rows)[0]
    # the stored integer rows are canonical: primitive, positive pivots,
    # independent of the order the vectors arrive in
    assert all(row[p] > 0 and math.gcd(*row) == 1 for row, p in zip(u.rows, u.pivots))
    assert span(rows[::-1], k) == u


@oracle
@given(matrices(), st.data())
def test_contains_matches_sympy_rank(data, draw):
    rows, k = data
    if rows and draw.draw(st.booleans()):
        coeffs = draw.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(k)]
    else:
        v = draw.draw(st.lists(entries, min_size=k, max_size=k))
    expected = sympy_rank(rows + [v], k) == sympy_rank(rows, k)
    assert span(rows, k).contains(scale_to_integers(v)[1]) == expected


@oracle
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k),
    st.lists(entries, min_size=k, max_size=k),
)))
def test_solve_square_matches_sympy(system):
    rows, rhs = system
    a = to_sympy(rows, len(rows))
    matrix = RMatrix.from_rows(rows)
    if a.det() == 0:
        with pytest.raises(DomainError):
            solve_square(matrix, rhs)
        return
    x = a.LUsolve(to_sympy([[b] for b in rhs], 1))
    assert solve_square(matrix, rhs) == tuple(from_sympy(q) for q in x)


@oracle
@given(matrices())
def test_orthogonal_complement_is_sympy_nullspace(data):
    rows, k = data
    null = to_sympy(rows, k).nullspace() if rows else sympy.eye(k).columnspace()
    kernel = [[from_sympy(q) for q in vec] for vec in null]
    assert orthogonal_complement(span(rows, k)) == span(kernel, k)


@oracle
@given(matrices(max_rows=5, max_cols=6))
def test_full_extension_rank_matches_sympy(data):
    rows, k = data
    m = RMatrix.from_rows(rows, k)
    extension = hadamard_extension(m)
    assert full_extension_rank(m) == sympy_rank(extension.entries, k)
