"""Keys agree across number types.

Every kernel that compares entries keys them by `as_integer_ratio()`, so an
int, a Fraction and a Fraction built from a multiple of its pair (3,
Fraction(3), Fraction(6, 2)) must give one answer. Matrices are built with
the raw `RMatrix` constructor, which keeps each entry's type, and compared
with their all-Fraction copies; vectors may also hold "a/b" strings.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hadamix import (
    DomainError,
    RMatrix,
    SubsetIndex,
    blocks_of,
    eps_bar,
    greedy_min_rows,
    hadamard_extension,
    is_separated,
    nae_restrict,
    nae_rows,
    respects,
    span,
)

VALUES = [Fraction(x) for x in (0, 1, -1, 2, 3, "1/2", "-3/2", "2/3")]


def _forms(q, strings=False):
    """q as a Fraction, as one built from twice its pair, as an int when it
    is whole and, for vectors, as 'a/b' strings."""
    num, den = q.as_integer_ratio()
    forms = [q, Fraction(2 * num, 2 * den)]
    if den == 1:
        forms.append(num)
    if strings:
        forms += [f"{num}/{den}", f"{3 * num}/{3 * den}"]
    return forms


@st.composite
def mixed_matrices(draw):
    """(the mixed matrix, its all-Fraction copy), few values so that rows
    repeat entries and columns."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, 6))
    pool = VALUES[:draw(st.integers(2, len(VALUES)))]
    values = [[draw(st.sampled_from(pool)) for _ in range(k)] for _ in range(n)]
    mixed = tuple(tuple(draw(st.sampled_from(_forms(q))) for q in row) for row in values)
    return RMatrix(n, k, mixed), RMatrix(n, k, tuple(map(tuple, values)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc), exc.witness


@settings(deadline=None, max_examples=150)
@given(mixed_matrices())
def test_matrix_kernels_key_ints_and_fractions_alike(case):
    mixed, exact = case
    k = exact.n_cols
    for mask in range(1, 1 << k):
        cols = SubsetIndex(k, mask)
        assert nae_rows(mixed, cols) == nae_rows(exact, cols)
    assert eps_bar(mixed) == eps_bar(exact)
    assert _outcome(nae_restrict, mixed) == _outcome(nae_restrict, exact)
    for i in range(exact.n_rows):
        assert is_separated(mixed, i) == is_separated(exact, i)
    assert hadamard_extension(mixed) == hadamard_extension(exact)
    assert greedy_min_rows(mixed) == greedy_min_rows(exact)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_vector_kernels_key_ints_fractions_and_strings_alike(data):
    values = data.draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=12))
    mixed = [data.draw(st.sampled_from(_forms(q, strings=True))) for q in values]
    assert blocks_of(mixed) == blocks_of(values)
    # block indicators respect v; an extra drawn vector usually does not
    k = len(values)
    rows = [[int(x == q) for x in values]
            for q in data.draw(st.lists(st.sampled_from(values), max_size=3))]
    if data.draw(st.booleans()):
        rows.append(data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)))
    u = span(rows, k)
    assert respects(u, mixed) == respects(u, values)
