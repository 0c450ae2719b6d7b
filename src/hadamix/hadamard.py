"""Hadamard extensions: construction, incremental column rank, and
rank-certifying row subsets.

The extension of an n x k matrix m is the 2^n x k matrix whose rows are
the entrywise products of every subset of the rows of m (the empty subset
contributing the all-ones row). Every function here reads m's integer
rows (`RMatrix.rows`, row i scaled by `scales[i]`), and none builds a
Fraction. `_subset_rows` is a seed row times the products of every
subset of whole rows. `_extension_table` builds it over two halves of the
rows, and `hadamard_extension` and the `hadext` command read the extension
from those two tables, with one product and one gcd per entry; the mixture
module builds its moment blocks and the equations of `recover_pi` with it.
`_subset_products`, over one column, is left to its full forward moments.
The column rank needs no 2^n rows: adjoining a row t to a chosen set
replaces the rowspace U by span(U union t*U), which only touches basis
vectors. That fold is `Subspace.extend_odot`, on integer rows; it returns
U itself when t adds nothing, and the unit rows of Q^k, with no further
elimination, as soon as its residues fill the space. `_fold` runs it once
over the rows in index order for the rank and the greedy certificate;
`exhaustive_min_rows` folds each prefix once, shared by every subset that
extends it.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import repeat
from typing import Iterator, Sequence

from .exact_core import (
    DomainError,
    RMatrix,
    Subspace,
    SubsetIndex,
    _count_subsets,
    _Record,
    masks_by_cardinality,
    masks_of_weight,
    ones,
    span,
)

# Materializing 2^n rows is inherent to the object; refuse past this.
EXTENSION_ROW_GUARD = 20
# Every fold and every extension row holds k entries, and a fold's work
# grows faster than k^2; refuse past this before anything of size k is built.
EXTENSION_COLUMN_GUARD = 1024
# `hadamard_extension` builds the extension whole (`hadext` writes it as it
# goes); refuse more entries than the largest `gen hamming` matrix emits,
# l = EXTENSION_ROW_GUARD rows by 2^l columns. `gen` caps its output there.
EXTENSION_ENTRY_GUARD = EXTENSION_ROW_GUARD << EXTENSION_ROW_GUARD


def _check_columns(k: int) -> None:
    if k > EXTENSION_COLUMN_GUARD:
        raise DomainError(
            f"extension guard: at most {EXTENSION_COLUMN_GUARD} columns (got {k})"
        )


class RowspaceState(_Record):
    """Rowspace of the extension restricted to `chosen_rows`: the state
    `extend_rowspace` folds.

    The space always contains the all-ones vector (the empty product is a
    row of every extension), and its dimension never decreases as rows
    are added.
    """

    __slots__ = ("chosen_rows", "space")

    def __post_init__(self) -> None:
        if not self.space.contains([1] * self.space.ambient_dim):
            raise DomainError("extension rowspace must contain the all-ones vector")


def _subset_products(first: int, factors: Sequence[int]) -> list[int]:
    """first * prod(factors[i] for i in S) for every mask S, in ascending order.

    The table doubles once per factor: the masks whose highest bit is i
    extend the masks below 2^i.
    """
    table = [first]
    for x in factors:
        # list() first: extending a list by a map over itself never ends
        table += list(map(operator.mul, table, repeat(x)))
    return table


def _subset_rows(first: Sequence[int], rows: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    """`first` times the entrywise product of every subset of these rows,
    masks in ascending order: `_subset_products` over each entry at once.
    The empty subset gives `first` itself, not a copy."""
    table = [first]
    for row in rows:
        table += [list(map(operator.mul, product, row)) for product in table]
    return table


def _extension_table(m: RMatrix) -> Iterator[tuple[list[int], int]]:
    """(numerators, denominator) of each extension row of m, rows in
    canonical order; entry j of row S is nums[j] / den, not in lowest terms.

    Each integer row of m is extended by its scale d_i, and the subset
    products of those rows are built over the low l = n // 2 rows and over
    the high ones: 2^l and 2^(n-l) rows of k + 1 integers, not k tables of
    2^n. Row S is the product of low row a = S & (2^l - 1) and high row
    b = S >> l; its last entry is the common denominator
    D_S = prod_{i in S} d_i. Each reader then takes one gcd per entry.
    Every guard is checked, and the tables are built, when this is called;
    the rows are read off the tables one at a time.
    """
    n, k = m.n_rows, m.n_cols
    if n > EXTENSION_ROW_GUARD:
        raise DomainError(f"extension guard: at most {EXTENSION_ROW_GUARD} rows (got {n})")
    _check_columns(k)
    if k << n > EXTENSION_ENTRY_GUARD:
        raise DomainError(
            f"extension guard: at most {EXTENSION_ENTRY_GUARD} entries (got {k << n})"
        )
    low = n // 2
    rows = [(*row, d) for row, d in zip(m.rows, m.scales)]
    ones = [1] * (k + 1)
    lows, highs = _subset_rows(ones, rows[:low]), _subset_rows(ones, rows[low:])

    def read() -> Iterator[tuple[list[int], int]]:
        low_mask = (1 << low) - 1
        for mask in masks_by_cardinality(n):
            nums = list(map(operator.mul, lows[mask & low_mask], highs[mask >> low]))
            den = nums.pop()
            yield nums, den

    return read()


def _within_the_digit_limit(m: RMatrix) -> bool:
    """Whether every integer of m's extension, in lowest terms, surely has
    at most `sys.get_int_max_str_digits()` digits (0 is no limit; some 3.10
    builds have no such function).

    Entry j of row S is prod_{i in S} rows[i][j] over prod_{i in S}
    scales[i], so in lowest terms its numerator is at most the product over
    all i of max(1, |rows[i][j]|), and its denominator at most the product
    of all scales. A product has at most the sum of its factors' bit
    lengths, and b bits make at most floor(b * 0.30103) + 1 digits, as
    log10(2) < 0.30103.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return True
    bits = max([sum(map(int.bit_length, m.scales)),
                *(sum(map(int.bit_length, column)) for column in zip(*m.rows))])
    return bits * 30103 // 100000 + 1 <= limit


def hadamard_extension(m: RMatrix) -> RMatrix:
    """The 2^n x k extension matrix of m, rows in canonical order.

    Canonical order sorts subsets by (cardinality, bitmask value), so the
    all-ones row comes first and single rows of m come next. The entries
    are read from `_extension_table`.
    """
    scales, rows = [], []
    for nums, den in _extension_table(m):
        g = math.gcd(den, *nums)  # den // g is the least scale of the row
        scales.append(den // g)
        rows.append(tuple([x // g for x in nums]))
    return RMatrix._trusted(1 << m.n_rows, m.n_cols, tuple(scales), tuple(rows), None)


def extend_rowspace(state: RowspaceState, m: RMatrix, t: int) -> RowspaceState:
    """State after adjoining row t of m to the chosen set.

    The new space is span(B union t*B) for the old basis B; only the dim
    products t*b are reduced against B, instead of 2^|chosen| extension rows.
    """
    if state.chosen_rows.size != m.n_rows or state.space.ambient_dim != m.n_cols:
        raise DomainError("state does not match the matrix shape")
    if not 0 <= t < m.n_rows:
        raise DomainError(f"row index {t} out of range for {m.n_rows} rows")
    if t in state.chosen_rows:
        raise DomainError(f"row {t} already chosen")
    return RowspaceState(state.chosen_rows.add(t), state.space.extend_odot(m.rows[t]))


def _fold(m: RMatrix) -> tuple[int, Subspace]:
    """(mask, U) after folding the rows in index order, adjoining (and
    setting the bit of) each row that grows U, until U has dimension k.

    U starts as span(ones), the empty product, and a fold only adds basis
    rows, so U holds the all-ones row throughout. Each integer row of m is
    folded at most once, as it is. The fold that
    reaches dimension k stops at the residue that fills Q^k and returns its
    unit rows (see `Subspace.extend_odot`).
    """
    k = m.n_cols
    _check_columns(k)
    chosen, space = 0, span([ones(k)], k)
    for t, row in enumerate(m.rows):
        if space.dim == k:
            break
        grown = space.extend_odot(row)
        if grown.dim > space.dim:
            chosen, space = chosen | 1 << t, grown
    return chosen, space


def full_extension_rank(m: RMatrix) -> int:
    """Column rank of the extension of m, without materializing it."""
    return _fold(m)[1].dim


class NotFullRank(_Record):
    """Greedy outcome when no row subset certifies full column rank.

    `rank` is the exact rank of the full extension: no row outside the
    greedy's chosen rows grows its final space U (see `greedy_min_rows`),
    so adjoining them one at a time never grows U, and U is the rowspace
    of the whole extension.
    """

    __slots__ = ("rank",)


def greedy_min_rows(m: RMatrix) -> SubsetIndex | NotFullRank:
    """Small row subset whose extension already has full column rank.

    The rows that grow the rowspace in one pass in index order (`_fold`):
    at most k-1 of them once the dimension is k, else NotFullRank with the
    extension's exact rank. This is the greedy that restarts at row 0 and
    takes the smallest-index row that grows the space. Lemma: if row s does
    not grow U_C, the rowspace over rows C, it grows no U_C' with C in C'
    and s not in C'. Each product over S in C' is P_A*P_B with A in C and
    B in C' minus C; s*P_A lies in U_C, so s*P_A*P_B lies in U_C'. So a
    restart skips every row the pass skipped. No `RowspaceState` is built:
    the pass only reads the dimension of U, which holds span(ones) by
    construction.
    """
    chosen, space = _fold(m)
    return SubsetIndex(m.n_rows, chosen) if space.dim == m.n_cols else NotFullRank(space.dim)


def exhaustive_min_rows(m: RMatrix, size: int) -> list[SubsetIndex]:
    """All row subsets of the given size whose extension has full rank.

    Ascending bitmask order. Guard: at most SUBSET_SCAN_LIMIT candidate
    subsets are enumerated.

    The subsets are walked depth-first, members picked from the highest
    index down, each new member below the last. A subset with a lower
    highest member has the smaller mask, and so on down the members, so
    visiting the candidates for each position in increasing index order
    yields the masks in ascending order. A prefix's rowspace is folded once
    and shared by every subset that extends it. Two cuts skip whole
    subtrees without changing the answer: a prefix already at rank k makes
    every completion full rank, so all of them are emitted unfolded; and a
    fold at most doubles the dimension, so a prefix of dimension d with
    `left` members still to pick is dropped when d * 2^left < k.
    """
    n, k = m.n_rows, m.n_cols
    _check_columns(k)
    if size < 0 or size > n:
        raise DomainError(f"subset size {size} out of range for {n} rows")
    _count_subsets(n, size)
    rows = m.rows
    out: list[SubsetIndex] = []
    # (prefix's space, prefix, members left to pick below `below`), each child
    # folded as it is pushed: a stack, as a path may outrun the recursion limit
    stack = [(span([ones(k)], k), 0, n, size)]
    while stack:
        space, prefix, below, left = stack.pop()
        if space.dim == k:
            out.extend(SubsetIndex(n, prefix | low) for low in masks_of_weight(below, left))
        elif space.dim << left >= k:  # pushed last to first, so popped in index order
            stack.extend((space.extend_odot(rows[t]), prefix | 1 << t, t, left - 1)
                         for t in reversed(range(left - 1, below)))
    return out
