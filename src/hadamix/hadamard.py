"""Hadamard extensions: construction, incremental column rank, and
rank-certifying row subsets.

The extension of an n x k matrix m is the 2^n x k matrix whose rows are
the entrywise products of every subset of the rows of m (the empty subset
contributing the all-ones row). Its column rank can be computed without
materializing the 2^n rows: adjoining a row t to a chosen set replaces the
current rowspace U by span(U union t*U), which only touches basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .exact_core import (
    SUBSET_SCAN_LIMIT,
    DomainError,
    RMatrix,
    Subspace,
    SubsetIndex,
    hadamard_product,
    masks_by_cardinality,
    masks_of_weight,
    ones,
    span,
)

# Materializing 2^n rows is inherent to the object; refuse past this.
EXTENSION_ROW_GUARD = 20


@dataclass(frozen=True)
class HadamardRow:
    """One extension row: the product of the rows indexed by `subset`."""

    subset: SubsetIndex
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class RowspaceState:
    """Rowspace of the extension restricted to `chosen_rows`.

    The space always contains the all-ones vector (the empty product is a
    row of every extension), and its dimension never decreases as rows
    are added.
    """

    chosen_rows: SubsetIndex
    space: Subspace

    def __post_init__(self) -> None:
        if not self.space.contains(ones(self.space.ambient_dim)):
            raise DomainError("extension rowspace must contain the all-ones vector")

    @classmethod
    def initial(cls, n_rows: int, n_cols: int) -> "RowspaceState":
        return cls(SubsetIndex(n_rows, 0), span([ones(n_cols)], n_cols))


def extension_rows(m: RMatrix) -> Iterator[HadamardRow]:
    """Rows of the extension of m in canonical order.

    Canonical order sorts subsets by (cardinality, bitmask value), so the
    all-ones row comes first and single rows of m come next.
    """
    n = m.n_rows
    if n > EXTENSION_ROW_GUARD:
        raise DomainError(
            f"extension guard: at most {EXTENSION_ROW_GUARD} rows (got {n})"
        )
    products: dict[int, tuple[Fraction, ...]] = {0: ones(m.n_cols)}
    for mask in range(1, 1 << n):
        low = mask & -mask
        products[mask] = hadamard_product(
            products[mask ^ low], m.row(low.bit_length() - 1)
        )
    for mask in masks_by_cardinality(n):
        yield HadamardRow(SubsetIndex(n, mask), products[mask])


def hadamard_extension(m: RMatrix) -> RMatrix:
    """The 2^n x k extension matrix of m, rows in canonical order."""
    rows = tuple(hrow.values for hrow in extension_rows(m))
    return RMatrix(len(rows), m.n_cols, rows)


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
    return RowspaceState(state.chosen_rows.add(t), state.space.extend_odot(m.row(t)))


def _folded_rank(m: RMatrix) -> int:
    state = RowspaceState.initial(m.n_rows, m.n_cols)
    for t in range(m.n_rows):
        state = extend_rowspace(state, m, t)
    return state.space.dim


def full_extension_rank(m: RMatrix) -> int:
    """Column rank of the extension of m, without materializing it."""
    if m.n_rows > EXTENSION_ROW_GUARD:
        raise DomainError(
            f"extension guard: at most {EXTENSION_ROW_GUARD} rows (got {m.n_rows})"
        )
    return _folded_rank(m)


@dataclass(frozen=True)
class NotFullRank:
    """Greedy outcome when no row subset certifies full column rank.

    `rank` is the exact rank of the full extension: the greedy only stops
    once no single remaining row grows the space, and a single row always
    suffices to grow a rowspace that is still below the full extension's.
    """

    rank: int


def greedy_min_rows(m: RMatrix) -> Union[SubsetIndex, NotFullRank]:
    """Small row subset whose extension already has full column rank.

    Starting from the empty set (dimension 1), repeatedly adds the
    smallest-index row that strictly grows the rowspace. Stops at
    dimension k with at most k-1 rows chosen, or returns NotFullRank
    carrying the extension's exact rank.
    """
    k = m.n_cols
    state = RowspaceState.initial(m.n_rows, k)
    while state.space.dim < k:
        for t in range(m.n_rows):
            if t in state.chosen_rows:
                continue
            candidate = extend_rowspace(state, m, t)
            if candidate.space.dim > state.space.dim:
                state = candidate
                break
        else:
            return NotFullRank(state.space.dim)
    return state.chosen_rows


def exhaustive_min_rows(m: RMatrix, size: int) -> list[SubsetIndex]:
    """All row subsets of the given size whose extension has full rank.

    Ascending bitmask order. Guard: at most SUBSET_SCAN_LIMIT candidate
    subsets are enumerated.
    """
    n, k = m.n_rows, m.n_cols
    if size < 0 or size > n:
        raise DomainError(f"subset size {size} out of range for {n} rows")
    count = math.comb(n, size)
    if count > SUBSET_SCAN_LIMIT:
        raise DomainError(
            f"subset scan guard: C({n},{size}) = {count} exceeds {SUBSET_SCAN_LIMIT}"
        )
    out = []
    for mask in masks_of_weight(n, size):
        subset = SubsetIndex(n, mask)
        if _folded_rank(m.restrict_rows(subset)) == k:
            out.append(subset)
    return out
