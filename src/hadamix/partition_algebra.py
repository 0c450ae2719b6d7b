"""Value partitions of a vector and their projection algebra.

A vector v over Q^k partitions the coordinates [k] into blocks of equal
value, ordered by strictly decreasing value. Each block carries a 0/1
diagonal projector, realizable as the Lagrange interpolation polynomial
(1 at that block's value, 0 at the others) evaluated entrywise on v. A
subspace "respects" the partition when it is the direct sum of its block
projections, which happens exactly when span(U union v*U) = U.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Sequence

from .exact_core import (
    ZERO,
    DomainError,
    InternalInvariantError,
    RationalLike,
    RMatrix,
    Subspace,
    SubsetIndex,
    _Record,
    as_vector,
    scale_to_integers,
)

# `project` writes k x k entries, so longer vectors are refused; 62 is the old
# bound on every ground set, kept so the `blocks` and `project` refusals keep their text.
VECTOR_GUARD = 62


class Partition(_Record):
    """Blocks of equal coordinates, indexed by strictly decreasing value:
    the result of blocks_of."""

    __slots__ = ("ambient", "values", "blocks")

    def __init__(self, ambient: int, values: tuple[Fraction, ...],
                 blocks: tuple[SubsetIndex, ...]) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def blocks_of(v: Sequence[RationalLike]) -> Partition:
    """Partition of the coordinates of v by equal value, keyed on each
    value's `as_integer_ratio()`; only the distinct values are sorted."""
    vec = as_vector(v)
    if not vec:
        raise DomainError("vector must be nonempty")
    if len(vec) > VECTOR_GUARD:
        raise DomainError(f"ground-set size guard: 0 <= size <= {VECTOR_GUARD} (got {len(vec)})")
    keys = [x.as_integer_ratio() for x in vec]
    masks: dict[tuple[int, int], int] = {}
    for j, key in enumerate(keys):
        masks[key] = masks.get(key, 0) | 1 << j
    values = tuple(sorted(dict(zip(keys, vec)).values(), reverse=True))
    blocks = tuple(SubsetIndex(len(vec), masks[value.as_integer_ratio()]) for value in values)
    return Partition(len(vec), values, blocks)


def lagrange_projection(v: Sequence[RationalLike], i: int) -> RMatrix:
    """Block-i projector obtained by polynomial evaluation on diag(v).

    The Lagrange basis polynomial L_i (1 at the i-th distinct value, 0 at
    the others) is evaluated once per distinct value, over integers: with
    the values scaled to integers a_j by their common denominator,
    L_i(a_x) = prod_{j != i} (a_x - a_j) / prod_{j != i} (a_i - a_j). Each
    block's value is then spread to its coordinates. The k diagonal values
    are cross-checked against the block's 0/1 indicator, failing loudly on
    mismatch.
    """
    part = blocks_of(v)
    if not 0 <= i < len(part):
        raise DomainError(f"block index {i} out of range for {len(part)} blocks")
    _, a = scale_to_integers(part.values)
    others = a[:i] + a[i + 1:]
    denominator = math.prod(a[i] - b for b in others)
    diag: list[Fraction] = [ZERO] * part.ambient
    for ax, block in zip(a, part.blocks):
        value = Fraction(math.prod(ax - b for b in others), denominator)
        for j in block:
            diag[j] = value
    mask = part.blocks[i].mask
    if diag != [mask >> j & 1 for j in range(part.ambient)]:
        raise InternalInvariantError(
            f"polynomial projector of block {i} (0-based) disagrees with the block diagonal"
            f" (len(v) = {part.ambient})"
        )
    return RMatrix.diagonal(diag)


def respects(u: Subspace, v: Sequence[RationalLike]) -> bool:
    """Whether u is the direct sum of its projections onto the blocks of v.

    Read off u's RREF rows, with no elimination: this holds iff every row
    lies inside one block. If it does, each projection maps each row to
    itself or 0. Conversely, if u is the direct sum of the spaces U_i of its
    vectors inside block i, the RREF rows of all U_i, sorted by pivot, are
    a basis of u in RREF: a pivot column is zero in the other rows of U_i
    and outside block i. The RREF is unique, so these are u's rows.
    Coordinates are keyed on their values, as in blocks_of.
    """
    keys = [x.as_integer_ratio() for x in as_vector(v)]
    if not keys:
        raise DomainError("vector must be nonempty")
    if u.ambient_dim != len(keys):
        raise DomainError(
            f"ambient mismatch: subspace {u.ambient_dim}, partition {len(keys)}"
        )
    return all(len(set(compress(keys, row))) == 1 for row in u.rows)


def is_invariant(v: Sequence[RationalLike], u: Subspace) -> bool:
    """Whether span(U union v*U) = U; agrees with respects(u, v).

    Each product v*b of a basis row b is tested for membership in U,
    stopping at the first one outside; no space is built.
    """
    vec = as_vector(v)
    u._check_length(vec)
    _, t = scale_to_integers(vec)
    return all(u.contains([a * b for a, b in zip(row, t)]) for row in u.rows)
