"""Color-level combinatorics: nonconstant-row sets, the deficiency
eps_bar, the NAE ("not all equal") condition, and a constructive
(k-1)-row restriction preserving minimal deficiency.

For a column set C, eps(C) = |rows nonconstant on C| - |C|; eps_bar is
the minimum over nonempty C. The NAE condition is eps_bar >= -1. All of
this depends only on the pattern of equal values within each row, never
on the values themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact_core import (
    SUBSET_SCAN_LIMIT,
    DomainError,
    InternalInvariantError,
    RMatrix,
    SubsetIndex,
    masks_of_weight,
)

# eps_bar scans all 2^k nonempty column subsets.
COLUMN_SCAN_GUARD = 20


@dataclass(frozen=True)
class NaeReport:
    """Minimum deficiency together with the column subset achieving it.

    `witness_columns` is the smallest-bitmask minimizer; `eps_bar` equals
    |nae_rows_of_witness| - |witness_columns| by construction.
    """

    eps_bar: int
    witness_columns: SubsetIndex
    nae_rows_of_witness: SubsetIndex

    def __post_init__(self) -> None:
        if len(self.witness_columns) == 0:
            raise DomainError("witness column set must be nonempty")
        if self.eps_bar != len(self.nae_rows_of_witness) - len(self.witness_columns):
            raise DomainError("deficiency does not match the witness sets")

    @property
    def satisfies_nae(self) -> bool:
        return self.eps_bar >= -1


def nae_rows(m: RMatrix, cols: SubsetIndex) -> SubsetIndex:
    """Rows taking at least two distinct values on the selected columns."""
    if cols.size != m.n_cols:
        raise DomainError(
            f"column subset over {cols.size} elements does not match {m.n_cols} columns"
        )
    idx = cols.members()
    if not idx:
        raise DomainError("column set must be nonempty")
    mask = 0
    for i, row in enumerate(m.entries):
        first = row[idx[0]]
        if any(row[j] != first for j in idx[1:]):
            mask |= 1 << i
    return SubsetIndex(m.n_rows, mask)


def eps(m: RMatrix, cols: SubsetIndex) -> int:
    """Deficiency |NAE| - |C| of the selected nonempty column set."""
    return len(nae_rows(m, cols)) - len(cols)


def _constant_counts(m: RMatrix) -> list[int]:
    """counts[C] = number of rows constant on column set C.

    A row is constant on C iff C sits inside one of the row's classes of
    equal values, so marking every submask of every class covers each
    nonempty C exactly once per row.
    """
    k = m.n_cols
    counts = [0] * (1 << k)
    for row in m.entries:
        classes: dict[object, int] = {}
        for j, value in enumerate(row):
            classes[value] = classes.get(value, 0) | (1 << j)
        for cmask in classes.values():
            s = cmask
            while True:
                counts[s] += 1
                if s == 0:
                    break
                s = (s - 1) & cmask
    return counts


def eps_bar(m: RMatrix) -> NaeReport:
    """Minimum deficiency over all nonempty column subsets.

    The witness is the minimizing subset with the smallest bitmask. The
    NAE condition holds iff the reported eps_bar is >= -1.
    """
    n, k = m.n_rows, m.n_cols
    if k < 1:
        raise DomainError("matrix must have at least one column")
    if k > COLUMN_SCAN_GUARD:
        raise DomainError(
            f"column scan guard: at most {COLUMN_SCAN_GUARD} columns (got {k})"
        )
    counts = _constant_counts(m)
    best = None
    best_mask = 0
    for cmask in range(1, 1 << k):
        e = (n - counts[cmask]) - cmask.bit_count()
        if best is None or e < best:
            best, best_mask = e, cmask
    witness = SubsetIndex(k, best_mask)
    return NaeReport(best, witness, nae_rows(m, witness))


def _largest_deficient_columns(m: RMatrix) -> SubsetIndex:
    """Largest column set with deficiency exactly -1 (smallest bitmask on ties)."""
    n, k = m.n_rows, m.n_cols
    counts = _constant_counts(m)
    best_size = -1
    best_mask = 0
    for cmask in range(1, 1 << k):
        if (n - counts[cmask]) - cmask.bit_count() == -1:
            size = cmask.bit_count()
            if size > best_size:
                best_size, best_mask = size, cmask
    if best_size < 0:
        raise InternalInvariantError(
            f"no deficiency -1 column set despite eps_bar == -1 on a {n}x{k} matrix"
        )
    return SubsetIndex(k, best_mask)


def _restrict_rows(m: RMatrix) -> int:
    """Row mask of a (k-1)-row restriction with eps_bar exactly -1.

    Assumes eps_bar(m) >= -1 and n >= k-1. Recursion: while n > k-1,
    delete one deletable row and recurse on the rest.

      * If eps_bar >= 0, any single deletion keeps eps_bar >= -1, so the
        highest-indexed row that re-verifies is removed.
      * If eps_bar == -1, take a largest column set S with eps(S) = -1.
        Rows constant on S stay, and so does a recursively found
        (k-|S|-1)-row certificate for the complementary columns; some row
        outside both always survives deletion with eps_bar >= -1 (with
        |S| = k the spare rows are exactly the rows constant everywhere).
        Each candidate deletion is re-verified directly rather than
        trusting the existence argument.
    """
    n, k = m.n_rows, m.n_cols
    if k == 1:
        return 0
    if n == k - 1:
        return (1 << n) - 1
    forbidden = 0
    if eps_bar(m).eps_bar == -1:
        cols = _largest_deficient_columns(m)
        forbidden = nae_rows(m, cols).mask
        if len(cols) < k:
            forbidden |= _restrict_rows(m.restrict_cols(cols.complement()))
    for t in reversed(range(n)):
        if (forbidden >> t) & 1:
            continue
        trimmed = m.drop_row(t)
        if eps_bar(trimmed).eps_bar >= -1:
            kept = _restrict_rows(trimmed)
            # reindex the recursive answer around the deleted row
            return ((kept >> t) << (t + 1)) | (kept & ((1 << t) - 1))
    raise InternalInvariantError(
        "no deletable row keeps eps_bar >= -1; the recursion guarantees one exists"
        f" (matrix {n}x{k}, forbidden rows {forbidden:#x})"
    )


def nae_restrict(m: RMatrix) -> SubsetIndex:
    """Exactly k-1 rows of m whose restriction has eps_bar exactly -1.

    Requires the NAE condition (eps_bar >= -1) and at least k-1 rows.
    """
    n, k = m.n_rows, m.n_cols
    report = eps_bar(m)
    if not report.satisfies_nae:
        raise DomainError(
            f"NAE condition fails: eps_bar = {report.eps_bar} < -1",
            witness=report,
        )
    if n < k - 1:
        raise DomainError(
            f"need at least k-1 = {k - 1} rows, got {n}",
            witness={"n_rows": n, "n_cols": k},
        )
    rows = SubsetIndex(n, _restrict_rows(m))
    if len(rows) != k - 1 or eps_bar(m.restrict_rows(rows)).eps_bar != -1:
        raise InternalInvariantError(
            f"restriction {rows.mask:#x} does not certify eps_bar == -1 on a {n}x{k} matrix"
        )
    return rows


def exhaustive_nae_restrict(m: RMatrix) -> list[SubsetIndex]:
    """All (k-1)-row subsets with eps_bar exactly -1, ascending bitmask order.

    Brute-force oracle for nae_restrict; nonempty whenever the NAE
    condition holds and n >= k-1.
    """
    n, k = m.n_rows, m.n_cols
    if k < 1:
        raise DomainError("matrix must have at least one column")
    if k - 1 <= n and math.comb(n, k - 1) > SUBSET_SCAN_LIMIT:
        raise DomainError(
            f"subset scan guard: C({n},{k - 1}) exceeds {SUBSET_SCAN_LIMIT}"
        )
    out = []
    for mask in masks_of_weight(n, k - 1):
        subset = SubsetIndex(n, mask)
        if eps_bar(m.restrict_rows(subset)).eps_bar == -1:
            out.append(subset)
    return out
