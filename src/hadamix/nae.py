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
from typing import Iterator

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


def _check_columns(k: int) -> None:
    if k < 1:
        raise DomainError("matrix must have at least one column")
    if k > COLUMN_SCAN_GUARD:
        raise DomainError(
            f"column scan guard: at most {COLUMN_SCAN_GUARD} columns (got {k})"
        )


def _row_classes(m: RMatrix) -> list[tuple[int, ...]]:
    """Each row's classes of equal values, as column masks."""
    out = []
    for row in m.entries:
        classes: dict[object, int] = {}
        for j, value in enumerate(row):
            classes[value] = classes.get(value, 0) | (1 << j)
        out.append(tuple(classes.values()))
    return out


def _members(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(local: int, cols: int) -> int:
    """The subset of `cols` whose bits, numbered within `cols`, are `local`."""
    if cols & (cols + 1) == 0:  # cols is 0..w-1: the numbering is the identity
        return local
    return sum(1 << j for b, j in enumerate(_members(cols)) if local >> b & 1)


def _constant_counts(classes: list[tuple[int, ...]], rows: int, cols: int) -> list[int]:
    """counts[S] = number of rows in `rows` constant on the column set S.

    S ranges over the subsets of `cols`, numbered by their bits within
    `cols` (the submatrix's own column order). A row is constant on S iff
    S sits inside one of the row's classes of equal values, so marking
    every nonempty submask of every class covers each S once per row.
    """
    counts = [0] * (1 << cols.bit_count())
    local = None
    if cols & (cols + 1):
        local = {1 << j: 1 << b for b, j in enumerate(_members(cols))}
    for i in _members(rows):
        for cmask in classes[i]:
            cmask &= cols
            if local is not None:
                bits, cmask = cmask, 0
                while bits:
                    low = bits & -bits
                    cmask |= local[low]
                    bits ^= low
            s = cmask
            while s:
                counts[s] += 1
                s = (s - 1) & cmask
    return counts


def _min_deficiency(counts: list[int], n: int) -> tuple[int, int]:
    """(eps_bar, smallest-bitmask minimizer) of a constant-count table over n rows."""
    best, best_mask = n, 0
    for cmask in range(1, len(counts)):
        e = (n - counts[cmask]) - cmask.bit_count()
        if e < best:
            best, best_mask = e, cmask
    return best, best_mask


def eps_bar(m: RMatrix) -> NaeReport:
    """Minimum deficiency over all nonempty column subsets.

    The witness is the minimizing subset with the smallest bitmask. The
    NAE condition holds iff the reported eps_bar is >= -1.
    """
    n, k = m.n_rows, m.n_cols
    _check_columns(k)
    best, best_mask = _min_deficiency(
        _constant_counts(_row_classes(m), (1 << n) - 1, (1 << k) - 1), n
    )
    witness = SubsetIndex(k, best_mask)
    return NaeReport(best, witness, nae_rows(m, witness))


def nae_restrict(m: RMatrix) -> SubsetIndex:
    """Exactly k-1 rows of m whose restriction has eps_bar exactly -1.

    Requires the NAE condition (eps_bar >= -1), which implies at least k-1
    rows.

    A subproblem is the submatrix on a row mask and a column mask of m;
    the recursion and the scans it makes are memoised on that pair for the
    duration of one call. `restrict(rows, cols)` returns the row mask (in
    m's indices) of |cols|-1 rows of the subproblem with eps_bar -1,
    assuming its eps_bar >= -1 and |rows| >= |cols|-1. While there are
    more rows, it deletes one deletable row and continues on the rest.

      * If eps_bar >= 0, any single deletion keeps eps_bar >= -1, so the
        highest-indexed row that re-verifies is removed.
      * If eps_bar == -1, take a largest column set S with eps(S) = -1.
        Rows nonconstant on S stay, and so does a recursively found
        (|cols|-|S|-1)-row certificate for the complementary columns; some
        row outside both always survives deletion with eps_bar >= -1 (with
        S = cols the spare rows are exactly the rows constant on cols).
        Each candidate deletion is re-verified directly rather than
        trusting the existence argument.

    Restricting to a column subset keeps the column order, so the
    smallest-bitmask choices within a subproblem are the smallest masks of
    m's columns too.
    """
    n, k = m.n_rows, m.n_cols
    _check_columns(k)
    classes = _row_classes(m)
    scans: dict[tuple[int, int], tuple[int, int, int]] = {}
    kept: dict[tuple[int, int], int] = {}

    def where(rows: int, cols: int) -> str:
        return f"matrix {n}x{k}, rows {rows:#x}, columns {cols:#x}"

    def scan(rows: int, cols: int) -> tuple[int, int, int]:
        """(eps_bar, its witness, a largest deficiency -1 set or 0), as column masks.

        The largest set (smallest bitmask on ties) is looked for only where
        the recursion takes it: eps_bar == -1 and more than |cols|-1 rows.
        """
        key = (rows, cols)
        if key not in scans:
            n_sub, width = rows.bit_count(), cols.bit_count()
            counts = _constant_counts(classes, rows, cols)
            best, witness = _min_deficiency(counts, n_sub)
            largest = largest_size = 0
            if best == -1 and n_sub >= width > 1:
                for cmask in range(1, len(counts)):
                    size = cmask.bit_count()
                    if size > largest_size and (n_sub - counts[cmask]) - size == -1:
                        largest, largest_size = cmask, size
            scans[key] = (best, _spread(witness, cols), _spread(largest, cols))
        return scans[key]

    def restrict(rows: int, cols: int) -> int:
        key = (rows, cols)
        if key in kept:
            return kept[key]
        if cols.bit_count() == 1:
            return 0
        if rows.bit_count() == cols.bit_count() - 1:
            return rows
        best, _, largest = scan(rows, cols)
        forbidden = 0
        if best == -1:
            if not largest:
                raise InternalInvariantError(
                    "no deficiency -1 column set despite eps_bar == -1"
                    f" ({where(rows, cols)})"
                )
            forbidden = sum(
                1 << i for i in _members(rows)
                if not any(cmask & largest == largest for cmask in classes[i])
            )
            if largest != cols:
                forbidden |= restrict(rows, cols & ~largest)
        for t in sorted(_members(rows & ~forbidden), reverse=True):
            trimmed = rows & ~(1 << t)
            if scan(trimmed, cols)[0] >= -1:
                kept[key] = restrict(trimmed, cols)
                return kept[key]
        raise InternalInvariantError(
            "no deletable row keeps eps_bar >= -1; the recursion guarantees one exists"
            f" ({where(rows, cols)}, forbidden rows {forbidden:#x})"
        )

    all_rows, all_cols = (1 << n) - 1, (1 << k) - 1
    best, witness_mask, _ = scan(all_rows, all_cols)
    witness = SubsetIndex(k, witness_mask)
    report = NaeReport(best, witness, nae_rows(m, witness))
    if not report.satisfies_nae:
        raise DomainError(
            f"NAE condition fails: eps_bar = {report.eps_bar} < -1",
            witness=report,
        )
    # Passing the NAE check implies n >= k-1: with n < k-1 rows, the set of
    # all columns has eps <= n - k <= -2, so the check above refuses first.
    rows = SubsetIndex(n, restrict(all_rows, all_cols))
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
    if k - 1 > n:
        return []
    if math.comb(n, k - 1) > SUBSET_SCAN_LIMIT:
        raise DomainError(
            f"subset scan guard: C({n},{k - 1}) exceeds {SUBSET_SCAN_LIMIT}"
        )
    _check_columns(k)
    classes = _row_classes(m)
    all_cols = (1 << k) - 1
    return [
        SubsetIndex(n, mask)
        for mask in masks_of_weight(n, k - 1)
        if _min_deficiency(_constant_counts(classes, mask, all_cols), k - 1)[0] == -1
    ]
