"""Color-level combinatorics: nonconstant-row sets, the deficiency
eps_bar, the NAE ("not all equal") condition, and a constructive
(k-1)-row restriction preserving minimal deficiency.

For a column set C, eps(C) = |rows nonconstant on C| - |C|; eps_bar is
the minimum over nonempty C. The NAE condition is eps_bar >= -1. All of
this depends only on the pattern of equal values within each row, never
on the values themselves.
"""

from __future__ import annotations

import functools

from .exact_core import (
    DomainError,
    InternalInvariantError,
    RMatrix,
    SubsetIndex,
    _count_subsets,
    _members,
    _Record,
    _spread,
    masks_of_weight,
)

# eps_bar scans all 2^k nonempty column subsets.
COLUMN_SCAN_GUARD = 20
# The packed scans refuse more rows than this. `_constant_table` needs fewer
# than 256; 62 is the old bound on every ground set, kept so the refusals keep their text.
ROW_SCAN_GUARD = 62
# The exhaustive NAE restriction scans 2^k column sets per (k-1)-row subset;
# it refuses more than this many in total (about a third of a second).
SUBSET_FIELD_LIMIT = 10**7

_PLUS_ONE = bytes(range(1, 256)) + b"\0"

# (row mask, classes of equal values as column masks) per distinct row pattern
Classes = list[tuple[int, tuple[int, ...]]]


class NaeReport(_Record):
    """Minimum deficiency together with the column subset achieving it.

    `witness_columns` is the smallest-bitmask minimizer; `eps_bar` equals
    |nae_rows_of_witness| - |witness_columns| by construction.
    """

    __slots__ = ("eps_bar", "witness_columns", "nae_rows_of_witness")

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
    for i, row in enumerate(m.rows):
        if len({row[j] for j in idx}) > 1:
            mask |= 1 << i
    return SubsetIndex(m.n_rows, mask)


def eps(m: RMatrix, cols: SubsetIndex) -> int:
    """Deficiency |NAE| - |C| of the selected nonempty column set."""
    return len(nae_rows(m, cols)) - len(cols)


def _check_shape(n: int, k: int) -> None:
    if k < 1:
        raise DomainError("matrix must have at least one column")
    if k > COLUMN_SCAN_GUARD:
        raise DomainError(
            f"column scan guard: at most {COLUMN_SCAN_GUARD} columns (got {k})"
        )
    if n > ROW_SCAN_GUARD:
        raise DomainError(f"ground-set size guard: 0 <= size <= {ROW_SCAN_GUARD} (got {n})")


def _row_classes(m: RMatrix) -> Classes:
    """The rows' classes of equal values, as column masks, one entry per
    distinct pattern: (mask of the rows with that pattern, their classes).

    Values are keyed by the integer rows of m: two entries of a row are
    equal exactly when their scaled integers are. Classes are listed by
    their first column, so rows with the same pattern give the same tuple.
    """
    groups: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(m.rows):
        classes: dict[int, int] = {}
        bit = 1
        for key in row:
            classes[key] = classes.get(key, 0) | bit
            bit <<= 1
        pattern = tuple(classes.values())
        groups[pattern] = groups.get(pattern, 0) | 1 << i
    return [(rows, pattern) for pattern, rows in groups.items()]


def _nonconstant(classes: Classes, rows: int, cols: int) -> int:
    """The rows of the mask `rows` that are not constant on the column mask `cols`."""
    return sum(
        group & rows for group, pattern in classes
        if not any(cmask & cols == cols for cmask in pattern)
    )


def _restrict_classes(classes: Classes, cols: int) -> Classes:
    """The classes on the columns of `cols`, numbered within `cols`."""
    positions = list(_members(cols))
    groups: dict[tuple[int, ...], int] = {}
    for rows, pattern in classes:
        local = tuple(
            sum(1 << b for b, j in enumerate(positions) if cmask >> j & 1)
            for cmask in pattern
            if cmask & cols
        )
        groups[local] = groups.get(local, 0) | rows
    return [(rows, pattern) for pattern, rows in groups.items()]


def _constant_table(classes: Classes, rows: int, width: int, size: int) -> int:
    """Packed counts: field S holds the number of rows in `rows` constant on S.

    `classes` cover the columns 0..width-1 and S ranges over their subsets;
    field S is the `size`-byte slice of the int at byte `size * S`. A row
    is constant on S iff S sits inside one of its classes of equal values,
    so the counts are the superset sums of the histogram of class masks:
    one shift, mask and add per column (the zeta transform), each over the
    whole packed table. `size` must hold rows.bit_count() * width, which
    bounds the empty set's field while the sums run.
    """
    hist: dict[int, int] = {}
    for group, pattern in classes:
        copies = (group & rows).bit_count()
        if copies:
            for cmask in pattern:
                hist[cmask] = hist.get(cmask, 0) + copies
    packed = bytearray(size << width)
    for cmask, count in hist.items():
        # at most ROW_SCAN_GUARD rows: the count is the field's low byte, its others stay zero
        packed[size * cmask] = count
    table = int.from_bytes(packed, "little")
    del packed  # as large as the table, and not read again
    step = 8 * size
    keep = (1 << (step << (width - 1))) - 1  # the fields whose top bit is clear
    for b in reversed(range(width)):
        shift = step << b
        table += (table >> shift) & keep
        if b:  # the fields with bit b - 1 clear, from those with bit b clear
            half = keep & (keep >> (shift >> 1))
            keep = half | (half << shift)
    # the empty set's field summed every class; every row is constant on it
    return table - sum(hist.values()) + rows.bit_count()


@functools.cache
def _popcounts(width: int, size: int) -> int:
    """Packed like `_constant_table`: field S holds |S|. Cached: there are at
    most COLUMN_SCAN_GUARD widths and two field sizes, about 6 MiB in all."""
    counts = b"\0"
    for _ in range(width):
        counts += counts.translate(_PLUS_ONE)
    if size > 1:
        wide = bytearray(size << width)
        wide[::size] = counts
        counts = wide
    return int.from_bytes(counts, "little")


def _find(data: bytes, size: int, value: int) -> int:
    """The first field of a packed table's bytes that holds `value`, or -1."""
    pattern = value.to_bytes(size, "little")
    at = data.find(pattern)
    while at > 0 and at % size:  # a match across two fields
        at = data.find(pattern, at + 1)
    return at // size


def _field_bytes(largest: int) -> int:
    """The fewest bytes that hold 0..largest."""
    return max(1, (largest.bit_length() + 7) // 8)


def _scan(
    classes: Classes, rows: int, width: int, largest: bool = False
) -> tuple[int, int, int]:
    """(eps_bar, its witness, a largest deficiency -1 set or 0), as column
    masks, of the submatrix on `rows` and the `width` columns of `classes`.

    With V(S) = |rows constant on S| + |S|, eps(S) = n - V(S), so eps_bar
    is n minus the largest V, and the witness is the first field holding
    it. Singletons have V = n + 1, and dropping a column from S lowers V
    by at most one, so the values of V on nonempty sets fill n+1..max V:
    the search climbs until a value is missing. The largest set is looked
    for only when asked and eps_bar == -1, as the first field with the
    largest key V(S)(w+1) + |S| = (n+1)(w+1) + |S|: largest size, smallest
    bitmask on ties.
    """
    n = rows.bit_count()
    top_key = (n + 1) * (width + 1) + width
    size = _field_bytes(max(n * width, top_key if largest else n + width))
    pops = _popcounts(width, size)
    fields = _constant_table(classes, rows, width, size) + pops
    data = fields.to_bytes(size << width, "little")
    most, witness = n, 0
    while (at := _find(data, size, most + 1)) >= 0:
        most, witness = most + 1, at
    if not largest or most != n + 1:
        return n - most, witness, 0
    data = (fields * (width + 1) + pops).to_bytes(size << width, "little")
    for key in range(top_key, top_key - width, -1):
        if (at := _find(data, size, key)) >= 0:
            return -1, witness, at
    return -1, witness, 0


def _report(classes: Classes, n: int, k: int, scanned: tuple[int, int, int]) -> NaeReport:
    """The NaeReport of an n x k matrix from the `_scan` of all its rows and columns."""
    best, witness, _ = scanned
    nonconstant = _nonconstant(classes, (1 << n) - 1, witness)
    return NaeReport(best, SubsetIndex(k, witness), SubsetIndex(n, nonconstant))


def eps_bar(m: RMatrix) -> NaeReport:
    """Minimum deficiency over all nonempty column subsets.

    The witness is the minimizing subset with the smallest bitmask. The
    NAE condition holds iff the reported eps_bar is >= -1.
    """
    n, k = m.n_rows, m.n_cols
    _check_shape(n, k)
    classes = _row_classes(m)
    return _report(classes, n, k, _scan(classes, (1 << n) - 1, k))


def nae_restrict(m: RMatrix) -> SubsetIndex:
    """Exactly k-1 rows of m whose restriction has eps_bar exactly -1.

    Requires the NAE condition (eps_bar >= -1), which implies at least k-1
    rows.

    A subproblem is the submatrix on a row mask and a column mask of m;
    the recursion and the scans it makes are memoised on that pair, and the
    colour classes on each column mask, for the duration of one call.
    `restrict(rows, cols)` returns the row mask (in m's indices) of
    |cols|-1 rows of the subproblem with eps_bar -1, assuming its
    eps_bar >= -1 and |rows| >= |cols|-1. While there are more rows, it
    deletes one deletable row and continues on the rest.

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
    _check_shape(n, k)
    classes = _row_classes(m)
    scans: dict[tuple[int, int], tuple[int, int, int]] = {}
    kept: dict[tuple[int, int], int] = {}
    on_cols: dict[int, Classes] = {(1 << k) - 1: classes}

    def where(rows: int, cols: int) -> str:
        return f"matrix {n}x{k}, rows {rows:#x}, columns {cols:#x}"

    def scan(rows: int, cols: int) -> tuple[int, int, int]:
        """(eps_bar, its witness, a largest deficiency -1 set or 0), as masks
        of the positions within `cols` (`_spread` maps them to m's columns).

        The largest set (smallest bitmask on ties) is looked for only where
        the recursion takes it: eps_bar == -1 and more than |cols|-1 rows.
        """
        key = (rows, cols)
        if key not in scans:
            if cols not in on_cols:
                on_cols[cols] = _restrict_classes(classes, cols)
            width = cols.bit_count()
            scans[key] = _scan(on_cols[cols], rows, width, rows.bit_count() >= width > 1)
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
            largest = _spread(largest, cols)
            forbidden = _nonconstant(classes, rows, largest)
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
    # on all of m's columns the local masks are m's own
    report = _report(classes, n, k, scan(all_rows, all_cols))
    if not report.satisfies_nae:
        raise DomainError(
            f"NAE condition fails: eps_bar = {report.eps_bar} < -1",
            witness=report,
        )
    # Passing the NAE check implies n >= k-1: with n < k-1 rows, the set of
    # all columns has eps <= n - k <= -2, so the check above refuses first.
    rows = restrict(all_rows, all_cols)
    if rows.bit_count() != k - 1 or scan(rows, all_cols)[0] != -1:
        raise InternalInvariantError(
            f"restriction {rows:#x} does not certify eps_bar == -1 on a {n}x{k} matrix"
        )
    return SubsetIndex(n, rows)


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
    fields = _count_subsets(n, k - 1) << k
    _check_shape(n, k)
    if fields > SUBSET_FIELD_LIMIT:
        raise DomainError(
            f"exhaustive scan guard: C({n},{k - 1}) * 2^{k} = {fields}"
            f" column sets exceeds {SUBSET_FIELD_LIMIT}"
        )
    classes = _row_classes(m)
    return [
        SubsetIndex(n, mask)
        for mask in masks_of_weight(n, k - 1)
        if _scan(classes, mask, k)[0] == -1
    ]
