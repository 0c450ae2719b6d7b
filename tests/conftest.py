"""Shared test helpers: independent brute-force oracles and generators.

The oracles here deliberately avoid the library's elimination code paths:
determinants are computed by cofactor expansion, rank by scanning all
square minors, the RREF by Gauss-Jordan over Fractions, the subset
moments and their checks over Fractions, the NAE restriction by
recursing on explicit submatrices, and the block projectors by evaluating
the Lagrange polynomial at every entry in Fractions, so they can certify
the fast implementations. The Hadamard-fold references are the library's
earlier loops, one `extend_rowspace` state per fold from `initial_state`,
with no early stop and no shared prefixes, and the fold step that reduced
every product against the growing basis. The block-respect reference eliminates once per block,
and the invariance reference builds span(U union v*U) in full. The mixture-weight reference is the library's earlier
Fraction path: extension rows re-spanned one at a time, then `solve_square`
on the k x k system. The mixture-parameter reference is the library's earlier
check of m and pi by Fraction comparisons. The matrix reader reference is
the library's earlier reader, one Fraction per distinct entry. The
extension table reference is the library's earlier table, k full tables of
2^n subset products, one per column.
"""

import math
import operator
from fractions import Fraction
from itertools import combinations

import pytest

from hadamix import (
    DomainError,
    InputFormatError,
    InternalInvariantError,
    MomentVector,
    NotFullRank,
    RMatrix,
    Subspace,
    SubsetIndex,
    blocks_of,
    masks_by_cardinality,
    masks_of_weight,
    nae_rows,
    span,
)
from hadamix.exact_core import (
    SUBSET_SCAN_LIMIT,
    _insert,
    as_vector,
    ones,
    rational_pair,
    scale_to_integers,
    solve_square,
)
from hadamix.hadamard import RowspaceState, _subset_products, extend_rowspace
from hadamix.nae import COLUMN_SCAN_GUARD, NaeReport


def det_cofactor(rows):
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * x * det_cofactor(minor)
    return total


def minor_rank(rows, n_cols):
    """Largest r such that some r x r minor is nonzero."""
    n_rows = len(rows)
    for r in range(min(n_rows, n_cols), 0, -1):
        for ri in combinations(range(n_rows), r):
            for ci in combinations(range(n_cols), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor(sub) != 0:
                    return r
    return 0


def rref_reference(rows):
    """Reduced row echelon form over Fractions: (nonzero rows, pivot columns).

    The plain Gauss-Jordan elimination the library used before its integer
    kernel, kept as the slow reference: columns scanned left to right, rows
    top to bottom, each pivot scaled to 1.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [tuple(row) for row in rows[: len(pivots)]], pivots


def forward_moments_reference(m, pi):
    """All 2^n subset moments of (m, pi) over Fractions, keyed by bitmask.

    The per-column subset recursion the library ran before its integer
    moment path, kept as the slow reference.
    """
    n = m.n_rows
    total = 1 << n
    acc = [Fraction(0)] * total
    for j, weight in enumerate(pi):
        dp = [Fraction(0)] * total
        dp[0] = weight
        for mask in range(1, total):
            low = mask & -mask
            dp[mask] = dp[mask ^ low] * m.entries[low.bit_length() - 1][j]
        for mask in range(total):
            acc[mask] += dp[mask]
    return dict(enumerate(acc))


def moment_checks_reference(n, values):
    """The value checks of MomentVector over Fractions, in the library's
    order: (message, witness) of the first failure, or None if all pass."""
    if values[0] != 1:
        return "the empty-set moment must be exactly 1", None
    for mask in range(1 << n):
        value = values[mask]
        if not 0 <= value <= 1:
            return (f"moment {value} for mask {mask} is outside [0, 1]",
                    {"subset_mask": mask})
        rest = mask
        while rest:
            low = rest & -rest
            if value > values[mask ^ low]:
                return "moments must not increase on supersets", {"subset_mask": mask}
            rest ^= low
    return None


def mixture_params_fault_reference(m, pi):
    """(message, witness) of the DomainError that MixtureParams(m, pi)
    raises, decided by Fraction comparisons in the library's order, or None
    if it accepts: the length of pi, the first entry of m outside [0, 1] in
    row-major order, a negative weight, then a sum other than 1."""
    pi = as_vector(pi)
    if len(pi) != m.n_cols:
        return f"pi has {len(pi)} entries for {m.n_cols} columns", None
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if not 0 <= x <= 1:
                return f"entry ({i},{j}) = {x} is not a probability", {"row": i, "col": j}
    if any(p < 0 for p in pi):
        return "mixture weights must be nonnegative", None
    if sum(pi) != 1:
        return f"mixture weights sum to {sum(pi)}, not 1", None
    return None


def moment_vector(n, values):
    """MomentVector from a mapping of masks to Fractions or ints, as the
    library's Fraction-keyed constructor took it. Masks that are not exactly
    0 .. len(values)-1 give empty tables, which cover no 2^n masks."""
    masks = range(len(values)) if set(values) == set(range(len(values))) else ()
    fractions = [Fraction(values[mask]) for mask in masks]
    return MomentVector(n, tuple(q.numerator for q in fractions),
                        tuple(q.denominator for q in fractions))


def moment_values(moments):
    """The moments of a MomentVector as a dict of masks to Fractions."""
    return {mask: Fraction(num, den)
            for mask, (num, den) in enumerate(zip(moments.nums, moments.dens))}


def extension_rows_reference(m):
    """(mask, product row) for every row subset of m in canonical order,
    over Fractions: the dict of products the library kept before its
    subset-product table."""
    products = {0: (Fraction(1),) * m.n_cols}
    for mask in range(1, 1 << m.n_rows):
        low = mask & -mask
        row = m.entries[low.bit_length() - 1]
        products[mask] = tuple(a * b for a, b in zip(products[mask ^ low], row))
    return [(mask, products[mask]) for mask in masks_by_cardinality(m.n_rows)]


def extension_table_reference(m):
    """(numerators, denominator) of each extension row of m in canonical
    order, as `_extension_table` yields them, from one subset-product table
    of 2^n entries per column and one over the row scales, as it built them
    before it split the rows into two halves."""
    nums = [_subset_products(1, [row[j] for row in m.rows]) for j in range(m.n_cols)]
    dens = _subset_products(1, m.scales)
    return [(list(map(operator.itemgetter(mask), nums)), dens[mask])
            for mask in masks_by_cardinality(m.n_rows)]


def solve_pi_reference(m, moments):
    """The weights solved from the first k independent extension rows of
    the greedy certificate, over Fractions, before any check of them.

    Each candidate row is tested by re-spanning the rows taken so far, and
    the k x k Fraction system goes to `solve_square`, as `recover_pi` did
    before it solved on integer rows.
    """
    n, k = m.n_rows, m.n_cols
    if moments.n != n:
        raise DomainError(f"moments are over {moments.n} observables, matrix has {n}")
    certificate = greedy_min_rows_reference(m)
    if isinstance(certificate, NotFullRank):
        raise DomainError(
            f"extension rank {certificate.rank} < {k}; weights are not identifiable",
            witness={"extension_rank": certificate.rank},
        )
    members = certificate.members()
    values_of = moment_values(moments)
    space, system, rhs = span([], k), [], []
    for local, values in extension_rows_reference(m.restrict_rows(certificate)):
        if len(system) == k:
            break
        grown = space.extend([scale_to_integers(values)[1]])
        if grown.dim == space.dim:
            continue
        space = grown
        system.append(values)
        rhs.append(values_of[sum(1 << t for i, t in enumerate(members) if local >> i & 1)])
    if len(system) < k:
        raise InternalInvariantError(
            f"certificate rows {certificate.mask:#x} failed to span k = {k} dimensions"
        )
    return solve_square(RMatrix.from_rows(system, k), rhs)


def recover_pi_reference(m, moments):
    """`solve_pi_reference`, then the weights' sum and all 2^n moments
    checked over Fractions, with recover_pi's messages and witnesses."""
    pi = solve_pi_reference(m, moments)
    if sum(pi) != 1:
        raise DomainError(
            f"recovered weights sum to {sum(pi)}, not 1; moments are inconsistent"
        )
    forward = forward_moments_reference(m, pi)
    given = moment_values(moments)
    for mask in range(1 << m.n_rows):
        if forward[mask] != given[mask]:
            raise DomainError(
                "moments are inconsistent with every weight vector",
                witness={"subset_mask": mask},
            )
    return pi


def restrict_cols(m, cols):
    """Copy of m keeping only the selected columns, in their original order."""
    if cols.size != m.n_cols:
        raise DomainError(
            f"column subset over {cols.size} elements does not match {m.n_cols} columns"
        )
    idx = cols.members()
    return RMatrix(
        m.n_rows,
        len(idx),
        tuple(tuple(row[j] for j in idx) for row in m.entries),
    )


def complement(s):
    """The members of s's ground set that are not in s."""
    return SubsetIndex(s.size, s.mask ^ ((1 << s.size) - 1))


def orthogonal_complement(u):
    """Orthogonal complement of a Subspace w.r.t. the standard inner product,
    read off its integer RREF rows: one kernel vector per free column."""
    k = u.ambient_dim
    scale = math.lcm(*(row[p] for row, p in zip(u.rows, u.pivots)))
    kernel = []
    for f in sorted(set(range(k)).difference(u.pivots)):
        vec = [0] * k
        vec[f] = scale
        for row, p in zip(u.rows, u.pivots):
            vec[p] = -row[f] * (scale // row[p])
        kernel.append(vec)
    return Subspace(k, (), ()).extend(kernel)


def respects_reference(u, part):
    """Whether u is the direct sum of its block projections, by the
    dimension count: one elimination per block, as respects did before it
    read the supports of the RREF rows."""
    if u.ambient_dim != part.ambient:
        raise DomainError(
            f"ambient mismatch: subspace {u.ambient_dim}, partition {part.ambient}"
        )
    total = 0
    for block in part.blocks:
        projected = [[x if block.mask >> j & 1 else 0 for j, x in enumerate(row)]
                     for row in u.rows]
        total += Subspace(part.ambient, (), ()).extend(projected).dim
    return total == u.dim


def is_invariant_reference(v, u):
    """span(U union v*U) = U with the whole fold built, as is_invariant
    decided it before it reduced the products one at a time."""
    return u.extend_odot(scale_to_integers(as_vector(v))[1]) == u


def extend_odot_reference(u, v):
    """span(U union v*U) with each product t*b of a basis row reduced against
    the whole growing basis, as Subspace.extend_odot did before it shifted
    each product by its pivot; `u` itself when U does not grow."""
    t = scale_to_integers(v)[1]
    rows, pivots = list(u.rows), list(u.pivots)
    for row in u.rows:
        _insert(rows, pivots, [a * b for a, b in zip(row, t)])
    if len(rows) == u.dim:
        return u
    return Subspace(u.ambient_dim, tuple(map(tuple, rows)), tuple(pivots))


def drop_row(m, i):
    """Copy of m without row i."""
    if not 0 <= i < m.n_rows:
        raise DomainError(f"row index {i} out of range for {m.n_rows} rows")
    return RMatrix(m.n_rows - 1, m.n_cols, m.entries[:i] + m.entries[i + 1 :])


def _constant_counts_reference(m):
    """counts[C] = number of rows of m constant on the column set C."""
    k = m.n_cols
    counts = [0] * (1 << k)
    for row in m.entries:
        classes = {}
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


def eps_bar_reference(m):
    """The NaeReport of m: minimum deficiency, smallest-bitmask witness."""
    n, k = m.n_rows, m.n_cols
    if k < 1:
        raise DomainError("matrix must have at least one column")
    if k > COLUMN_SCAN_GUARD:
        raise DomainError(
            f"column scan guard: at most {COLUMN_SCAN_GUARD} columns (got {k})"
        )
    counts = _constant_counts_reference(m)
    best = None
    best_mask = 0
    for cmask in range(1, 1 << k):
        e = (n - counts[cmask]) - cmask.bit_count()
        if best is None or e < best:
            best, best_mask = e, cmask
    witness = SubsetIndex(k, best_mask)
    return NaeReport(best, witness, nae_rows(m, witness))


def _largest_deficient_columns_reference(m):
    """Largest column set with deficiency exactly -1 (smallest bitmask on ties)."""
    n, k = m.n_rows, m.n_cols
    counts = _constant_counts_reference(m)
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


def _restrict_rows_reference(m):
    """Row mask of a (k-1)-row restriction of m with eps_bar exactly -1.

    Recurses on explicit submatrices (`drop_row`, `restrict_cols`) and
    recomputes every eps_bar: exponential on repeated subproblems.
    """
    n, k = m.n_rows, m.n_cols
    if k == 1:
        return 0
    if n == k - 1:
        return (1 << n) - 1
    forbidden = 0
    if eps_bar_reference(m).eps_bar == -1:
        cols = _largest_deficient_columns_reference(m)
        forbidden = nae_rows(m, cols).mask
        if len(cols) < k:
            forbidden |= _restrict_rows_reference(restrict_cols(m, complement(cols)))
    for t in reversed(range(n)):
        if (forbidden >> t) & 1:
            continue
        trimmed = drop_row(m, t)
        if eps_bar_reference(trimmed).eps_bar >= -1:
            kept = _restrict_rows_reference(trimmed)
            # reindex the recursive answer around the deleted row
            return ((kept >> t) << (t + 1)) | (kept & ((1 << t) - 1))
    raise InternalInvariantError(
        "no deletable row keeps eps_bar >= -1; the recursion guarantees one exists"
        f" (matrix {n}x{k}, forbidden rows {forbidden:#x})"
    )


def nae_restrict_reference(m):
    """The recursive restriction nae_restrict made before it memoised
    subproblems as (row mask, column mask) pairs, kept as the slow
    reference: the same preconditions, messages, witnesses and choice."""
    n, k = m.n_rows, m.n_cols
    report = eps_bar_reference(m)
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
    rows = SubsetIndex(n, _restrict_rows_reference(m))
    if len(rows) != k - 1 or eps_bar_reference(m.restrict_rows(rows)).eps_bar != -1:
        raise InternalInvariantError(
            f"restriction {rows.mask:#x} does not certify eps_bar == -1 on a {n}x{k} matrix"
        )
    return rows


def lagrange_projection_reference(v, i):
    """Block-i projector with the Lagrange polynomial evaluated in Fractions
    at every entry of v, as lagrange_projection did before it evaluated once
    per distinct value over integers; kept as the slow reference, with the
    same out-of-range message."""
    part = blocks_of(v)
    if not 0 <= i < len(part):
        raise DomainError(f"block index {i} out of range for {len(part)} blocks")
    vec = as_vector(v)
    lam = part.values
    diag = []
    for x in vec:
        value = Fraction(1)
        for j, other in enumerate(lam):
            if j != i:
                value *= (x - other) / (lam[i] - other)
        diag.append(value)
    k = len(vec)
    return RMatrix(k, k, tuple(
        tuple(diag[r] if r == c else Fraction(0) for c in range(k)) for r in range(k)
    ))


# the one zero that every diagonal_matrix shares off its diagonal
ZERO = Fraction(0)


def diagonal_matrix(diag):
    """The square RMatrix with this diagonal and the one shared ZERO off it,
    as RMatrix.diagonal built it before `lagrange_projection` returned its
    projector's diagonal alone."""
    vals = as_vector(diag)
    n = len(vals)
    zeros = (ZERO,) * n
    rows = tuple(zeros[:i] + (x,) + zeros[i + 1:] for i, x in enumerate(vals))
    return RMatrix(n, n, rows)


def basis(u):
    """The rational RREF basis of a Subspace, every pivot entry 1: each
    primitive integer row divided by its pivot entry."""
    return RMatrix(u.dim, u.ambient_dim, tuple(
        tuple(Fraction(x, row[p]) for x in row) for row, p in zip(u.rows, u.pivots)
    ))


def initial_state(n_rows, n_cols):
    """The `extend_rowspace` state of no chosen rows: span(ones)."""
    return RowspaceState(SubsetIndex(n_rows, 0), span([ones(n_cols)], n_cols))


def folded_rank_reference(m):
    """Extension rank by folding every row of m through `extend_rowspace`."""
    state = initial_state(m.n_rows, m.n_cols)
    for t in range(m.n_rows):
        state = extend_rowspace(state, m, t)
    return state.space.dim


def greedy_min_rows_reference(m):
    """The greedy certificate with a full `extend_rowspace` state per probe."""
    k = m.n_cols
    state = initial_state(m.n_rows, k)
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


def exhaustive_min_rows_reference(m, size):
    """Every size-subset folded from scratch, in ascending bitmask order."""
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
        if folded_rank_reference(m.restrict_rows(subset)) == k:
            out.append(subset)
    return out


@pytest.fixture
def fold_dims(monkeypatch):
    """Dimension of the space each Subspace.extend_odot call starts from."""
    dims = []
    fold = Subspace.extend_odot

    def counted(self, v):
        dims.append(self.dim)
        return fold(self, v)

    monkeypatch.setattr(Subspace, "extend_odot", counted)
    return dims


def random_matrix(rng, n, k, pool):
    rows = [[Fraction(rng.choice(pool)) for _ in range(k)] for _ in range(n)]
    return RMatrix.from_rows(rows, k)


# Small value pools; repeats are likely, which exercises the color logic.
SMALL_POOL = [0, 1, Fraction(1, 2), 2, -1]
PROB_POOL = [Fraction(num, 8) for num in range(9)]


def matrix_from_json_reference(obj):
    """The matrix of a JSON document as the library read it before it held
    integer rows: a Fraction per distinct int or string entry, cached, and
    a tuple of them per row, each row checked for its length before its
    entries. `true` and every other type go to rational_pair uncached."""
    if not isinstance(obj, dict):
        raise InputFormatError("matrix JSON must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise InputFormatError(f"matrix JSON missing field {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if isinstance(rows, bool) or isinstance(cols, bool) \
            or not isinstance(rows, int) or not isinstance(cols, int) \
            or rows < 0 or cols < 0:
        raise InputFormatError("'rows' and 'cols' must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows:
        raise InputFormatError(f"'data' must be a list of {rows} rows")
    parsed = {}

    def entry(x):
        if type(x) is not int and type(x) is not str:
            return Fraction(*rational_pair(x))
        q = parsed.get(x)
        if q is None:
            q = parsed[x] = Fraction(*rational_pair(x))
        return q

    entries = []
    for r in data:
        if not isinstance(r, list) or len(r) != cols:
            raise InputFormatError(f"each row must be a list of {cols} entries")
        entries.append(tuple(map(entry, r)))
    return RMatrix(rows, cols, tuple(entries))
