"""The worked example families and the selftest corpus.

`gen` builds the families and `selftest` runs the corpus; only those two
commands import this module, so no other invocation compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact_core import (
    InputFormatError,
    RMatrix,
    SubsetIndex,
    masks_of_weight,
    scale_to_integers,
    span,
)
from .hadamard import (
    EXTENSION_ENTRY_GUARD,
    EXTENSION_ROW_GUARD,
    full_extension_rank,
    greedy_min_rows,
    hadamard_extension,
)
from .mixture import (
    MixtureParams,
    identifiability_gate,
    is_separated,
    moment_map,
    recover_pi,
)
from .nae import eps as nae_eps
from .nae import eps_bar, exhaustive_nae_restrict, nae_restrict


# ---------------------------------------------------------------------------
# example-family generators

# The largest family output, `gen hamming` at l = EXTENSION_ROW_GUARD:
# 2^l columns and l * 2^l entries, the extension's entry guard.
GEN_COLUMN_LIMIT = 1 << EXTENSION_ROW_GUARD


def _check_gen_size(n_rows: int, k: int) -> None:
    """Refuse an n_rows x k family matrix before any of it is built."""
    if k > GEN_COLUMN_LIMIT or n_rows * k > EXTENSION_ENTRY_GUARD:
        raise InputFormatError(
            f"output size guard: at most {GEN_COLUMN_LIMIT} columns and"
            f" {EXTENSION_ENTRY_GUARD} entries (got {n_rows}x{k})"
        )


def gen_vandermonde(k: int, copies: int, row: Sequence[Fraction] | None) -> RMatrix:
    """`copies` identical rows with k pairwise distinct entries."""
    if k < 1:
        raise InputFormatError("--k must be at least 1")
    if copies < 0:
        raise InputFormatError("--copies must be nonnegative")
    _check_gen_size(copies, k)
    scale, values = scale_to_integers(row) if row is not None else (1, range(k))
    if len(values) != k:
        raise InputFormatError(f"--row must have {k} entries")
    if len(set(values)) != k:
        raise InputFormatError("--row entries must be pairwise distinct")
    return RMatrix._trusted(copies, k, (scale,) * copies, (tuple(values),) * copies, None)


def gen_hamming(l: int) -> RMatrix:
    """l x 2^l sign matrix: entry (i, j) is -1 to the i-th bit of j."""
    if not 1 <= l <= EXTENSION_ROW_GUARD:
        raise InputFormatError(f"--l must be in 1..{EXTENSION_ROW_GUARD}")
    k = 1 << l
    rows = tuple(tuple(1 - 2 * (j >> i & 1) for j in range(k)) for i in range(l))
    return RMatrix._trusted(l, k, (1,) * l, rows, None)


def gen_stairstep(k: int) -> RMatrix:
    """(k-1) x k staircase: 1 strictly above the diagonal, 1/2 elsewhere.

    Uses the strict-inequality form: entry (i, j) is 1 when i < j and 1/2
    when i >= j (0-based). The non-strict variant would make the first row
    constant, destroying the minimal-deficiency property this family is
    meant to exhibit; see the README note.
    """
    if k < 1:
        raise InputFormatError("--k must be at least 1")
    _check_gen_size(k - 1, k)
    # scaled by 2, as every row has the entry 1/2 in column 0
    rows = tuple(tuple(2 if i < j else 1 for j in range(k)) for i in range(k - 1))
    return RMatrix._trusted(k - 1, k, (2,) * (k - 1), rows, None)


# ---------------------------------------------------------------------------
# selftest corpus: the worked example families and their expected behavior


def _selftest_checks():
    def check_fourier_character_product():
        got = hadamard_extension(gen_hamming(2)).row(0b11)
        assert got == (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1)), got
        return "sign-vector product gives the fourth character row"

    def check_fourier_extension():
        matrix = gen_hamming(2)
        extension = hadamard_extension(matrix)
        expected = RMatrix.from_rows(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        )
        assert extension == expected, "extension is not the 4x4 sign character table"
        assert span(extension.entries, 4).dim == 4, "character table must be invertible"
        assert full_extension_rank(matrix) == 4
        return "2-row sign matrix extends to the invertible 4x4 character table"

    def check_hamming_small_certificate():
        matrix = gen_hamming(2)
        found = greedy_min_rows(matrix)
        assert isinstance(found, SubsetIndex), found
        assert len(found) == 2 < matrix.n_cols - 1, found
        assert full_extension_rank(matrix.restrict_rows(found)) == 4
        return "certificate of 2 rows < k-1 = 3"

    def check_identical_columns_never_full():
        fixtures = [
            RMatrix.from_rows([[1, 1, 2], [1, 1, 3]]),
            RMatrix.from_rows([[0, 0], [1, 1]]),
            RMatrix.from_rows([[1, 1, 2, 3], [4, 4, 1, 2], [5, 5, 5, 5]]),
        ]
        for matrix in fixtures:
            rank = full_extension_rank(matrix)
            assert rank < matrix.n_cols, (matrix, rank)
            gate = identifiability_gate(matrix)
            assert not gate.full_rank and gate.certificate is None
        report = eps_bar(fixtures[0])
        assert report.eps_bar == -2, report
        assert report.witness_columns == SubsetIndex.from_members(3, [0, 1]), report
        return "duplicated columns cap the extension rank below k"

    def check_duplicate_column_weight_swap():
        matrix = RMatrix.from_rows(
            [[Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)],
             [Fraction(1, 2), Fraction(1, 2), Fraction(1, 8)]]
        )
        pi = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
        swapped = (pi[1], pi[0], pi[2])
        first = moment_map(MixtureParams(matrix, pi))
        second = moment_map(MixtureParams(matrix, swapped))
        assert first == second, "swapping weights of equal columns must not change moments"
        return "weight swap across duplicated columns is invisible in the moments"

    def check_vandermonde_family():
        for k in range(2, 7):
            matrix = gen_vandermonde(k, k - 1, None)
            assert full_extension_rank(matrix) == k, k
            found = greedy_min_rows(matrix)
            assert isinstance(found, SubsetIndex) and len(found) == k - 1, (k, found)
            assert all(is_separated(matrix, i) for i in range(k - 1))
        return "k-1 identical distinct-entry rows reach full rank, never fewer"

    def check_stairstep_family():
        for k in range(2, 7):
            matrix = gen_stairstep(k)
            report = eps_bar(matrix)
            assert report.eps_bar == -1, (k, report)
            assert full_extension_rank(matrix) == k, k
            for width in range(1, k + 1):
                hits = [
                    mask
                    for mask in masks_of_weight(k, width)
                    if nae_eps(matrix, SubsetIndex(k, mask)) == -1
                ]
                assert hits, (k, width)
        return "staircase meets the deficiency bound tightly at every width"

    def check_three_columns_one_varying_row():
        matrix = RMatrix.from_rows([[1, 2, 3], [5, 5, 5]])
        report = eps_bar(matrix)
        assert report.eps_bar <= -2, report
        assert full_extension_rank(matrix) < 3
        return "a single varying row on 3 columns forces deficiency <= -2"

    def check_identical_rows_restriction():
        matrix = gen_vandermonde(3, 3, None)
        rows = nae_restrict(matrix)
        assert rows == SubsetIndex.from_members(3, [0, 1]), rows
        assert eps_bar(matrix.restrict_rows(rows)).eps_bar == -1
        every = exhaustive_nae_restrict(matrix)
        assert [s.mask for s in every] == [0b011, 0b101, 0b110], every
        return "deterministic pick of the first two rows; all three pairs certify"

    def check_nae_not_necessary_beyond_three():
        matrix = gen_hamming(2)
        assert eps_bar(matrix).eps_bar == -2
        assert full_extension_rank(matrix) == 4
        gate = identifiability_gate(matrix)
        assert gate.separated_count == 0, gate
        return "full rank with eps_bar = -2 on 4 columns"

    def check_recover_weights_roundtrip():
        matrix = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)]])
        for pi in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]:
            moments = moment_map(MixtureParams(matrix, pi))
            assert recover_pi(matrix, moments) == pi, pi
        return "moments of a 1-observable mixture invert exactly"

    return [
        ("fourier-character-product", check_fourier_character_product),
        ("fourier-extension", check_fourier_extension),
        ("hamming-small-certificate", check_hamming_small_certificate),
        ("identical-columns-rank", check_identical_columns_never_full),
        ("duplicate-column-weight-swap", check_duplicate_column_weight_swap),
        ("vandermonde-family", check_vandermonde_family),
        ("stairstep-family", check_stairstep_family),
        ("three-columns-one-varying-row", check_three_columns_one_varying_row),
        ("identical-rows-restriction", check_identical_rows_restriction),
        ("nae-not-necessary-beyond-three", check_nae_not_necessary_beyond_three),
        ("recover-weights-roundtrip", check_recover_weights_roundtrip),
    ]
