"""Exact-arithmetic toolkit for Hadamard extensions of rational matrices:
rank certification, minimal certifying row subsets, NAE deficiency
combinatorics, partition projection algebras, and mixture-of-products
moment maps.
"""

from .exact_core import (
    DomainError,
    InputFormatError,
    InternalInvariantError,
    RMatrix,
    Subspace,
    SubsetIndex,
    masks_by_cardinality,
    masks_of_weight,
    matrix_from_json,
    matrix_to_json,
    span,
)
from .hadamard import (
    NotFullRank,
    exhaustive_min_rows,
    full_extension_rank,
    greedy_min_rows,
    hadamard_extension,
)
from .mixture import (
    GateReport,
    MixtureParams,
    MomentVector,
    identifiability_gate,
    is_separated,
    moment_map,
    recover_pi,
)
from .nae import (
    NaeReport,
    eps,
    eps_bar,
    exhaustive_nae_restrict,
    nae_restrict,
    nae_rows,
)
from .partition_algebra import (
    Partition,
    blocks_of,
    is_invariant,
    lagrange_projection,
    respects,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GateReport",
    "InputFormatError",
    "InternalInvariantError",
    "MixtureParams",
    "MomentVector",
    "NaeReport",
    "NotFullRank",
    "Partition",
    "RMatrix",
    "Subspace",
    "SubsetIndex",
    "blocks_of",
    "eps",
    "eps_bar",
    "exhaustive_min_rows",
    "exhaustive_nae_restrict",
    "full_extension_rank",
    "greedy_min_rows",
    "hadamard_extension",
    "identifiability_gate",
    "is_invariant",
    "is_separated",
    "lagrange_projection",
    "masks_by_cardinality",
    "masks_of_weight",
    "matrix_from_json",
    "matrix_to_json",
    "moment_map",
    "nae_restrict",
    "nae_rows",
    "recover_pi",
    "respects",
    "span",
]
