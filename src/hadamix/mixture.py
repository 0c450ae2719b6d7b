"""Mixtures of product distributions on binary observables, at desk scale.

An n x k matrix of conditional probabilities m[i][j] = Pr(X_i = 1 | H = j)
and a mixture weight vector pi determine one moment per observable subset
S: Pr(all of X_S equal 1) = (product of rows S) dot pi. Full column rank
of the Hadamard extension of m is necessary for these moments to pin down
pi, and then a small certifying row subset suffices to solve for it
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exact_core import (
    DomainError,
    InputFormatError,
    InternalInvariantError,
    RationalLike,
    RMatrix,
    SubsetIndex,
    as_vector,
    rational_from_json,
    rational_to_json,
    solve_square,
    span,
)
from .hadamard import (
    EXTENSION_ROW_GUARD,
    NotFullRank,
    extension_rows,
    greedy_min_rows,
)


@dataclass(frozen=True)
class MixtureParams:
    """Conditional probability matrix plus mixture weights.

    Entries of m must lie in [0, 1]; pi must be a probability vector with
    exact unit sum.
    """

    m: RMatrix
    pi: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", as_vector(self.pi))
        if len(self.pi) != self.m.n_cols:
            raise DomainError(
                f"pi has {len(self.pi)} entries for {self.m.n_cols} columns"
            )
        for i, row in enumerate(self.m.entries):
            for j, x in enumerate(row):
                if not 0 <= x <= 1:
                    raise DomainError(
                        f"entry ({i},{j}) = {x} is not a probability",
                        witness={"row": i, "col": j},
                    )
        if any(p < 0 for p in self.pi):
            raise DomainError("mixture weights must be nonnegative")
        if sum(self.pi) != 1:
            raise DomainError(f"mixture weights sum to {sum(self.pi)}, not 1")


@dataclass(frozen=True, eq=True)
class MomentVector:
    """One exact moment per subset of [n], keyed by bitmask.

    The empty-set moment is exactly 1, every value lies in [0, 1], and
    values never increase when the subset grows.
    """

    n: int
    values: Mapping[int, Fraction] = field(compare=True)

    def __post_init__(self) -> None:
        if not 0 <= self.n <= EXTENSION_ROW_GUARD:
            raise DomainError(
                f"moment guard: 0 <= n <= {EXTENSION_ROW_GUARD} (got {self.n})"
            )
        total = 1 << self.n
        if set(self.values) != set(range(total)):
            raise DomainError(f"moments must cover all {total} subsets of [{self.n}]")
        if self.values[0] != 1:
            raise DomainError("the empty-set moment must be exactly 1")
        for mask in range(total):
            value = self.values[mask]
            if not 0 <= value <= 1:
                raise DomainError(
                    f"moment {value} for mask {mask} is outside [0, 1]",
                    witness={"subset_mask": mask},
                )
            rest = mask
            while rest:
                low = rest & -rest
                if value > self.values[mask ^ low]:
                    raise DomainError(
                        "moments must not increase on supersets",
                        witness={"subset_mask": mask},
                    )
                rest ^= low

    def __getitem__(self, subset: SubsetIndex | int) -> Fraction:
        mask = subset.mask if isinstance(subset, SubsetIndex) else subset
        return self.values[mask]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "moments": {
                str(mask): rational_to_json(value)
                for mask, value in sorted(self.values.items())
            },
        }

    @classmethod
    def from_json_obj(cls, obj: object) -> "MomentVector":
        if not isinstance(obj, dict) or "n" not in obj or "moments" not in obj:
            raise InputFormatError("moment JSON must be an object with 'n' and 'moments'")
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InputFormatError("'n' must be a nonnegative integer")
        raw = obj["moments"]
        if not isinstance(raw, dict) or "0" not in raw:
            raise InputFormatError("'moments' must be an object with the '0' entry")
        values = {}
        for key, value in raw.items():
            # only 0|[1-9][0-9]*, so that no two keys name the same mask
            if key != "0" and not (key.isascii() and key.isdigit() and key[0] != "0"):
                raise InputFormatError(f"moment key {key!r} is not a bitmask")
            try:
                mask = int(key)
            except ValueError as exc:  # beyond int()'s digit limit
                raise InputFormatError(f"moment key {key!r} is not a bitmask") from exc
            values[mask] = rational_from_json(value)
        return cls(n, values)


def _forward_moments(m: RMatrix, pi: Sequence[Fraction]) -> dict[int, Fraction]:
    """All 2^n subset moments of (m, pi), one scalar pass per column."""
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


def moment_map(params: MixtureParams) -> MomentVector:
    """The 2^n exact moments of the mixture."""
    n = params.m.n_rows
    if n > EXTENSION_ROW_GUARD:
        raise DomainError(
            f"moment guard: at most {EXTENSION_ROW_GUARD} observables (got {n})"
        )
    return MomentVector(n, _forward_moments(params.m, params.pi))


def is_separated(m: RMatrix, i: int) -> bool:
    """Whether row i has k pairwise distinct entries."""
    if not 0 <= i < m.n_rows:
        raise DomainError(f"row index {i} out of range for {m.n_rows} rows")
    return len(set(m.entries[i])) == m.n_cols


@dataclass(frozen=True)
class GateReport:
    """Identifiability gate: extension rank plus supporting evidence.

    `separated_needed` (2k-1 separated rows) is reported for reference
    only; whether that many separated rows actually suffice is not decided
    here.
    """

    n_rows: int
    n_cols: int
    extension_rank: int
    full_rank: bool
    certificate: SubsetIndex | None
    separated_rows: SubsetIndex
    separated_needed: int

    @property
    def separated_count(self) -> int:
        return len(self.separated_rows)


def identifiability_gate(m: RMatrix) -> GateReport:
    """Rank-based necessary condition for moment invertibility."""
    n, k = m.n_rows, m.n_cols
    found = greedy_min_rows(m)  # NotFullRank carries the exact extension rank
    full = not isinstance(found, NotFullRank)
    certificate = found if full else None
    rank = k if full else found.rank
    separated = SubsetIndex.from_members(
        n, [i for i in range(n) if is_separated(m, i)]
    )
    return GateReport(
        n_rows=n,
        n_cols=k,
        extension_rank=rank,
        full_rank=full,
        certificate=certificate,
        separated_rows=separated,
        separated_needed=2 * k - 1,
    )


def recover_pi(m: RMatrix, moments: MomentVector) -> tuple[Fraction, ...]:
    """The unique mixture weights consistent with the given moments.

    Requires the extension of m to have full column rank. Solves the
    k x k system built from the first k independent extension rows of the
    greedy certificate, then re-verifies every one of the 2^n moment
    equations; any mismatch means the moments are inconsistent.
    """
    n, k = m.n_rows, m.n_cols
    if moments.n != n:
        raise DomainError(f"moments are over {moments.n} observables, matrix has {n}")
    certificate = greedy_min_rows(m)
    if isinstance(certificate, NotFullRank):
        raise DomainError(
            f"extension rank {certificate.rank} < {k}; weights are not identifiable",
            witness={"extension_rank": certificate.rank},
        )
    members = certificate.members()
    restricted = m.restrict_rows(certificate)

    # First k independent rows of the restricted extension, canonical order.
    space = span([], k)
    system_rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    for hrow in extension_rows(restricted):
        if len(system_rows) == k:
            break
        grown = space.extend([hrow.values])
        if grown.dim == space.dim:
            continue
        space = grown
        system_rows.append(hrow.values)
        original_mask = 0
        for position in hrow.subset:
            original_mask |= 1 << members[position]
        rhs.append(moments[original_mask])
    if len(system_rows) < k:
        raise InternalInvariantError(
            f"certificate rows {certificate.mask:#x} failed to span k = {k} dimensions"
        )

    pi = solve_square(RMatrix.from_rows(system_rows, k), rhs)
    if sum(pi) != 1:
        raise DomainError(
            f"recovered weights sum to {sum(pi)}, not 1; moments are inconsistent"
        )
    forward = _forward_moments(m, pi)
    for mask in range(1 << n):
        if forward[mask] != moments.values[mask]:
            raise DomainError(
                "moments are inconsistent with every weight vector",
                witness={"subset_mask": mask},
            )
    return tuple(pi)
