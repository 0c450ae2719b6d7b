"""Mixtures of product distributions on binary observables, at desk scale.

An n x k matrix of conditional probabilities m[i][j] = Pr(X_i = 1 | H = j)
and a mixture weight vector pi determine one moment per observable subset
S: Pr(all of X_S equal 1) = (product of rows S) dot pi. Full column rank
of the Hadamard extension of m is necessary for these moments to pin down
pi, and then a small certifying row subset suffices to solve for it
exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, count
from typing import Sequence

from .exact_core import (
    DomainError,
    InputFormatError,
    InternalInvariantError,
    RationalLike,
    RMatrix,
    SubsetIndex,
    _Record,
    _solve_rows,
    _spread,
    as_vector,
    masks_by_cardinality,
    rational_pair,
    scale_to_integers,
)
from .hadamard import (
    EXTENSION_ROW_GUARD,
    NotFullRank,
    _subset_products,
    greedy_min_rows,
)


class MixtureParams(_Record):
    """Conditional probability matrix plus mixture weights.

    Entries of m must lie in [0, 1]; pi must be a probability vector with
    exact unit sum.
    """

    __slots__ = ("m", "pi")

    def __init__(self, m: RMatrix, pi: Sequence[RationalLike]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "pi", as_vector(pi))
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.pi) != self.m.n_cols:
            raise DomainError(
                f"pi has {len(self.pi)} entries for {self.m.n_cols} columns"
            )
        # int comparisons, not Fraction ones: every denominator is positive
        for i, row in enumerate(self.m.entries):
            for j, (num, den) in enumerate([x.as_integer_ratio() for x in row]):
                if not 0 <= num <= den:
                    raise DomainError(
                        f"entry ({i},{j}) = {row[j]} is not a probability",
                        witness={"row": i, "col": j},
                    )
        if any(p.as_integer_ratio()[0] < 0 for p in self.pi):
            raise DomainError("mixture weights must be nonnegative")
        if sum(self.pi) != 1:
            raise DomainError(f"mixture weights sum to {sum(self.pi)}, not 1")


def _check_observables(n: int) -> None:
    if not 0 <= n <= EXTENSION_ROW_GUARD:
        raise DomainError(f"moment guard: 0 <= n <= {EXTENSION_ROW_GUARD} (got {n})")


def _check_moments(n: int, nums: Sequence[int], dens: Sequence[int]) -> None:
    """Raise the first DomainError that the moment tables of a MomentVector earn.

    In order: the guard on n, the cover of all 2^n masks, the empty-set
    moment, then at the smallest faulty mask (`_first_moment_fault`) a
    non-positive denominator, a value outside [0, 1] or an increase over a
    subset one member smaller, in that order.
    """
    _check_observables(n)
    total = 1 << n
    if len(nums) != total or len(dens) != total:
        raise DomainError(f"moments must cover all {total} subsets of [{n}]")
    if nums[0] != dens[0]:
        raise DomainError("the empty-set moment must be exactly 1")
    mask = _first_moment_fault(n, nums, dens)
    if mask is None:
        return
    num, den = nums[mask], dens[mask]
    if den <= 0:
        raise DomainError(
            f"moment denominator {den} for mask {mask} is not positive",
            witness={"subset_mask": mask},
        )
    if not 0 <= num <= den:
        raise DomainError(
            f"moment {Fraction(num, den)} for mask {mask} is outside [0, 1]",
            witness={"subset_mask": mask},
        )
    raise DomainError(
        "moments must not increase on supersets", witness={"subset_mask": mask}
    )


def _first_moment_fault(n: int, nums: Sequence[int], dens: Sequence[int]) -> int | None:
    """The smallest mask with a non-positive denominator, a value outside
    [0, 1] or a value above that of a subset one member smaller; None if
    there is none.

    One bulk pass. If the denominators or the range fail at some mask, both
    tables are cut there, and the answer is the smaller of that mask and the
    first increase below it. That is exact: every subset of a mask is a
    smaller mask, so each mask below the cut is compared only with valid
    moments, and at the cut itself the denominator and range come first.

    Every moment left is read once as a float, vals = nums / dens. For each
    bit b the masks with b set are compared with the same masks with b
    clear, as slice pairs: stride slices while 4^b < 2^n, contiguous blocks
    after that. A pair of slices needs the exact cross-products only where
    some float moment with b set is >= its partner; elsewhere the floats
    already prove a strict decrease:

    - CPython's int / int is correctly rounded for integers of any size,
      and every quotient left lies in [0, 1], so it does not overflow;
      underflow rounds to a subnormal or 0.0 like any other value.
    - Rounding to nearest is monotone: a <= b implies fl(a) <= fl(b). So
      fl(a) < fl(b) proves a < b exactly, and an edge the floats pass is a
      strict decrease.

    Ties, near-ties that no float tells apart, and moments that underflow
    to the same float are decided on integers, so the result is exact. A
    common denominator of all 2^n values could grow to 2^n times the size
    of one of them, so each comparison cross-multiplies one pair, once: a
    run is compared up to its first increase, and that increase cuts both
    tables at its mask, as a range fault does, so every later run looks
    only below the smallest fault found so far.
    """
    total = first = 1 << n
    if min(dens) <= 0 or min(nums) < 0 or not all(map(operator.le, nums, dens)):
        first = next(mask for mask, (num, den) in enumerate(zip(nums, dens))
                     if den <= 0 or not 0 <= num <= den)
        nums, dens = nums[:first], dens[:first]
    vals = list(map(operator.truediv, nums, dens))

    def rises(hi: slice, lo: slice):
        return map(operator.gt, map(operator.mul, nums[hi], dens[lo]),
                   map(operator.mul, nums[lo], dens[hi]))

    for b in range(n):
        step = 1 << b
        if step * step < total:
            runs = [(slice(r + step, total, 2 * step), slice(r, total, 2 * step))
                    for r in range(step)]
        else:
            runs = [(slice(lo + step, lo + 2 * step), slice(lo, lo + step))
                    for lo in range(0, total, 2 * step)]
        for hi, lo in runs:
            # in a cut table map stops at the shorter slice, and position i
            # of both still pairs a mask with its subset
            if any(map(operator.ge, vals[hi], vals[lo])):
                i = next(compress(count(), rises(hi, lo)), None)
                if i is not None:  # an increase: cut both tables at its mask
                    first = range(total)[hi][i]
                    nums, dens, vals = nums[:first], dens[:first], vals[:first]
    return None if first == total else first


class MomentVector(_Record):
    """One exact moment per subset of [n], as integer tables indexed by mask.

    The moment of the subset `mask` is nums[mask] / dens[mask], in lowest
    terms with a positive denominator. The constructor checks the raw
    tables first (`_check_moments`): the empty-set moment is exactly 1,
    every denominator is positive, every value lies in [0, 1], and values
    never increase when the subset grows. Then it reduces each entry to
    lowest terms, so equal moments give equal vectors.
    """

    __slots__ = ("n", "nums", "dens")

    def __init__(self, n: int, nums: tuple[int, ...], dens: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "dens", dens)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_moments(self.n, self.nums, self.dens)
        nums, dens = _lowest_terms(self.nums, self.dens)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "dens", dens)

    @classmethod
    def _trusted(cls, n: int, nums: tuple[int, ...], dens: tuple[int, ...]) -> "MomentVector":
        """A MomentVector of tables that the caller has proved valid and in
        lowest terms: neither checked nor reduced."""
        vec = object.__new__(cls)
        for name, value in (("n", n), ("nums", nums), ("dens", dens)):
            object.__setattr__(vec, name, value)
        return vec

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "moments": dict(zip(
                map(str, range(len(self.nums))),
                [num if den == 1 else f"{num}/{den}" for num, den in zip(self.nums, self.dens)],
            )),
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
        # The keys are distinct masks, so they fill tables of len(raw)
        # entries exactly when they are 0 .. len(raw)-1. No table is longer
        # than the document, whatever n claims; a larger mask leaves the
        # tables empty, and so short of covering the 2^n masks.
        size = len(raw)
        nums, dens = [0] * size, [0] * size
        dense = True
        for key, value in raw.items():
            # only 0|[1-9][0-9]*, so that no two keys name the same mask
            if key != "0" and not (key.isascii() and key.isdigit() and key[0] != "0"):
                raise InputFormatError(f"moment key {key!r} is not a bitmask")
            try:
                mask = int(key)
            except ValueError as exc:  # beyond int()'s digit limit
                raise InputFormatError(f"moment key {key!r} is not a bitmask") from exc
            num, den = rational_pair(value)
            if mask < size:
                nums[mask], dens[mask] = num, den
            else:
                dense = False
        if not dense:
            nums = dens = []
        nums, dens = tuple(nums), tuple(dens)
        _check_moments(n, nums, dens)
        # rational_pair returns every entry in lowest terms
        return cls._trusted(n, nums, dens)


def _forward_moments(m: RMatrix, pi: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """All 2^n subset moments of (m, pi) as integer numerators and denominators.

    Row i of m is scaled to integers by the lcm d_i of its denominators and
    pi by the lcm w of its own, so mask S has the numerator
    sum_j (w pi_j) prod_{i in S} (d_i m_ij) over the denominator
    w prod_{i in S} d_i.
    """
    rows = [scale_to_integers(row) for row in m.entries]
    w, weights = scale_to_integers(pi)
    columns = (_subset_products(weight, [row[j] for _, row in rows])
               for j, weight in enumerate(weights))
    nums = next(columns, None)
    if nums is None:  # k = 0: every moment is an empty sum
        nums = [0] * (1 << m.n_rows)
    for column in columns:
        nums = list(map(operator.add, nums, column))
    return nums, _subset_products(w, [d for d, _ in rows])


def _lowest_terms(nums: Sequence[int],
                  dens: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both tables divided entry by entry by gcd(num, den); every
    denominator must be positive."""
    gcds = list(map(math.gcd, nums, dens))
    return tuple(map(operator.floordiv, nums, gcds)), tuple(map(operator.floordiv, dens, gcds))


def moment_map(params: MixtureParams) -> MomentVector:
    """The 2^n exact moments of the mixture.

    The tables are valid by construction, so they are not checked again.
    `MixtureParams` holds every m_ij in [0, 1], every pi_j >= 0 and
    sum_j pi_j = 1, and `_forward_moments` gives mask S the numerator
    sum_j (w pi_j) prod_S (d_i m_ij) over the denominator w prod_S d_i,
    with integers w pi_j summing to w. Each property `_check_moments`
    tests holds:

    - n passes the guard (checked first), and both tables have 2^n entries.
    - The empty-set moment is 1: both integers of mask 0 equal w.
    - Every denominator is positive: w >= 1 and every d_i >= 1.
    - Every value lies in [0, 1]: mu(S) = sum_j pi_j prod_S m_ij is a
      convex combination of products of entries in [0, 1].
    - No value increases on a superset: mu(S + {i}) =
      sum_j pi_j m_ij prod_S m_.j <= sum_j pi_j prod_S m_.j = mu(S), as
      every m_ij <= 1 and every term pi_j prod_S m_.j >= 0.
    - Every entry is in lowest terms: dividing num and den by their gcd,
      which is positive as den is, leaves coprime integers.
    """
    n = params.m.n_rows
    _check_observables(n)  # before any table of 2^n entries
    return MomentVector._trusted(n, *_lowest_terms(*_forward_moments(params.m, params.pi)))


def is_separated(m: RMatrix, i: int) -> bool:
    """Whether row i has k pairwise distinct entries."""
    if not 0 <= i < m.n_rows:
        raise DomainError(f"row index {i} out of range for {m.n_rows} rows")
    return len({x.as_integer_ratio() for x in m.entries[i]}) == m.n_cols


class GateReport(_Record):
    """Identifiability gate: extension rank plus supporting evidence.

    `separated_needed` (2k-1 separated rows) is reported for reference
    only; whether that many separated rows actually suffice is not decided
    here.
    """

    __slots__ = ("n_rows", "n_cols", "extension_rank", "full_rank", "certificate",
                 "separated_rows", "separated_needed")

    def __init__(self, n_rows: int, n_cols: int, extension_rank: int, full_rank: bool,
                 certificate: SubsetIndex | None, separated_rows: SubsetIndex,
                 separated_needed: int) -> None:
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "extension_rank", extension_rank)
        object.__setattr__(self, "full_rank", full_rank)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "separated_rows", separated_rows)
        object.__setattr__(self, "separated_needed", separated_needed)

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
    k x k system of the first k independent extension rows of the greedy
    certificate, in canonical order, on integers, then re-verifies every one
    of the 2^n moment equations; any mismatch means the moments are
    inconsistent.
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
    # Row i of m times the lcm d_i of its denominators, then d_i itself: the
    # product over a subset S is [D_S P_S | D_S], for the product row P_S of
    # the extension and D_S = prod_{i in S} d_i. Equation S, P_S pi = num/den,
    # becomes the integer row [den D_S P_S | D_S num].
    scaled = [(*row, d) for d, row in map(scale_to_integers, map(m.row, certificate))]
    products = list(zip(*(_subset_products(1, [row[j] for row in scaled])
                          for j in range(k + 1))))

    def equations():
        for local in masks_by_cardinality(len(certificate)):
            mask = _spread(local, certificate.mask)
            den = moments.dens[mask]
            *coefficients, scale = products[local]
            yield [den * p for p in coefficients] + [scale * moments.nums[mask]]

    pi = _solve_rows(equations(), k)
    if pi is None:
        raise InternalInvariantError(
            f"certificate rows {certificate.mask:#x} failed to span k = {k} dimensions"
        )
    # k >= 1 adjoins the empty-set equation sum(pi) = 1 first, so only k = 0 fails it
    if not pi:
        raise DomainError("recovered weights sum to 0, not 1; moments are inconsistent")
    nums, dens = _forward_moments(m, pi)

    def mismatches():
        return map(operator.ne, map(operator.mul, nums, moments.dens),
                   map(operator.mul, moments.nums, dens))

    # any() keeps no table of cross-products; a refusal scans again for its mask
    if any(mismatches()):
        raise DomainError(
            "moments are inconsistent with every weight vector",
            witness={"subset_mask": next(compress(count(), mismatches()))},
        )
    return pi
