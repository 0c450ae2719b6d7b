"""Mixtures of product distributions on binary observables, at desk scale.

An n x k matrix of conditional probabilities m[i][j] = Pr(X_i = 1 | H = j)
and a mixture weight vector pi determine one moment per observable subset
S: Pr(all of X_S equal 1) = (product of rows S) dot pi. Full column rank
of the Hadamard extension of m is necessary for these moments to pin down
pi, and then a small certifying row subset suffices to solve for it
exactly.

`recover_pi` solves pi from the certificate's moments and checks it
against all 2^n, a block of consecutive masks at a time
(`_moment_blocks`), so no table of them is built. `hadamix recover-pi`
reads the document `_moments_text` writes through `_recover_pi_from_json`:
parsed only at the certificate, it is compared as text with the forward
moments of the weights solved there, block by block, each moment but the
empty set's as "a/b" in lowest terms. A moment of 0 or 1 is written as a
bare int, so its document, like any other, is read whole by
`MomentVector.from_json_obj`, refused or solved as `recover_pi` would,
and checked from the first block the text did not prove.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, count, repeat
from typing import Callable, Iterator, Sequence

from .exact_core import (
    DomainError,
    InputFormatError,
    InternalInvariantError,
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
    _subset_rows,
    greedy_min_rows,
)

# The fewest low rows of `_moment_blocks`: below n = 12 its blocks hold 32
# masks (all 2^n if fewer), not 2^(n // 2), so fewer of them pay a block's fixed cost.
_TEXT_BLOCK_BITS = 5
# Entries per chunk of the moments document (`_moments_text`)
MOMENTS_SLICE = 256


class MixtureParams(_Record):
    """Conditional probability matrix plus mixture weights.

    Entries of m must lie in [0, 1]; pi must be a probability vector with
    exact unit sum.
    """

    __slots__ = ("m", "pi")

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", as_vector(self.pi))
        if len(self.pi) != self.m.n_cols:
            raise DomainError(
                f"pi has {len(self.pi)} entries for {self.m.n_cols} columns"
            )
        # entry (i, j) is a / d_i for the integer row a and its scale d_i > 0
        for i, (d, row) in enumerate(zip(self.m.scales, self.m.rows)):
            if row and not 0 <= min(row) <= max(row) <= d:
                j = next(j for j, a in enumerate(row) if not 0 <= a <= d)
                raise DomainError(
                    f"entry ({i},{j}) = {self.m.entries[i][j]} is not a probability",
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

    def __post_init__(self) -> None:
        _check_moments(self.n, self.nums, self.dens)
        nums, dens = _lowest_terms(self.nums, self.dens)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "dens", dens)

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


def _moments_text(obj: dict) -> Iterator[str]:
    """json.dumps(obj, sort_keys=True) of a `MomentVector.to_json_obj`
    document, one chunk per MOMENTS_SLICE entries: its keys are digits and
    its values ints or "a/b" strings, none of which JSON escapes."""
    table = obj["moments"]
    keys = sorted(table)
    yield '{"moments": {'
    for start in range(0, len(keys), MOMENTS_SLICE):
        chunk = keys[start:start + MOMENTS_SLICE]
        yield (", " if start else "") + ", ".join([
            f'"{key}": "{value}"' if type(value) is str else f'"{key}": {value}'
            for key, value in zip(chunk, map(table.__getitem__, chunk))
        ])
    yield f'}}, "n": {obj["n"]}}}'


def _forward_moments(m: RMatrix, pi: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """All 2^n subset moments of (m, pi) as integer numerators and denominators.

    Row i of m is held scaled to integers by the lcm d_i of its denominators
    (`RMatrix.rows`), and pi is scaled by the lcm w of its own, so mask S
    has the numerator sum_j (w pi_j) prod_{i in S} (d_i m_ij) over the
    denominator w prod_{i in S} d_i.
    """
    w, weights = scale_to_integers(pi)
    columns = (_subset_products(weight, [row[j] for row in m.rows])
               for j, weight in enumerate(weights))
    nums = next(columns, None)
    if nums is None:  # k = 0: every moment is an empty sum
        nums = [0] * (1 << m.n_rows)
    for column in columns:
        nums = list(map(operator.add, nums, column))
    return nums, _subset_products(w, m.scales)


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
    return len(set(m.rows[i])) == m.n_cols


class GateReport(_Record):
    """Identifiability gate: extension rank plus supporting evidence.

    `separated_needed` (2k-1 separated rows) is reported for reference
    only; whether that many separated rows actually suffice is not decided
    here.
    """

    __slots__ = ("n_rows", "n_cols", "extension_rank", "full_rank", "certificate",
                 "separated_rows", "separated_needed")

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
    certificate, in canonical order, on integers (`_weights`), then
    re-verifies every one of the 2^n moment equations
    (`_check_consistency`); any mismatch means the moments are
    inconsistent. `_recover_pi_from_json` gives the same answer, refusal
    for refusal, on a moment document.
    """
    if moments.n != m.n_rows:
        raise DomainError(f"moments are over {moments.n} observables, matrix has {m.n_rows}")
    pi = _weights(m, greedy_min_rows(m), lambda mask: (moments.nums[mask], moments.dens[mask]))
    _check_consistency(m, pi, moments)
    return pi


def _weights(m: RMatrix, certificate: SubsetIndex | NotFullRank,
             moment: Callable[[int], tuple[int, int]]) -> tuple[Fraction, ...]:
    """recover_pi's solve: the weights from the certificate's equations,
    moment(mask) giving each moment as (num, den) with den > 0. It is asked
    only for masks inside the certificate, and for none once k equations
    are independent. Raises recover_pi's refusals of a rank-deficient
    extension and of weights that sum to 0."""
    k = m.n_cols
    if isinstance(certificate, NotFullRank):
        raise DomainError(
            f"extension rank {certificate.rank} < {k}; weights are not identifiable",
            witness={"extension_rank": certificate.rank},
        )
    # Row i of m times the lcm d_i of its denominators, then d_i itself: the
    # product over a subset S is [D_S P_S | D_S], for the product row P_S of
    # the extension and D_S = prod_{i in S} d_i. Equation S, P_S pi = num/den,
    # becomes the integer row [den D_S P_S | D_S num].
    products = _subset_rows([1] * (k + 1), [(*m.rows[i], m.scales[i]) for i in certificate])

    def equations():
        for local in masks_by_cardinality(len(certificate)):
            num, den = moment(_spread(local, certificate.mask))
            *coefficients, scale = products[local]
            yield [den * p for p in coefficients] + [scale * num]

    pi = _solve_rows(equations(), k)
    if pi is None:
        raise InternalInvariantError(
            f"certificate rows {certificate.mask:#x} failed to span k = {k} dimensions"
        )
    # k >= 1 adjoins the empty-set equation sum(pi) = 1 first, so only k = 0 fails it
    if not pi:
        raise DomainError("recovered weights sum to 0, not 1; moments are inconsistent")
    return pi


def _check_consistency(m: RMatrix, pi: Sequence[Fraction], moments: MomentVector,
                       first: int = 0) -> None:
    """Refuse moments that differ from those of (m, pi) at some mask from
    the block at mask `first` on (`_moment_blocks`), naming the smallest."""
    for base, nums, dens in _moment_blocks(m, pi, first):
        top = base + len(nums)
        mismatches = map(operator.ne, map(operator.mul, nums, moments.dens[base:top]),
                         map(operator.mul, moments.nums[base:top], dens))
        mask = next(compress(count(base), mismatches), None)
        if mask is not None:
            raise DomainError("moments are inconsistent with every weight vector",
                              witness={"subset_mask": mask})


def _recover_pi_from_json(m: RMatrix, doc: object) -> tuple[Fraction, ...]:
    """recover_pi(m, MomentVector.from_json_obj(doc)): the same weights, or
    the same refusal first.

    A document in the form `_moments_text` writes is parsed only at the
    certificate and checked as text. It must have an int n equal to m's
    rows (within the guard, checked before 1 << n) and exactly 2^n entries.
    Then greedy_min_rows(m) runs once, and `_weights` solves pi from the
    values of the certificate's subsets alone, each read by rational_pair.
    If (m, pi) is a valid `MixtureParams` (every m_ij in [0, 1], every
    pi_j >= 0, sum(pi) = 1), `_first_unproved_block` compares the forward
    moments of (m, pi) with the document at every mask but 0, and pi is
    returned when they match. A match proves that recover_pi would return
    the same pi:

    - The empty set is the first subset of every certificate, so the value
      at key "0" was read, and the empty-set equation makes sum(pi) equal
      to it. As sum(pi) = 1, it reads as 1, the forward moment at mask 0.
    - The key of every other mask holds the string "a/b" of its forward
      moment a/b in lowest terms (a >= 0, b > 0), which rational_pair reads
      as (a, b). With 2^n entries in all, the keys are exactly str(0) ..
      str(2^n - 1). So from_json_obj builds the tables of
      moment_map(MixtureParams(m, pi)), which are valid (see moment_map),
      and accepts them.
    - recover_pi then finds the same n, the same certificate and the same
      certificate values, so it solves the same pi, and the forward moments
      of pi equal the tables at every mask.

    Any other outcome (another shape, type or key, an int moment at a
    nonzero mask, as `_moments_text` writes a moment of 0 or 1, a value in
    non-lowest terms, an inconsistent value, m or pi not a probability, a
    rank-deficient extension) reads the document
    whole through from_json_obj, so that its refusals come first, as in
    recover_pi's callers. Then a refusal of the solve is raised again, or
    the weights already solved are checked from the first block the text
    did not prove, as every mask before it holds its forward moment.
    """
    n = m.n_rows
    raw = doc.get("moments") if isinstance(doc, dict) else None
    pi, first = None, 0
    if (isinstance(raw, dict) and type(doc.get("n")) is int and doc["n"] == n
            and n <= EXTENSION_ROW_GUARD and len(raw) == 1 << n):
        try:
            pi = _weights(m, greedy_min_rows(m), lambda mask: rational_pair(raw[str(mask)]))
        except (InputFormatError, KeyError):
            pass  # from_json_obj refuses the document
        except (DomainError, InternalInvariantError):
            MomentVector.from_json_obj(doc)  # its refusals come first, as in recover_pi's callers
            raise
        else:
            try:
                first = _first_unproved_block(MixtureParams(m, pi), raw)
            except ValueError:  # m or pi not a probability, or int-to-str's digit limit
                pass
            if first is None:
                return pi
    moments = MomentVector.from_json_obj(doc)
    if pi is None:
        return recover_pi(m, moments)
    _check_consistency(m, pi, moments, first)
    return pi


def _moment_blocks(m: RMatrix, pi: Sequence[Fraction], first: int = 0):
    """The moments of `_forward_moments` from the block at mask `first`
    on, as (base, nums, dens) for 2^l consecutive masks: mask base + i has
    nums[i] / dens[i], not reduced. With each row of m extended by its
    scale, `_subset_rows` multiplies out the low l = min(n,
    max(_TEXT_BLOCK_BITS, n // 2)) rows from the seed (w pi, w) and the
    high rows from ones; block b is the low table's k + 1 columns scaled
    by high row b."""
    w, weights = scale_to_integers(pi)
    low = min(m.n_rows, max(_TEXT_BLOCK_BITS, m.n_rows // 2))
    rows = [(*row, d) for row, d in zip(m.rows, m.scales)]
    *columns, low_dens = zip(*_subset_rows((*weights, w), rows[:low]))
    highs = _subset_rows([1] * (len(weights) + 1), rows[low:])
    size = 1 << low
    for b in range(first >> low, len(highs)):
        *factors, high_den = highs[b]
        nums = [0] * size
        for column, factor in zip(columns, factors):
            nums = list(map(operator.add, nums, map(operator.mul, column, repeat(factor))))
        yield b << low, nums, [high_den * d for d in low_dens]


def _first_unproved_block(params: MixtureParams, raw: dict) -> int | None:
    """The base of the first block of `_moment_blocks` with a mask but 0
    where raw[str(mask)] is not f"{a}/{b}", the moment of params there
    reduced by one gcd; None if there is none."""
    start = 1  # mask 0 holds sum(pi), checked by the caller
    for base, nums, dens in _moment_blocks(params.m, params.pi):
        texts = [f"{num // g}/{den // g}"
                 for num, den, g in zip(nums, dens, map(math.gcd, nums, dens))]
        if [raw.get(str(mask)) for mask in range(base + start, base + len(nums))] != texts[start:]:
            return base
        start = 0
    return None
