"""Exact rational linear algebra substrate.

Scalars, dense matrices, subset bitmasks, and canonical (RREF) subspaces,
all over Q. There is no floating point and no tolerance anywhere, so rank
and subspace equality are exact decisions. Every type is an immutable
value and every function is pure.

Fractions are the API's numbers, not the kernels'. A matrix is held as
integer rows, each row scaled by the lcm of its denominators (`RMatrix`),
and `matrix_from_json` reads a document straight into that form, parsing
each distinct string once, with no Fraction built; `RMatrix.entries`
builds the Fractions only when a caller asks for them. A vector or a
number a caller hands in, int or Fraction, is taken apart only by
`as_integer_ratio()`: its exact (numerator, denominator) pair.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import islice, repeat, starmap
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Exhaustive subset scans refuse to enumerate more than this many subsets.
SUBSET_SCAN_LIMIT = 10**6


class DomainError(ValueError):
    """A documented precondition or size guard was violated."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class InputFormatError(ValueError):
    """Malformed external input: a bad flag, JSON shape or entry encoding."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed invariant failed to hold; this is a bug."""


# ---------------------------------------------------------------------------
# Rational scalars and vectors


def rational_pair(value: object) -> tuple[int, int]:
    """An integer or rational string as (numerator, denominator) in lowest
    terms, with a positive denominator.

    Strings must match -?[0-9]+(/[0-9]+)? in ASCII digits: no whitespace,
    underscores, plus sign or signed denominator. This is the one parser
    of the rational grammar; as_vector, the JSON entry reader and the CLI's
    integer flags all read through it.
    """
    if isinstance(value, str):
        num, sep, den = value.partition("/")
        # isdigit() on an ASCII string accepts exactly 0-9
        if not (value.isascii() and num.removeprefix("-").isdigit()
                and (not sep or den.isdigit())):
            raise InputFormatError(f"not a rational: {value!r}")
        try:
            n = int(num)
            if not sep:
                return n, 1
            d = int(den)
        except ValueError as exc:  # beyond int()'s digit limit
            raise InputFormatError(f"not a rational: {value!r}") from exc
        if d == 0:
            raise InputFormatError(f"denominator must be positive: {value!r}")
        g = math.gcd(n, d)
        return n // g, d // g
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"entry must be an integer or 'a/b' string: {value!r}")
    return value, 1


def as_vector(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """The one coercer: each Fraction as it is, each int or string (as
    rational_pair reads it) as an exact rational."""
    return tuple(v if isinstance(v, Fraction) else Fraction(*rational_pair(v))
                 for v in values)


def ones(k: int) -> tuple[int, ...]:
    """The all-ones row of length k, as integers."""
    return (1,) * k


def rational_to_json(q: Fraction) -> int | str:
    """Bare integer when the denominator is 1, else the string 'a/b'."""
    num, den = q.as_integer_ratio()
    return num if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# Records


class _Record:
    """Base of hadamix's immutable records, the contract of a frozen dataclass.

    A record names its fields once, in `__slots__`, in declaration order. Its
    constructor is generated from them: one real `def` per record, compiled
    once, as `namedtuple` builds its `__new__`, with one parameter per slot,
    by position or by keyword. Only `SubsetIndex` writes its own `__init__`,
    for the default `mask=0`, and `RMatrix`, which scales its rows. Each
    constructor sets the fields with object.__setattr__ and then calls
    `__post_init__`, the one place a record checks or normalizes its fields;
    `_trusted` is the one constructor that skips it. Equality, hash and repr
    read the tuple of its `_compared` fields: every slot, unless the record
    names fewer. Records of different classes never compare equal.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)
        if "__init__" not in cls.__dict__:
            sets = "".join(f"_set(self, {name!r}, {name}); " for name in cls.__slots__)
            namespace = {"_set": object.__setattr__}
            exec(f"def __init__(self, {', '.join(cls.__slots__)}): {sets}self.__post_init__()",
                 namespace)
            cls.__init__ = namespace["__init__"]

    @classmethod
    def _trusted(cls, *values: object):
        """The record of these values, one per slot, proved valid and normalized."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def __post_init__(self) -> None:
        """Check or normalize the fields; the base has none."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Subset bitmasks


class SubsetIndex(_Record):
    """Subset of {0, ..., size-1} stored as a bitmask.

    Iteration yields members in increasing index order. The ground set
    may be of any size: no check builds 2^size.
    """

    __slots__ = ("size", "mask")

    def __init__(self, size: int, mask: int = 0) -> None:
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "mask", mask)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.size < 0:
            raise DomainError(f"ground-set size must be nonnegative (got {self.size})")
        if self.mask < 0 or self.mask.bit_length() > self.size:
            found = "negative" if self.mask < 0 else f"{self.mask.bit_length()} bits"
            raise DomainError(f"mask out of range for size {self.size} ({found})")

    @classmethod
    def from_members(cls, size: int, members: Iterable[int]) -> "SubsetIndex":
        mask = 0
        for i in members:
            if not 0 <= i < size:
                raise DomainError(f"member {i} out of range for size {size}")
            mask |= 1 << i
        return cls(size, mask)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.size and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self) + "}"

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def add(self, i: int) -> "SubsetIndex":
        if not 0 <= i < self.size:
            raise DomainError(f"member {i} out of range for size {self.size}")
        return SubsetIndex(self.size, self.mask | (1 << i))


def _members(mask: int) -> Iterator[int]:
    """The set bits of a mask, in increasing index order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(local: int, cols: int) -> int:
    """The subset of `cols` whose bits, numbered within `cols`, are `local`."""
    if cols & (cols + 1) == 0:  # cols is 0..w-1: the numbering is the identity
        return local
    return sum(1 << j for b, j in enumerate(_members(cols)) if local >> b & 1)


def _count_subsets(n: int, size: int) -> int:
    """C(n, size), the subsets an exhaustive scan enumerates; refused past
    SUBSET_SCAN_LIMIT before any of them is."""
    count = math.comb(n, size)
    if count > SUBSET_SCAN_LIMIT:
        raise DomainError(
            f"subset scan guard: C({n},{size}) = {count} exceeds {SUBSET_SCAN_LIMIT}"
        )
    return count


def masks_of_weight(n: int, weight: int) -> Iterator[int]:
    """All n-bit masks with the given popcount, in ascending numeric order.

    Uses Gosper's hack to step to the next mask of equal weight.
    """
    if weight < 0 or weight > n:
        return
    if weight == 0:
        yield 0
        return
    mask = (1 << weight) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def masks_by_cardinality(n: int) -> Iterator[int]:
    """All n-bit masks sorted by (popcount, numeric value)."""
    for weight in range(n + 1):
        yield from masks_of_weight(n, weight)


# ---------------------------------------------------------------------------
# Matrices


class RMatrix(_Record):
    """Dense n x k matrix of rationals; immutable, row-major.

    Row i is held as integers: `rows[i]` is the row times `scales[i]`, the
    lcm of the denominators of its entries in lowest terms, so a row of
    integers is its own numerators, with scale 1. The form is canonical, so
    equality, hash and repr read it, and every kernel reads these rows. The
    constructor takes rational rows, ints or Fractions, and scales each row
    once. `entries`, the rows as rationals, is kept as the constructor was
    given it; a matrix read from JSON or built by a kernel builds it, as
    Fractions, only when it is first asked for. `_trusted(n_rows, n_cols,
    scales, rows, None)` takes rows already so scaled: gcd(d, *row) = 1.
    """

    __slots__ = ("n_rows", "n_cols", "scales", "rows", "_entries")
    _compared = ("n_rows", "n_cols", "scales", "rows")

    def __init__(self, n_rows: int, n_cols: int,
                 entries: Sequence[Sequence[Fraction | int]]) -> None:
        if n_rows < 0 or n_cols < 0:
            raise DomainError("matrix dimensions must be nonnegative")
        if len(entries) != n_rows:
            raise DomainError(f"expected {n_rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != n_cols:
                raise DomainError(
                    f"ragged matrix: row of length {len(row)}, expected {n_cols}"
                )
        scaled = list(map(scale_to_integers, entries))
        values = (n_rows, n_cols, tuple([d for d, _ in scaled]),
                  tuple([tuple(row) for _, row in scaled]), entries)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[RationalLike]],
        n_cols: int | None = None,
    ) -> "RMatrix":
        data = [as_vector(r) for r in rows]
        if n_cols is None:
            if not data:
                raise DomainError("n_cols required for a matrix with no rows")
            n_cols = len(data[0])
        return cls(len(data), n_cols, tuple(data))

    @property
    def entries(self) -> Sequence[Sequence[Fraction | int]]:
        if self._entries is None:
            shared: dict[Fraction, Fraction] = {}  # one Fraction per distinct value
            view = []
            for d, row in zip(self.scales, self.rows):
                value = {x: shared.setdefault(q := Fraction(x, d), q) for x in set(row)}
                view.append(tuple(map(value.__getitem__, row)))
            object.__setattr__(self, "_entries", tuple(view))
        return self._entries

    def row(self, i: int) -> Sequence[Fraction | int]:
        if not 0 <= i < self.n_rows:
            raise DomainError(f"row index {i} out of range for {self.n_rows} rows")
        return self.entries[i]

    def restrict_rows(self, rows: SubsetIndex) -> "RMatrix":
        """Copy keeping only the selected rows, in their original order."""
        if rows.size != self.n_rows:
            raise DomainError(
                f"row subset over {rows.size} elements does not match {self.n_rows} rows"
            )
        return RMatrix._trusted(len(rows), self.n_cols, tuple([self.scales[i] for i in rows]),
                                tuple([self.rows[i] for i in rows]), None)


def _row_to_json(nums: Sequence[int], d: int) -> list[int | str]:
    """The entries nums[j] / d (d > 0), each as rational_to_json writes it:
    a row of scale 1 as its ints, any other with one gcd per entry."""
    if d == 1:
        return list(nums)
    return [x // g if g == d else f"{x // g}/{d // g}"
            for x, g in zip(nums, map(math.gcd, nums, repeat(d)))]


def matrix_to_json(m: RMatrix) -> dict:
    """Each entry as rational_to_json writes it, from the integer rows."""
    return {
        "rows": m.n_rows,
        "cols": m.n_cols,
        "data": list(map(_row_to_json, m.rows, m.scales)),
    }


# A matrix document of 2^n rows or k x k entries is written in chunks. With a
# StringIO stdout, an n = 16, k = 8 hadext peaks at 3.2 MiB for 2.8 MiB of
# output (17.8 MiB when it held k full tables and joined the document before
# writing), and the k = 62 project of the golden corpus at 18 KB (41 KB).
# Rows per chunk, one json.dumps call, of `_matrix_text`: hadext's tables stay
# alive while rows are encoded, so 64-row slices peaked higher on an n = 6
# matrix (one slice, 68 KiB) than one json.dumps after the tables were freed
# (56 KiB).
HADEXT_SLICE = 16


def _matrix_text(n_rows: int, n_cols: int,
                 rows: Iterator[tuple[list[int], int]]) -> Iterator[str]:
    """json.dumps(matrix_to_json(m), sort_keys=True) of the matrix m whose
    rows come as (numerators, denominator), such as the extension rows that
    `_extension_table` yields, one chunk per HADEXT_SLICE rows, so that no
    list holds all n_rows rows."""
    yield f'{{"cols": {n_cols}, "data": ['
    sep = ""
    while chunk := list(starmap(_row_to_json, islice(rows, HADEXT_SLICE))):
        yield sep + json.dumps(chunk)[1:-1]
        sep = ", "
    yield f'], "rows": {n_rows}}}'


def _diagonal_text(diagonal: Sequence[Fraction]) -> Iterator[str]:
    """json.dumps(matrix_to_json(m), sort_keys=True) of the square matrix m
    with this diagonal and zeros elsewhere, one chunk per row, with no
    object per entry: each row is the text before its diagonal entry, the
    entry as rational_to_json writes it, and the text after it, both texts
    cut from one run of "0, "."""
    k = len(diagonal)
    pad = "0, " * k
    yield f'{{"cols": {k}, "data": ['
    for j, x in enumerate(map(rational_to_json, diagonal)):
        x = f'"{x}"' if type(x) is str else x
        yield f"{', ' if j else ''}[{pad[:3 * j]}{x}{pad[1:3 * (k - j) - 2]}]"
    yield f'], "rows": {k}}}'


def _entry_reader() -> Callable[[object], Fraction]:
    """A JSON entry of a vector as a Fraction, parsing each distinct int or
    string once. `true` (== 1, with hash 1) is never cached: it and every
    other type go to rational_pair, which refuses them."""
    parsed: dict[int | str, Fraction] = {}

    def entry(x: object) -> Fraction:
        if type(x) is not int and type(x) is not str:
            return Fraction(*rational_pair(x))
        q = parsed.get(x)
        if q is None:
            q = parsed[x] = Fraction(*rational_pair(x))
        return q

    return entry


_INT = {int}
_TOKENS = {int, str}


class _Ratio(NamedTuple):
    """A matrix entry that is not whole, as rational_pair reads it: a type
    of its own, which a row tells apart from an int."""

    num: int
    den: int


def _ratio(num: int, den: int) -> int | _Ratio:
    return num if den == 1 else _Ratio(num, den)


def matrix_from_json(obj: object) -> RMatrix:
    """The matrix of a JSON document, each row scaled to integers as it is
    read, with no Fraction built.

    An int entry is read as it is. Each distinct string is parsed once, by
    rational_pair, into an int if it is whole and a `_Ratio` if not.
    `true` and every other type go to rational_pair uncached, which refuses
    them. The rows are read in order, each checked for its length before
    its entries, so the first fault in row-major order is the one refused.

    Heap: only the entries that are not whole get an object of their own,
    a scaled value that CPython does not share (outside -5..256) is held
    once per matrix, as the entries were once one Fraction per token, and
    a row equal to the one before it, with the same entry types, is the
    same tuple.
    """
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
    parsed: dict[str, int | _Ratio] = {}

    def value(x: object) -> int | _Ratio:
        """A str, parsed once, or any other entry but an int, refused."""
        if type(x) is not str:
            return _ratio(*rational_pair(x))
        q = parsed.get(x)
        if q is None:
            q = parsed[x] = _ratio(*rational_pair(x))
        return q

    share = {}.setdefault
    scales, scaled = [], []
    last = None
    for r in data:
        if not isinstance(r, list) or len(r) != cols:
            raise InputFormatError(f"each row must be a list of {cols} entries")
        if r == last and set(map(type, r)) <= _TOKENS:  # a copy of the row before
            scales.append(d)
            scaled.append(row)
            continue
        values = [x if type(x) is int else value(x) for x in r]
        d = math.lcm(*[q[1] for q in values if type(q) is _Ratio])
        if d == 1:  # the row is its own numerators
            row = tuple(values)
        else:
            row = tuple([a if -5 <= (a := q[0] * (d // q[1]) if type(q) is _Ratio else q * d)
                         <= 256 else share(a, a) for q in values])
        scales.append(d)
        scaled.append(row)
        last = r
    return RMatrix._trusted(rows, cols, tuple(scales), tuple(scaled), None)


# ---------------------------------------------------------------------------
# Row reduction: the one elimination kernel, fraction-free Gauss-Jordan on
# integer rows. A vector is scaled to integers once, by the lcm of its
# denominators, where it enters; in place of Bareiss's (1968) exact division
# every reduced row is divided by the gcd of its entries, so any nonzero
# multiple of a row reduces alike. A basis is kept in RREF over such
# primitive rows, each with a positive pivot; dividing a row by its pivot
# gives the rational RREF row, so the integer form is as unique as the RREF.


def scale_to_integers(vec: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(d, d * vec), where d is the lcm of the denominators of vec.

    Each entry is read once, as its (numerator, denominator) pair.
    """
    pairs = [x.as_integer_ratio() for x in vec]
    scale = math.lcm(*[d for _, d in pairs])
    return scale, [n * (scale // d) for n, d in pairs]


def _primitive(row: Sequence[int]) -> Sequence[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(rows: Sequence[Sequence[int]], pivots: Sequence[int],
            vec: Sequence[int]) -> Sequence[int]:
    """Primitive residue of vec against an RREF basis; zero iff vec is in its span.

    One pass suffices: each pivot column is zero in every other basis row.
    """
    for row, p in zip(rows, pivots):
        f = vec[p]
        if f:
            a = row[p]
            g = math.gcd(a, f)
            a, f = a // g, f // g
            vec = [a * x - f * y for x, y in zip(vec, row)]
    return _primitive(vec)


def _insert(rows: list[Sequence[int]], pivots: list[int], vec: Sequence[int]) -> None:
    """Add vec to an RREF basis in place, unless it already lies in the span."""
    vec = _reduce(rows, pivots, vec)
    if any(vec):
        _adjoin(rows, pivots, vec)


def _adjoin(rows: list[Sequence[int]], pivots: list[int], vec: Sequence[int]) -> None:
    """Add a nonzero residue of `_reduce` against this basis to it in place."""
    c = next(j for j, x in enumerate(vec) if x)
    if vec[c] < 0:
        vec = [-x for x in vec]
    for i, row in enumerate(rows):
        if row[c]:
            rows[i] = _reduce((vec,), (c,), row)  # keeps its positive pivot
    at = sum(p < c for p in pivots)
    rows.insert(at, vec)
    pivots.insert(at, c)


def _unit_rows(k: int) -> tuple[tuple[int, ...], ...]:
    """The primitive RREF basis of Q^k: the unit rows e_0, ..., e_{k-1}."""
    zeros = (0,) * k
    return tuple(zeros[:p] + (1,) + zeros[p + 1:] for p in range(k))


class Subspace(_Record):
    """Subspace of Q^k held as its unique RREF basis, zero rows removed.

    The basis is stored once, as primitive integer rows (see the kernel notes
    above); dividing each row by its pivot entry gives the rational RREF.
    Equal rows mean equal subspaces, because the form is canonical, so the
    pivots, which the rows determine, are left out of equality, hash and repr.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")
    _compared = ("ambient_dim", "rows")

    def __post_init__(self) -> None:
        if len(self.pivots) != len(self.rows) \
                or any(len(row) != self.ambient_dim for row in self.rows):
            raise DomainError("basis width must equal the ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence[int]) -> bool:
        """Whether the integer vector vec lies in U; `scale_to_integers` scales rationals."""
        self._check_length(vec)
        return not any(_reduce(self.rows, self.pivots, vec))

    def extend(self, vectors: Iterable[Sequence[int]]) -> "Subspace":
        """span(U union vectors) for integer vectors; `span` scales rationals.

        Only the new vectors are reduced against the current basis.
        """
        rows, pivots = list(self.rows), list(self.pivots)
        for vec in vectors:
            self._check_length(vec)
            _insert(rows, pivots, vec)
        return Subspace(self.ambient_dim, tuple(map(tuple, rows)), tuple(pivots))

    def extend_odot(self, t: Sequence[int]) -> "Subspace":
        """span(U union t*U), the Hadamard fold step; `self` if that is U.

        t is an integer row; any nonzero multiple gives the same space. Each
        basis row b with pivot p gives the pivot-shifted product
        r = (t - t_p)*b = t*b - t_p*b. The residues are reduced only among
        themselves, the old rows are cleared of the new pivots, and the two
        sets of rows are merged by pivot. This is exact:

        - Same span: b lies in U, so span(U union {t*b}) = span(U union {r}).
        - No reduction against U is needed: r is zero at p, and b (so r) is
          zero on every other pivot of U. A nonzero vector of U is nonzero at
          some pivot of U, so dim grows by exactly the rank of the residues,
          and their reduced rows are zero on U's pivots.
        - U does not grow iff every r is 0, that is iff t is constant on the
          support of every basis row: the block-respect condition of
          `respects`, decided in dim*k multiplications and no elimination.
        - The result is the unique RREF: clearing a new pivot from an old row
          leaves its (positive) pivot and its zeros on U's pivots, so the
          merged rows are primitive RREF rows with positive pivots, the very
          rows any other elimination of the same span gives.
        - The fold stops once dim U plus the residues kept so far is k. The
          kept rows are independent and zero on U's pivots, so with U they
          span Q^k, whose primitive RREF is the identity: unit row e_p, with
          the positive pivot 1 at p, for p = 0..k-1. That is the row set
          elimination would return, so the rest of the residues, the
          clearing and the merge are skipped.
        """
        self._check_length(t)
        k = self.ambient_dim
        missing = k - self.dim
        new: list[Sequence[int]] = []
        at: list[int] = []
        for row, p in zip(self.rows, self.pivots):
            tp = t[p]
            r = [(x - tp) * y for x, y in zip(t, row)]
            if any(r):
                _insert(new, at, r)
                if len(new) == missing:
                    return Subspace(k, _unit_rows(k), tuple(range(k)))
        if not new:
            return self
        old = [_reduce(new, at, row) for row in self.rows]
        merged = sorted(zip(self.pivots + tuple(at), old + new))  # pivots are distinct
        return Subspace(self.ambient_dim, tuple(tuple(row) for _, row in merged),
                        tuple(p for p, _ in merged))

    def _check_length(self, vec: Sequence[object]) -> None:
        if len(vec) != self.ambient_dim:
            raise DomainError(f"vector length {len(vec)} does not match ambient {self.ambient_dim}")


def span(vectors: Iterable[Sequence[RationalLike]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors of length ambient_dim.

    A vector of ints, such as a row of `RMatrix.rows`, is reduced as it is;
    any other is read by as_vector and scaled to integers first.
    """
    return Subspace(ambient_dim, (), ()).extend(
        v if set(map(type, v)) <= _INT else scale_to_integers(as_vector(v))[1]
        for v in vectors)


def _solve_rows(rows: Iterable[Sequence[int]], k: int) -> tuple[Fraction, ...] | None:
    """x with a x = b, from the first k integer rows [a | b] whose a parts
    are independent; None if fewer than k of them come.

    A row whose a part reduces to zero is skipped, whatever its b, and no
    row is read once there are k pivots. All k pivots then lie in a, so
    basis row i reads row[i] * x_i = row[k].
    """
    rows = iter(rows)
    basis: list[Sequence[int]] = []
    pivots: list[int] = []
    while len(basis) < k:
        row = next(rows, None)
        if row is None:
            return None
        vec = _reduce(basis, pivots, row)
        if any(vec[:k]):
            _adjoin(basis, pivots, vec)
    return tuple(Fraction(row[k], row[i]) for i, row in enumerate(basis))


def solve_square(a: RMatrix, b: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Unique solution x of the square system a x = b; a must be invertible."""
    if a.n_rows != a.n_cols:
        raise DomainError(f"system matrix must be square, got {a.n_rows}x{a.n_cols}")
    rhs = as_vector(b)
    if len(rhs) != a.n_rows:
        raise DomainError("right-hand side length does not match the system")
    # row / d . x = p / q is the integer row [q * row | d * p]
    x = _solve_rows(([q * y for y in row] + [d * p]
                     for d, row, (p, q) in zip(a.scales, a.rows,
                                               map(Fraction.as_integer_ratio, rhs))),
                    a.n_cols)
    if x is None:
        raise DomainError("system matrix is singular")
    return x
