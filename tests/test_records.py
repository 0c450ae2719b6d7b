"""The value contract of hadamix's ten records.

Each record is an immutable value: equal fields give equal instances with
equal hashes, instances of two different records never compare equal, a
field can be neither assigned nor deleted, the repr names every compared
field in declaration order, a constructor takes exactly the slots, by
position or by keyword (RMatrix takes its rational entries and holds them
as integer rows), and it refuses bad arguments with a DomainError.
The reprs and messages below are pinned as text.
"""

import inspect
from fractions import Fraction
from itertools import combinations

import pytest

from hadamix.exact_core import DomainError, RMatrix, SubsetIndex, Subspace, span
from hadamix.hadamard import NotFullRank, RowspaceState
from hadamix.mixture import GateReport, MixtureParams, MomentVector
from hadamix.nae import NaeReport
from hadamix.partition_algebra import Partition

M_TEXT = "RMatrix(n_rows=2, n_cols=2, scales=(2, 3), rows=((1, 2), (0, 1)))"


def _matrix():
    return RMatrix.from_rows([["1/2", 1], [0, "1/3"]])


# (make, fields in declaration order, repr); make() builds a new instance
# each call, from new field objects where the record owns them
RECORDS = [
    (lambda: SubsetIndex(3, 5), ("size", "mask"), "SubsetIndex(size=3, mask=5)"),
    (_matrix, ("n_rows", "n_cols", "scales", "rows"), M_TEXT),
    (lambda: Subspace(2, ((1, 1),), (0,)), ("ambient_dim", "rows", "pivots"),
     "Subspace(ambient_dim=2, rows=((1, 1),))"),
    (lambda: RowspaceState(SubsetIndex(2, 1), span([(1, 1)], 2)), ("chosen_rows", "space"),
     "RowspaceState(chosen_rows=SubsetIndex(size=2, mask=1),"
     " space=Subspace(ambient_dim=2, rows=((1, 1),)))"),
    (lambda: NotFullRank(2), ("rank",), "NotFullRank(rank=2)"),
    (lambda: MixtureParams(_matrix(), ("1/3", "2/3")), ("m", "pi"),
     f"MixtureParams(m={M_TEXT}, pi=(Fraction(1, 3), Fraction(2, 3)))"),
    (lambda: MomentVector(1, (1, 1), (1, 2)), ("n", "nums", "dens"),
     "MomentVector(n=1, nums=(1, 1), dens=(1, 2))"),
    (lambda: GateReport(n_rows=2, n_cols=2, extension_rank=2, full_rank=True,
                        certificate=SubsetIndex(2, 1), separated_rows=SubsetIndex(2, 3),
                        separated_needed=3),
     ("n_rows", "n_cols", "extension_rank", "full_rank", "certificate",
      "separated_rows", "separated_needed"),
     "GateReport(n_rows=2, n_cols=2, extension_rank=2, full_rank=True,"
     " certificate=SubsetIndex(size=2, mask=1), separated_rows=SubsetIndex(size=2, mask=3),"
     " separated_needed=3)"),
    (lambda: NaeReport(0, SubsetIndex(2, 1), SubsetIndex(2, 1)),
     ("eps_bar", "witness_columns", "nae_rows_of_witness"),
     "NaeReport(eps_bar=0, witness_columns=SubsetIndex(size=2, mask=1),"
     " nae_rows_of_witness=SubsetIndex(size=2, mask=1))"),
    (lambda: Partition(3, (Fraction(1), Fraction(1, 2)), (SubsetIndex(3, 2), SubsetIndex(3, 5))),
     ("ambient", "values", "blocks"),
     "Partition(ambient=3, values=(Fraction(1, 1), Fraction(1, 2)),"
     " blocks=(SubsetIndex(size=3, mask=2), SubsetIndex(size=3, mask=5)))"),
]
IDS = [make().__class__.__name__ for make, _, _ in RECORDS]


def test_the_ten_records_are_distinct_classes():
    assert len(set(IDS)) == len(RECORDS) == 10


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_values_with_equal_hashes(make, fields, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # a record equals no tuple of its fields, and asks the other side
    assert a != tuple(getattr(a, name) for name in fields)
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=IDS)
def test_repr_names_the_compared_fields_in_order(make, fields, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(make, fields, text):
    record = make()
    before = repr(record)
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


# RMatrix takes rational entries and holds integer rows, so its
# constructor is not its slots (test_rmatrix_takes_its_entries_...)
GENERATED = [case for case, name in zip(RECORDS, IDS) if name != "RMatrix"]


@pytest.mark.parametrize("make, fields, text", GENERATED,
                         ids=[name for name in IDS if name != "RMatrix"])
def test_the_constructor_takes_the_slots_by_position_or_by_keyword(make, fields, text):
    # every record but SubsetIndex and RMatrix gets its constructor from __slots__
    record = make()
    cls = type(record)
    assert cls.__slots__ == fields
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    values = {name: getattr(record, name) for name in cls.__slots__}
    assert cls(*values.values()) == record
    assert cls(**values) == record


def test_rmatrix_takes_its_entries_by_position_or_by_keyword():
    m = _matrix()
    assert RMatrix.__slots__ == ("n_rows", "n_cols", "scales", "rows", "_entries")
    assert list(inspect.signature(RMatrix).parameters) == ["n_rows", "n_cols", "entries"]
    entries = ((Fraction(1, 2), 1), (0, Fraction(1, 3)))
    assert RMatrix(2, 2, entries) == m
    assert RMatrix(n_rows=2, n_cols=2, entries=entries) == m
    # the entries are kept as given; equality reads the integer rows
    assert RMatrix(2, 2, entries).entries is entries
    assert (m.scales, m.rows) == ((2, 3), ((1, 2), (0, 1)))
    assert m.entries == ((Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1, 3)))
    # rows already in the canonical form, as the JSON reader builds them
    assert RMatrix._trusted(2, 2, (2, 3), ((1, 2), (0, 1)), None) == m
    for name in ("entries", "scales", "rows"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)


def test_records_of_different_classes_never_compare_equal():
    values = [make() for make, _, _ in RECORDS]
    for a, b in combinations(values, 2):
        assert a != b and b != a
        assert not a == b


def test_a_field_changes_equality():
    assert SubsetIndex(3, 5) != SubsetIndex(3, 4)
    assert SubsetIndex(3, 5) != SubsetIndex(4, 5)
    assert NotFullRank(2) != NotFullRank(3)
    assert MomentVector(1, (1, 1), (1, 2)) != MomentVector(1, (1, 1), (1, 3))


def test_subspace_leaves_pivots_out_of_equality_hash_and_repr():
    a = Subspace(2, ((1, 1),), (0,))
    b = Subspace(2, ((1, 1),), (1,))
    assert a.pivots != b.pivots
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != Subspace(2, ((1, 2),), (0,))


def test_constructors_normalize_their_fields():
    # MixtureParams reads pi through as_vector; MomentVector reduces to lowest terms
    assert MixtureParams(_matrix(), (Fraction(1, 3), "2/3")).pi == (Fraction(1, 3), Fraction(2, 3))
    assert MixtureParams(_matrix(), ["1/3", "2/3"]) == MixtureParams(_matrix(), ("1/3", "2/3"))
    vec = MomentVector(1, (2, 2), (2, 4))
    assert (vec.nums, vec.dens) == ((1, 1), (1, 2))
    assert vec == MomentVector(1, (1, 1), (1, 2))


def test_trusted_moment_vector_runs_no_check():
    # neither the empty-set check nor the reduction to lowest terms
    vec = MomentVector._trusted(1, (2, 2), (1, 4))
    assert (vec.n, vec.nums, vec.dens) == (1, (2, 2), (1, 4))
    assert repr(vec) == "MomentVector(n=1, nums=(2, 2), dens=(1, 4))"
    assert vec == MomentVector._trusted(1, (2, 2), (1, 4))
    with pytest.raises(AttributeError):
        vec.n = 2


def test_gate_report_keeps_keyword_construction():
    fields = dict(n_rows=1, n_cols=1, extension_rank=1, full_rank=True, certificate=None,
                  separated_rows=SubsetIndex(1, 1), separated_needed=1)
    report = GateReport(**fields)
    assert {name: getattr(report, name) for name in fields} == fields
    assert report == GateReport(*fields.values())
    assert report.separated_count == 1


BAD = [
    (lambda: SubsetIndex(-1), "ground-set size must be nonnegative (got -1)"),
    (lambda: SubsetIndex(2, 4), "mask out of range for size 2 (3 bits)"),
    (lambda: SubsetIndex(2, -1), "mask out of range for size 2 (negative)"),
    (lambda: RMatrix(-1, 0, ()), "matrix dimensions must be nonnegative"),
    (lambda: RMatrix(2, 1, ((1,),)), "expected 2 rows, got 1"),
    (lambda: RMatrix(1, 2, ((1,),)), "ragged matrix: row of length 1, expected 2"),
    (lambda: Subspace(2, ((1, 0),), ()), "basis width must equal the ambient dimension"),
    (lambda: Subspace(2, ((1,),), (0,)), "basis width must equal the ambient dimension"),
    (lambda: RowspaceState(SubsetIndex(1, 0), span([(1, 0)], 2)),
     "extension rowspace must contain the all-ones vector"),
    (lambda: MixtureParams(_matrix(), ("1",)), "pi has 1 entries for 2 columns"),
    (lambda: MixtureParams(RMatrix.from_rows([[2]]), ("1",)),
     "entry (0,0) = 2 is not a probability"),
    (lambda: MixtureParams(RMatrix.from_rows([[1, 1]]), ("-1", "2")),
     "mixture weights must be nonnegative"),
    (lambda: MixtureParams(RMatrix.from_rows([[1, 1]]), ("1/3", "1/3")),
     "mixture weights sum to 2/3, not 1"),
    (lambda: MomentVector(1, (2, 1), (1, 1)), "the empty-set moment must be exactly 1"),
    (lambda: MomentVector(1, (1,), (1,)), "moments must cover all 2 subsets of [1]"),
    (lambda: MomentVector(1, (1, 3), (1, 2)), "moment 3/2 for mask 1 is outside [0, 1]"),
    (lambda: MomentVector(-1, (), ()), "moment guard: 0 <= n <= 20 (got -1)"),
    (lambda: NaeReport(0, SubsetIndex(2, 0), SubsetIndex(2, 0)),
     "witness column set must be nonempty"),
    (lambda: NaeReport(5, SubsetIndex(2, 1), SubsetIndex(2, 1)),
     "deficiency does not match the witness sets"),
]


@pytest.mark.parametrize("build, message", BAD, ids=[message for _, message in BAD])
def test_bad_arguments_raise_the_same_domain_error(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message
