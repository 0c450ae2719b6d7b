import importlib.util
import io
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PROB_POOL,
    forward_moments_reference,
    mixture_params_fault_reference,
    moment_checks_reference,
    moment_values,
    moment_vector,
    random_matrix,
    recover_pi_reference,
    solve_pi_reference,
)
from hadamix import (
    DomainError,
    InputFormatError,
    MixtureParams,
    MomentVector,
    RMatrix,
    SubsetIndex,
    cli,
    identifiability_gate,
    is_separated,
    matrix_to_json,
    mixture,
    moment_map,
    recover_pi,
)
from hadamix.exact_core import rational_to_json
from hadamix.mixture import _check_moments

HALF = Fraction(1, 2)


def random_distribution(rng, k):
    weights = [Fraction(rng.randint(1, 9)) for _ in range(k)]
    total = sum(weights)
    return tuple(w / total for w in weights)


# ---------------------------------------------------------------------------
# parameter validation


def test_mixture_params_validation():
    m = RMatrix.from_rows([[HALF, Fraction(1, 4)]])
    MixtureParams(m, (HALF, HALF))
    with pytest.raises(DomainError):
        MixtureParams(m, (HALF, HALF, HALF))
    with pytest.raises(DomainError):
        MixtureParams(m, (Fraction(2, 3), Fraction(2, 3)))
    with pytest.raises(DomainError):
        MixtureParams(m, (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(DomainError):
        MixtureParams(RMatrix.from_rows([[2, 0]]), (HALF, HALF))


# Fractions on both sides of [0, 1] and on its ends, and ints as a hand-built
# RMatrix may hold them
PARAM_ENTRIES = [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4, 3), -1, 0, 1, 2]
PARAM_WEIGHTS = [Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), -1, 0, 1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mixture_params_refuses_as_the_fraction_rule_does(data):
    n, k = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(
        st.tuples(*[st.sampled_from(PARAM_ENTRIES)] * k), min_size=n, max_size=n))
    pi = data.draw(st.lists(st.sampled_from(PARAM_WEIGHTS), min_size=k, max_size=k))
    if data.draw(st.booleans()):
        pi[-1] = 1 - sum(pi[:-1])  # sums to 1; the last weight may be negative
    m = RMatrix(n, k, tuple(rows))
    try:
        MixtureParams(m, pi)
        got = None
    except DomainError as exc:
        got = (str(exc), exc.witness)
    assert got == mixture_params_fault_reference(m, pi)


def test_moment_vector_validation():
    moment_vector(1, {0: Fraction(1), 1: HALF})
    with pytest.raises(DomainError):
        moment_vector(1, {0: Fraction(1)})
    with pytest.raises(DomainError):
        moment_vector(1, {0: HALF, 1: HALF})
    with pytest.raises(DomainError):
        moment_vector(1, {0: Fraction(1), 1: Fraction(2)})
    with pytest.raises(DomainError):
        # increases on a superset
        moment_vector(2, {0: Fraction(1), 1: HALF, 2: HALF, 3: Fraction(3, 4)})
    with pytest.raises(DomainError):
        moment_vector(21, {})


def test_moment_vector_json_roundtrip():
    vec = moment_vector(1, {0: Fraction(1), 1: Fraction(7, 12)})
    obj = vec.to_json_obj()
    assert obj == {"n": 1, "moments": {"0": 1, "1": "7/12"}}
    assert MomentVector.from_json_obj(obj) == vec
    # one key per mask: no leading zeros, signs, whitespace or underscores
    for key in ["00", "01", "-0", "-1", "+1", " 1", "1 ", "1_0", "\u0661", ""]:
        bad = {"n": 1, "moments": {"0": 1, "1": "7/12", key: "1/2"}}
        with pytest.raises(InputFormatError, match="not a bitmask"):
            MomentVector.from_json_obj(bad)
    with pytest.raises(InputFormatError, match="not a bitmask"):
        MomentVector.from_json_obj({"n": 1, "moments": {"0": 1, "1" * 5000: 1}})


def test_moment_document_is_read_in_lowest_terms_and_must_cover():
    vec = MomentVector.from_json_obj({"n": 1, "moments": {"1": "2/4", "0": "3/3"}})
    assert vec == moment_vector(1, {0: Fraction(1), 1: HALF})
    assert vec.to_json_obj() == {"n": 1, "moments": {"0": 1, "1": "1/2"}}
    zero = MomentVector.from_json_obj({"n": 1, "moments": {"0": 1, "1": "-0/5"}})
    assert (zero.nums, zero.dens) == ((1, 0), (1, 1))
    # a missing mask, a mask past 2^n, too few masks for n, and one mask too many
    for n, moments in [
        (1, {"0": 1, "2": "1/2"}),
        (2, {"0": 1, "1": "1/2", "2": "1/2", "4": "1/4"}),
        (2, {"0": 1, "1": "1/2"}),
        (1, {"0": 1, "1": "1/2", "2": "1/2"}),
    ]:
        with pytest.raises(DomainError) as err:
            MomentVector.from_json_obj({"n": n, "moments": moments})
        assert str(err.value) == f"moments must cover all {1 << n} subsets of [{n}]"
    # an empty-set moment below 1
    with pytest.raises(DomainError, match="empty-set moment"):
        MomentVector.from_json_obj({"n": 0, "moments": {"0": "2/3"}})


def test_moment_vector_refuses_the_smallest_increase():
    # 1 against 1/2 differ by one in the cross-products 1 * 2 and 1 * 1
    moment_vector(2, {0: 1, 1: HALF, 2: 1, 3: HALF})
    with pytest.raises(DomainError) as err:
        moment_vector(2, {0: 1, 1: HALF, 2: 1, 3: 1})
    assert (str(err.value), err.value.witness) == (
        "moments must not increase on supersets", {"subset_mask": 3})


def test_moment_vector_refuses_a_non_positive_denominator():
    # (1, 0) / (1, 0) was accepted, and reading mask 1 raised a bare
    # ZeroDivisionError from Fraction(0, 0)
    for nums, dens, message, mask in [
        ((1, 0), (1, 0), "moment denominator 0 for mask 1 is not positive", 1),
        ((0, 0), (0, 1), "moment denominator 0 for mask 0 is not positive", 0),
        ((-2, -1), (-2, -3), "moment denominator -2 for mask 0 is not positive", 0),
        ((1, 5, 1, 0), (1, 0, -2, 1), "moment denominator 0 for mask 1 is not positive", 1),
        # mask by mask: the range of mask 1 before the denominator of mask 2
        ((1, 3, 1, 0), (1, 2, -2, 1), "moment 3/2 for mask 1 is outside [0, 1]", 1),
        ((1, 1, 1, 0), (1, 2, 0, 1), "moment denominator 0 for mask 2 is not positive", 2),
    ]:
        with pytest.raises(DomainError) as err:
            MomentVector(len(nums).bit_length() - 1, nums, dens)
        assert (str(err.value), err.value.witness) == (message, {"subset_mask": mask})


# ---------------------------------------------------------------------------
# forward map


def test_moment_map_examples():
    m = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)]])
    even = moment_values(moment_map(MixtureParams(m, (HALF, HALF))))
    assert even == {0: 1, 1: HALF}
    skew = moment_values(moment_map(MixtureParams(m, (Fraction(1, 3), Fraction(2, 3)))))
    assert skew[1] == Fraction(7, 12)


def test_moment_map_guard():
    params = MixtureParams(RMatrix.from_rows([[HALF, HALF]] * 21), (HALF, HALF))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as err:
            moment_map(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text recover-pi refuses an oversized moment vector with
    assert str(err.value) == "moment guard: 0 <= n <= 20 (got 21)"
    assert err.value.witness is None
    # refused before any table of 2^n entries is built
    assert peak < 64 * 1024, peak


def test_moment_map_invariants_on_random_params():
    rng = random.Random(71)
    for _ in range(60):
        n, k = rng.randint(0, 5), rng.randint(1, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        params = MixtureParams(m, random_distribution(rng, k))
        built = moment_map(params)
        # moment_map does not check what it built; the check must pass
        _check_moments(n, built.nums, built.dens)
        moments = moment_values(built)
        assert moments[0] == 1
        for mask in range(1 << n):
            assert 0 <= moments[mask] <= 1


@st.composite
def pool_mixtures(draw):
    """Mixtures with n 0-8, k 1-5 and entries from PROB_POOL, which holds 0
    and 1, and weights with zeros: moment tables full of ties."""
    n, k = draw(st.integers(0, 8)), draw(st.integers(1, 5))
    rows = [[draw(st.sampled_from(PROB_POOL)) for _ in range(k)] for _ in range(n)]
    raw = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    return MixtureParams(RMatrix.from_rows(rows, k), tuple(Fraction(w, sum(raw)) for w in raw))


@settings(deadline=None, max_examples=150)
@given(pool_mixtures())
def test_moment_map_builds_what_the_check_accepts(params):
    # the proof in moment_map's docstring: its unchecked tables pass every
    # check of _check_moments and are in lowest terms
    built = moment_map(params)
    n = params.m.n_rows
    assert built.n == n
    _check_moments(n, built.nums, built.dens)
    assert all(math.gcd(num, den) == 1 for num, den in zip(built.nums, built.dens))
    assert MomentVector(n, built.nums, built.dens) == built


def test_only_the_public_builders_run_the_moment_check(monkeypatch):
    rng = random.Random(79)
    params = MixtureParams(random_matrix(rng, 6, 3, PROB_POOL), random_distribution(rng, 3))
    calls = Counter()
    fault = mixture._first_moment_fault

    def counted(*args):
        calls["check"] += 1
        return fault(*args)

    monkeypatch.setattr(mixture, "_first_moment_fault", counted)
    built = moment_map(params)
    assert calls["check"] == 0
    assert MomentVector.from_json_obj(built.to_json_obj()) == built
    assert calls["check"] == 1
    assert MomentVector(built.n, built.nums, built.dens) == built
    assert calls["check"] == 2


def test_the_constructor_reduces_to_lowest_terms():
    scaled = MomentVector(1, (2, 1), (2, 2))
    assert (scaled.nums, scaled.dens) == ((1, 1), (1, 2))
    assert scaled == MomentVector(1, (1, 1), (1, 2))
    assert scaled.to_json_obj() == {"n": 1, "moments": {"0": 1, "1": "1/2"}}
    zero = MomentVector(1, [3, 0], [3, 7])
    assert (zero.nums, zero.dens) == ((1, 0), (1, 1))
    # the check reads the raw tables, so messages name the integers given
    with pytest.raises(DomainError) as err:
        MomentVector(1, (2, 0), (2, -4))
    assert (str(err.value), err.value.witness) == (
        "moment denominator -4 for mask 1 is not positive", {"subset_mask": 1})


def test_moment_map_multilinear_in_weights():
    rng = random.Random(73)
    for _ in range(40):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        pi_a = random_distribution(rng, k)
        pi_b = random_distribution(rng, k)
        a = Fraction(rng.randint(0, 4), 4)
        blended = tuple(a * x + (1 - a) * y for x, y in zip(pi_a, pi_b))
        left = moment_values(moment_map(MixtureParams(m, blended)))
        right_a = moment_values(moment_map(MixtureParams(m, pi_a)))
        right_b = moment_values(moment_map(MixtureParams(m, pi_b)))
        for mask in range(1 << n):
            assert left[mask] == a * right_a[mask] + (1 - a) * right_b[mask]


# ---------------------------------------------------------------------------
# separation and the gate


def test_is_separated_examples():
    m = RMatrix.from_rows([[0, 1, 2], [HALF, HALF, 1]])
    assert is_separated(m, 0)
    assert not is_separated(m, 1)
    hamming_row = RMatrix.from_rows([[1, -1, 1, -1]])
    assert not is_separated(hamming_row, 0)
    # a value repeated as equal Fractions, and as an int beside a Fraction
    assert not is_separated(RMatrix.from_rows([[3, "6/2", HALF]]), 0)
    assert not is_separated(RMatrix(1, 3, ((1, Fraction(1), HALF),)), 0)
    assert is_separated(RMatrix(1, 3, ((1, Fraction(2), HALF),)), 0)
    with pytest.raises(DomainError):
        is_separated(m, 2)


def test_gate_examples():
    dup = RMatrix.from_rows([[1, 1, 2], [1, 1, 3]])
    report = identifiability_gate(dup)
    assert not report.full_rank and report.certificate is None
    assert report.extension_rank < 3

    vandermonde = RMatrix.from_rows([[0, 1, 2]] * 3)
    report = identifiability_gate(vandermonde)
    assert report.full_rank
    assert report.certificate == SubsetIndex.from_members(3, [0, 1])
    assert report.separated_count == 3
    assert report.separated_needed == 5

    hamming = RMatrix.from_rows([[1, -1, 1, -1], [1, 1, -1, -1]])
    report = identifiability_gate(hamming)
    assert report.full_rank
    assert report.separated_count == 0


# ---------------------------------------------------------------------------
# recovery


def test_recover_pi_examples():
    m = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)]])
    even = moment_vector(1, {0: Fraction(1), 1: HALF})
    assert recover_pi(m, even) == (HALF, HALF)
    skew = moment_vector(1, {0: Fraction(1), 1: Fraction(7, 12)})
    assert recover_pi(m, skew) == (Fraction(1, 3), Fraction(2, 3))


def test_recover_pi_roundtrip_random():
    rng = random.Random(79)
    hits = 0
    while hits < 60:
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        if not identifiability_gate(m).full_rank:
            continue
        pi = random_distribution(rng, k)
        moments = moment_map(MixtureParams(m, pi))
        assert recover_pi(m, moments) == pi
        hits += 1


def test_recover_pi_rank_precondition():
    dup = RMatrix.from_rows([[HALF, HALF]])
    moments = moment_vector(1, {0: Fraction(1), 1: HALF})
    with pytest.raises(DomainError) as err:
        recover_pi(dup, moments)
    assert err.value.witness == {"extension_rank": 1}


def test_recover_pi_detects_inconsistent_moments():
    m = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)], [HALF, Fraction(1, 4)]])
    pi = (Fraction(1, 3), Fraction(2, 3))
    values = moment_values(moment_map(MixtureParams(m, pi)))
    values[0b11] = values[0b11] / 2  # stays monotone but leaves the image
    with pytest.raises(DomainError, match="inconsistent"):
        recover_pi(m, moment_vector(2, values))


def test_recover_pi_moment_size_mismatch():
    m = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)]])
    moments = moment_vector(2, {0: Fraction(1), 1: HALF, 2: HALF, 3: Fraction(1, 4)})
    with pytest.raises(DomainError):
        recover_pi(m, moments)


def test_duplicate_columns_make_weights_swappable():
    rng = random.Random(83)
    for _ in range(20):
        n, k = rng.randint(1, 4), rng.randint(2, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        j = rng.randrange(k - 1)
        rows = [list(row) for row in m.entries]
        for row in rows:
            row[j + 1] = row[j]
        dup = RMatrix.from_rows(rows, k)
        pi = random_distribution(rng, k)
        swapped = list(pi)
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        first = moment_map(MixtureParams(dup, pi))
        second = moment_map(MixtureParams(dup, tuple(swapped)))
        assert first == second


# ---------------------------------------------------------------------------
# the integer moment path against the Fraction references

# PROB_POOL holds 0 and 1; the rest have large coprime denominators
entries = st.sampled_from(
    PROB_POOL + [Fraction(1, 10007), Fraction(5003, 10009), Fraction(65535, 65537),
                 Fraction(2**61 - 2, 2**61 - 1)]
)


@st.composite
def mixtures(draw):
    n, k = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(k)] for _ in range(n)]
    raw = draw(st.lists(st.one_of(st.just(0), st.integers(1, 2**40)),
                        min_size=k, max_size=k).filter(any))
    return MixtureParams(RMatrix.from_rows(rows, k), tuple(Fraction(w, sum(raw)) for w in raw))


def perturbed(values, mask, data):
    """values with the moment of `mask` nudged, scaled or pushed outside [0, 1]."""
    changed = dict(values)
    changed[mask] = data.draw(st.one_of(
        st.sampled_from([Fraction(1, 10007), Fraction(1, 2**61 - 1), Fraction(1, 7)])
        .flatmap(lambda d: st.sampled_from([values[mask] + d, values[mask] - d])),
        st.sampled_from([values[mask] * Fraction(6, 7), values[mask] * Fraction(8, 7)]),
        st.sampled_from([Fraction(-1, 3), Fraction(4, 3), Fraction(2)]),
    ))
    return changed


moment_oracle = settings(deadline=None, max_examples=80)


@moment_oracle
@given(mixtures())
def test_moment_map_matches_fraction_references(params):
    m, pi = params.m, params.pi
    values = moment_values(moment_map(params))
    assert values == forward_moments_reference(m, pi)
    for mask in range(1 << m.n_rows):
        members = [row for i, row in enumerate(m.entries) if mask >> i & 1]
        assert values[mask] == sum(
            p * math.prod((row[j] for row in members), start=Fraction(1))
            for j, p in enumerate(pi)
        )


@moment_oracle
@given(mixtures(), st.data())
def test_perturbed_moments_fail_like_the_fraction_references(params, data):
    m, n = params.m, params.m.n_rows
    mask = data.draw(st.integers(0, (1 << n) - 1))
    values = perturbed(moment_values(moment_map(params)), mask, data)
    expected = moment_checks_reference(n, values)
    try:
        moments = moment_vector(n, values)
    except DomainError as exc:
        assert (str(exc), exc.witness) == expected
        return
    assert expected is None
    if not identifiability_gate(m).full_rank:
        return
    # recover_pi verifies the weights it solved for against every moment;
    # the empty-set row is in its system, so they sum to moments[0] = 1
    try:
        got, error = recover_pi(m, moments), None
    except DomainError as exc:
        got, error = None, exc
    pi = solve_pi_reference(m, moments)
    forward = forward_moments_reference(m, pi)
    mismatches = [mask for mask in range(1 << n) if forward[mask] != values[mask]]
    if mismatches:
        assert error is not None and error.witness == {"subset_mask": mismatches[0]}
        assert str(error) == "moments are inconsistent with every weight vector"
    else:
        assert got == tuple(pi)


@moment_oracle
@given(mixtures(), st.data())
def test_recover_pi_matches_the_fraction_reference(params, data):
    m, pi = params.m, params.pi
    if m.n_rows and data.draw(st.booleans()):
        # with 1 - row 0 as row 1, the extension row of {1} lies in
        # span{1, row 0}: the solve must skip it
        first = m.entries[0]
        m = RMatrix.from_rows([first, [1 - x for x in first], *m.entries[1:]], m.n_cols)
    n = m.n_rows
    values = moment_values(moment_map(MixtureParams(m, pi)))
    perturb = data.draw(st.booleans())
    if perturb:
        values = perturbed(values, data.draw(st.integers(0, (1 << n) - 1)), data)
    if moment_checks_reference(n, values) is not None:
        return
    moments = moment_vector(n, values)
    outcomes = []
    for solve in (recover_pi, recover_pi_reference):
        try:
            outcomes.append(solve(m, moments))
        except DomainError as exc:
            outcomes.append((str(exc), exc.witness))
    assert outcomes[0] == outcomes[1]
    if not perturb and identifiability_gate(m).full_rank:
        assert outcomes[0] == pi


@pytest.mark.parametrize("n, k", [(10, 4), (8, 6), (12, 5)])
def test_recover_pi_builds_at_most_3k_fractions(n, k, monkeypatch):
    rng = random.Random(101 * n + k)
    m = random_matrix(rng, n, k, PROB_POOL)
    while not identifiability_gate(m).full_rank:
        m = random_matrix(rng, n, k, PROB_POOL)
    pi = random_distribution(rng, k)
    moments = moment_map(MixtureParams(m, pi))
    built = Counter()
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built["Fraction"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    recovered = recover_pi(m, moments)
    monkeypatch.undo()
    # the weights and their running sum, 2k + 1 in all
    assert built["Fraction"] <= 3 * k, built
    assert recovered == pi


def block_size(n):
    """Masks per block of `_moment_blocks`: 32 (all 2^n if fewer) below
    n = 12, 2^(n // 2) from there on."""
    return 1 << min(n, max(5, n // 2))


@st.composite
def block_walks(draw):
    """(m, pi, first): n = 0-13 rows, k = 0-5 columns of `entries` (0 and
    1 among them), weights, and a mask at a block start, in mid-block or
    the last mask."""
    n, k = draw(st.integers(0, 13)), draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(k)] for _ in range(n)]
    raw = draw(st.lists(st.integers(0, 2**40), min_size=k, max_size=k))
    pi = tuple(Fraction(w, sum(raw) or 1) for w in raw)
    size = block_size(n)
    start = draw(st.integers(0, (1 << n) // size - 1)) * size
    first = draw(st.sampled_from([start, start + size // 2, (1 << n) - 1]))
    return RMatrix.from_rows(rows, k), pi, first


def wide_walk(n, k, first):
    rng = random.Random(n)
    return random_matrix(rng, n, k, PROB_POOL), random_distribution(rng, k), first


@settings(deadline=None, max_examples=150)
@given(block_walks())
@example(wide_walk(14, 4, 3 << 7))
@example(wide_walk(15, 5, (5 << 7) + 77))
@example(wide_walk(16, 3, (1 << 16) - 1))
def test_the_moment_blocks_join_into_the_forward_moments(walk):
    m, pi, first = walk
    n, size = m.n_rows, block_size(m.n_rows)
    start = first // size * size
    nums, dens = mixture._forward_moments(m, pi)
    blocks = list(mixture._moment_blocks(m, pi, first))
    assert [base for base, _, _ in blocks] == list(range(start, 1 << n, size))
    assert all(len(block_nums) == len(block_dens) == size for _, block_nums, block_dens in blocks)
    assert [num for _, block_nums, _ in blocks for num in block_nums] == nums[start:]
    assert [den for _, _, block_dens in blocks for den in block_dens] == dens[start:]


def test_recover_pi_peaks_at_a_few_blocks():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_ladder", Path(__file__).resolve().parents[1] / "benchmarks" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    x = ladder.mixture(9, 16)
    recover_pi(x.params.m, x.moments)  # the first call's own allocations
    tracemalloc.start()
    try:
        pi = recover_pi(x.params.m, x.moments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pi == x.params.pi
    # 0.12 MiB on CPython 3.11 with 256-mask blocks; 32-mask blocks kept
    # 2^11 high rows and peaked at 0.27 MiB
    assert peak < 0.2 * 2**20, peak


def test_moment_map_does_no_fraction_arithmetic_per_mask(monkeypatch):
    rng = random.Random(89)
    n, k = 10, 4
    params = MixtureParams(random_matrix(rng, n, k, PROB_POOL), random_distribution(rng, k))
    calls = Counter()
    for name in ("__add__", "__radd__", "__mul__"):
        def counted(self, other, _op=getattr(Fraction, name), _name=name):
            calls[_name] += 1
            return _op(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    moments = moment_map(params)
    monkeypatch.undo()
    # the Fraction recursion made about 2 * k * 2^n of these calls
    assert sum(calls.values()) < 10 * n * k, calls
    assert moment_values(moments) == forward_moments_reference(params.m, params.pi)


def test_moment_commands_build_no_fraction_per_mask(monkeypatch):
    rng = random.Random(97)
    n, k = 10, 4
    m = random_matrix(rng, n, k, PROB_POOL)
    assert identifiability_gate(m).full_rank
    pi = random_distribution(rng, k)
    params = {"m": matrix_to_json(m), "pi": [rational_to_json(p) for p in pi]}
    built = Counter()
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def run(argv, payload):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, io.StringIO(json.dumps(payload)), out, err) == 0, err.getvalue()
        return json.loads(out.getvalue())

    monkeypatch.setattr(Fraction, "__new__", counted)
    moments = run(["moments"], params)
    recovered = run(["recover-pi"], {"m": params["m"], "moments": moments})
    monkeypatch.undo()
    # one Fraction per mask and direction was 2 * 2^n = 2048 of them; what
    # is left is the matrix, the weights and the k x k solve
    assert built["Fraction"] < 10 * (n * k + k * k), built
    assert recovered == {"pi": params["pi"]}
    assert moments["moments"] == {
        str(mask): rational_to_json(value)
        for mask, value in forward_moments_reference(m, pi).items()
    }


@moment_oracle
@given(mixtures(), st.data())
def test_both_moment_builders_write_tables_in_lowest_terms(params, data):
    # moment_map divides by the gcds, and rational_pair reads each entry
    # in lowest terms; neither is reduced again
    built = moment_map(params)
    scale = data.draw(st.integers(1, 10**6))
    document = {
        str(mask): q.numerator if q.denominator == 1 and data.draw(st.booleans())
        else f"{scale * q.numerator}/{scale * q.denominator}"
        for mask, q in moment_values(built).items()
    }
    parsed = MomentVector.from_json_obj({"n": built.n, "moments": document})
    for moments in (built, parsed):
        assert all(b > 0 and math.gcd(a, b) == 1 for a, b in zip(moments.nums, moments.dens))
    assert parsed == built


@moment_oracle
@given(mixtures(), st.data())
def test_moment_json_codec_matches_the_fraction_reference(params, data):
    n = params.m.n_rows
    values = moment_values(moment_map(params))
    if data.draw(st.booleans()):
        values = perturbed(values, data.draw(st.integers(0, (1 << n) - 1)), data)
    reference = {str(mask): rational_to_json(value) for mask, value in values.items()}
    # the masks may come in any order in a document
    shuffled = dict(data.draw(st.permutations(list(reference.items()))))
    expected = moment_checks_reference(n, values)
    try:
        moments = MomentVector.from_json_obj({"n": n, "moments": shuffled})
    except DomainError as exc:
        assert (str(exc), exc.witness) == expected
        return
    assert expected is None
    assert moments == moment_vector(n, values)
    obj = moments.to_json_obj()
    assert obj == {"n": n, "moments": reference}
    assert list(obj["moments"]) == [str(mask) for mask in range(1 << n)]
    assert MomentVector.from_json_obj(obj) == moments


# ---------------------------------------------------------------------------
# the bulk moment check: floats settle strict decreases, integers the rest


def near(value):
    """1/(b 2^70) for value = a/b: a step no float tells from a/b."""
    return Fraction(1, Fraction(value).denominator * 2**70)


@st.composite
def moment_tables(draw):
    """(n, values, scales) for a moment table built mask by mask from the
    smallest moment one member smaller: an exact tie, a near-tie below, a
    moment that is subnormal or underflows to 0.0 as a float, or a plain
    drop. Then one mask may be nudged by a near-tie either way, or set a
    near-tie above its smallest subset. scales[mask] multiplies both
    integers of the mask, so most tables are not in lowest terms."""
    n = draw(st.integers(0, 6))
    values = {0: Fraction(1)}
    below = {}
    for mask in range(1, 1 << n):
        parent = below[mask] = min(values[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        step = draw(st.sampled_from(["tie", "near", "subnormal", "underflow", "drop"]))
        if step == "tie":
            values[mask] = parent
        elif step == "near":
            values[mask] = max(parent - near(parent), Fraction(0))
        elif step == "subnormal":  # 2^-1074 <= value < 2^-1022
            values[mask] = min(parent, Fraction(draw(st.integers(1, 7)), 2**1060))
        elif step == "underflow":  # rounds to 0.0
            values[mask] = min(parent, Fraction(draw(st.integers(1, 7)),
                                                2**1100 + draw(st.integers(0, 3))))
        else:
            values[mask] = parent * draw(st.sampled_from([0, HALF, Fraction(6, 7)]))
    if n and draw(st.booleans()):
        mask = draw(st.integers(1, (1 << n) - 1))
        value = values[mask]
        values[mask] = draw(st.sampled_from([
            value + near(value), value - near(value), below[mask] + near(below[mask])]))
    scales = draw(st.lists(st.sampled_from([1, 2, 3**40]), min_size=1 << n, max_size=1 << n))
    return n, values, scales


@settings(deadline=None, max_examples=150)
@given(moment_tables())
def test_bulk_moment_check_matches_the_fraction_reference(table):
    n, values, scales = table
    expected = moment_checks_reference(n, values)
    nums = tuple(values[mask].numerator * c for mask, c in enumerate(scales))
    dens = tuple(values[mask].denominator * c for mask, c in enumerate(scales))
    try:
        moments = MomentVector(n, nums, dens)
    except DomainError as exc:
        assert (str(exc), exc.witness) == expected
        return
    assert expected is None
    assert moment_values(moments) == values


def as_tables(values):
    """(nums, dens) of a list of moments, one per mask."""
    fractions = list(map(Fraction, values))
    return [q.numerator for q in fractions], [q.denominator for q in fractions]


def high_bit_rise_below_bit_0_rise():
    # bit 0 finds 7 above 6 first; bit 2 finds the smaller 6 above 2 last
    values = [1, HALF, Fraction(1, 4), Fraction(1, 4), HALF, Fraction(1, 4), HALF, Fraction(3, 4)]
    return 3, *as_tables(values), moment_checks_reference(3, dict(enumerate(values)))


def range_fault_below_rises():
    # 3 rises above the negative moment of 2; 5 rises above 1 and 4
    values = [1, HALF, Fraction(-1, 3), Fraction(1, 4), HALF, Fraction(3, 4), HALF, Fraction(1, 4)]
    return 3, *as_tables(values), moment_checks_reference(3, dict(enumerate(values)))


def rise_below_zero_denominator():
    # 3 rises above 2; mask 4 has denominator 0
    nums, dens = [1, 1, 1, 1, 0, 0, 0, 0], [1, 2, 4, 2, 0, 1, 1, 1]
    return 3, nums, dens, ("moments must not increase on supersets", {"subset_mask": 3})


def negative_denominator_below_rises():
    # mask 2 has denominator -2; 3 rises above 1, 5 above 4
    nums, dens = [1, 1, 1, 1, 1, 1, 0, 0], [1, 4, -2, 2, 4, 2, 1, 1]
    return 3, nums, dens, ("moment denominator -2 for mask 2 is not positive",
                           {"subset_mask": 2})


def near_tie_rises_at_n_11():
    # the fourth table drawn from seed 103, full of exact ties (PROB_POOL
    # holds 0 and 1), with near-tie rises at 2047 above 1023 and at 2046
    # above 1022
    rng = random.Random(103)
    for n, k in [(0, 1), (4, 2), (8, 3), (11, 4)]:
        params = MixtureParams(random_matrix(rng, n, k, PROB_POOL), random_distribution(rng, k))
    values = moment_values(moment_map(params))
    for mask in (2047, 2046):
        values[mask] = values[mask - 1024] + near(values[mask - 1024])
    nums, dens = as_tables(values[mask] for mask in range(1 << 11))
    return 11, nums, dens, moment_checks_reference(11, values)


@pytest.mark.parametrize("table", [
    high_bit_rise_below_bit_0_rise,
    range_fault_below_rises,
    rise_below_zero_denominator,
    negative_denominator_below_rises,
    near_tie_rises_at_n_11,
])
def test_the_check_names_the_first_of_several_faults(table):
    n, nums, dens, expected = table()
    with pytest.raises(DomainError) as err:
        MomentVector(n, tuple(nums), tuple(dens))
    assert (str(err.value), err.value.witness) == expected
