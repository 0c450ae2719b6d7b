import random
from fractions import Fraction

import pytest

from conftest import PROB_POOL, random_matrix
from hadamix import (
    DomainError,
    InputFormatError,
    MixtureParams,
    MomentVector,
    RMatrix,
    SubsetIndex,
    identifiability_gate,
    is_separated,
    moment_map,
    recover_pi,
)

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


def test_moment_vector_validation():
    MomentVector(1, {0: Fraction(1), 1: HALF})
    with pytest.raises(DomainError):
        MomentVector(1, {0: Fraction(1)})
    with pytest.raises(DomainError):
        MomentVector(1, {0: HALF, 1: HALF})
    with pytest.raises(DomainError):
        MomentVector(1, {0: Fraction(1), 1: Fraction(2)})
    with pytest.raises(DomainError):
        # increases on a superset
        MomentVector(2, {0: Fraction(1), 1: HALF, 2: HALF, 3: Fraction(3, 4)})
    with pytest.raises(DomainError):
        MomentVector(21, {})


def test_moment_vector_json_roundtrip():
    vec = MomentVector(1, {0: Fraction(1), 1: Fraction(7, 12)})
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


# ---------------------------------------------------------------------------
# forward map


def test_moment_map_examples():
    m = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)]])
    even = moment_map(MixtureParams(m, (HALF, HALF)))
    assert even[0] == 1
    assert even[1] == HALF
    skew = moment_map(MixtureParams(m, (Fraction(1, 3), Fraction(2, 3))))
    assert skew[1] == Fraction(7, 12)


def test_moment_map_invariants_on_random_params():
    rng = random.Random(71)
    for _ in range(60):
        n, k = rng.randint(0, 5), rng.randint(1, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        params = MixtureParams(m, random_distribution(rng, k))
        moments = moment_map(params)  # constructor re-checks all invariants
        assert moments[0] == 1
        for mask in range(1 << n):
            assert 0 <= moments[mask] <= 1


def test_moment_map_multilinear_in_weights():
    rng = random.Random(73)
    for _ in range(40):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, n, k, PROB_POOL)
        pi_a = random_distribution(rng, k)
        pi_b = random_distribution(rng, k)
        a = Fraction(rng.randint(0, 4), 4)
        blended = tuple(a * x + (1 - a) * y for x, y in zip(pi_a, pi_b))
        left = moment_map(MixtureParams(m, blended))
        right_a = moment_map(MixtureParams(m, pi_a))
        right_b = moment_map(MixtureParams(m, pi_b))
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
    even = MomentVector(1, {0: Fraction(1), 1: HALF})
    assert recover_pi(m, even) == (HALF, HALF)
    skew = MomentVector(1, {0: Fraction(1), 1: Fraction(7, 12)})
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
    moments = MomentVector(1, {0: Fraction(1), 1: HALF})
    with pytest.raises(DomainError) as err:
        recover_pi(dup, moments)
    assert err.value.witness == {"extension_rank": 1}


def test_recover_pi_detects_inconsistent_moments():
    m = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)], [HALF, Fraction(1, 4)]])
    pi = (Fraction(1, 3), Fraction(2, 3))
    values = dict(moment_map(MixtureParams(m, pi)).values)
    values[0b11] = values[0b11] / 2  # stays monotone but leaves the image
    with pytest.raises(DomainError, match="inconsistent"):
        recover_pi(m, MomentVector(2, values))


def test_recover_pi_moment_size_mismatch():
    m = RMatrix.from_rows([[Fraction(1, 4), Fraction(3, 4)]])
    moments = MomentVector(2, {0: Fraction(1), 1: HALF, 2: HALF, 3: Fraction(1, 4)})
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
