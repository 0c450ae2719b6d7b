"""Seeded job lists for the four benchmark workloads.

A job is one `hadamix <command>` invocation: its argv, its stdin text and
the data the oracle needs to check the answer. Sizes are stratified: each
workload cycles through fixed size classes and only the entries come from
the seed, so every seed yields the same size distribution and the same
number of jobs per class. Nothing here imports hadamix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from oracle import eps_bar_brute, extension_rank, matrix_json, moments_direct, q_json


@dataclass(frozen=True)
class Job:
    kind: str  # oracle dispatch key
    argv: tuple[str, ...]
    stdin: str
    ref: dict  # generating data for the oracle


def _job(kind: str, argv: list[str], payload: object, **ref) -> Job:
    return Job(kind, tuple(argv), json.dumps(payload), ref)


# ---------------------------------------------------------------------------
# matrix families


def _rational(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _random_matrix(rng: random.Random, n: int, k: int) -> list[list[Fraction]]:
    return [[_rational(rng) for _ in range(k)] for _ in range(n)]


def _distinct_row(rng: random.Random, k: int) -> list[Fraction]:
    """k distinct rationals; entry j has denominator 1 + j % 4, so the cost of
    hashing and multiplying them does not depend on the seed."""
    values: list[Fraction] = []
    while len(values) < k:
        q = Fraction(rng.randint(-9, 9) * 4 + 1, 1 + len(values) % 4)
        if q not in values:
            values.append(q)
    return values


def _vandermonde(rng: random.Random, k: int, copies: int) -> list[list[Fraction]]:
    row = _distinct_row(rng, k)
    return [list(row) for _ in range(copies)]


def _stairstep(k: int) -> list[list[Fraction]]:
    return [
        [Fraction(1) if i < j else Fraction(1, 2) for j in range(k)]
        for i in range(k - 1)
    ]


def _hamming(l: int) -> list[list[Fraction]]:
    return [
        [Fraction(-1 if (j >> i) & 1 else 1) for j in range(1 << l)]
        for i in range(l)
    ]


def _duplicated_columns(
    rng: random.Random, n: int, k: int, dups: int
) -> list[list[Fraction]]:
    """n x k matrix in which `dups` columns repeat other columns."""
    base = _random_matrix(rng, n, k - dups)
    cols = list(range(k - dups)) + [rng.randrange(k - dups) for _ in range(dups)]
    rng.shuffle(cols)
    return [[row[c] for c in cols] for row in base]


# ---------------------------------------------------------------------------
# certify: extension rank and row certificates


def certify_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"certify-{seed}")
    jobs: list[Job] = []

    def add(kind: str, rows: list[list[Fraction]]) -> None:
        argv = ["minrows", "--exhaustive"] if kind == "exhaustive" else [kind]
        jobs.append(_job(kind, argv, matrix_json(rows), m=rows))

    # random small-denominator rationals, n 6-12 and k 4-16 paired so that
    # every n and every even k occurs
    for i in range(28):
        n, k = 6 + i % 7, 4 + 2 * ((3 * i) % 7)
        add("rank" if i % 2 == 0 else "minrows", _random_matrix(rng, n, k))
        add("minrows" if i % 2 == 0 else "rank", _random_matrix(rng, n, k))
    for k in (4, 6, 8, 10, 12, 14):
        rows = _vandermonde(rng, k, k - 1)
        add("rank", rows)
        add("minrows", rows)
        add("rank", _stairstep(k))
        add("minrows", _stairstep(k))
    for l in (2, 3, 4, 5):
        add("rank", _hamming(l))
        add("minrows", _hamming(l))
    # duplicated columns: the greedy probes every remaining row before
    # reporting NotFullRank
    for i in range(12):
        n, k = 6 + i % 7, 6 + (5 * i) % 11
        rows = _duplicated_columns(rng, n, k, 1 + i % 3)
        add("rank" if i % 2 == 0 else "minrows", rows)
    for n, k in ((6, 4), (7, 4), (7, 5), (8, 4), (8, 5), (6, 5)):
        add("exhaustive", _random_matrix(rng, n, k))
    for n, k in ((5, 4), (6, 6), (7, 5), (8, 8)):
        add("hadext", _random_matrix(rng, n, k))
    return jobs


# ---------------------------------------------------------------------------
# mixture: forward moments and weight recovery


def _identifiable_probabilities(rng: random.Random, n: int, k: int) -> list[list[Fraction]]:
    """Entries a/d in (0, 1); d follows a fixed pattern, a comes from the seed."""
    while True:
        rows = [
            [Fraction(rng.randint(1, d - 1), d) for d in (2 + (i + 3 * j) % 7 for j in range(k))]
            for i in range(n)
        ]
        if extension_rank(rows) == k:
            return rows


def _weights(rng: random.Random, k: int) -> list[Fraction]:
    """Positive weights with denominator 12: a random composition of 12."""
    cuts = sorted(rng.sample(range(1, 12), k - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, 12])]
    return [Fraction(p, 12) for p in parts]


def mixture_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"mixture-{seed}")
    jobs: list[Job] = []
    # work doubles with each observable, so larger n gets fewer jobs
    for n, count in ((6, 40), (7, 26), (8, 18), (9, 12), (10, 8), (11, 5), (12, 3)):
        for i in range(count):
            k = 2 + (i + n) % 5
            rows = _identifiable_probabilities(rng, n, k)
            pi = _weights(rng, k)
            if i % 2 == 0:
                jobs.append(_job(
                    "moments", ["moments"],
                    {"m": matrix_json(rows), "pi": [q_json(p) for p in pi]},
                    m=rows, pi=pi,
                ))
                continue
            moments = moments_direct(rows, pi)
            # every fourth recover-pi job gets an inconsistent moment vector:
            # the all-rows moment shrinks, which keeps the vector monotone
            inconsistent = (i // 2) % 4 == 3
            if inconsistent:
                full = (1 << n) - 1
                moments[full] = moments[full] * Fraction(6, 7)
            payload = {
                "m": matrix_json(rows),
                "moments": {
                    "n": n,
                    "moments": {str(mask): q_json(v) for mask, v in enumerate(moments)},
                },
            }
            jobs.append(_job(
                "recover-pi", ["recover-pi"], payload,
                m=rows, pi=pi, inconsistent=inconsistent,
            ))
    return jobs


# ---------------------------------------------------------------------------
# nae: deficiency checks and (k-1)-row restrictions


def _colour_matrix(
    rng: random.Random, n: int, k: int, want_nae: bool
) -> list[list[Fraction]]:
    """Random four-colour matrix that satisfies NAE exactly when want_nae.

    A repeated column makes eps_bar <= -2, so a failing matrix gets one.
    """
    while True:
        rows = [[Fraction(rng.randrange(4)) for _ in range(k)] for _ in range(n)]
        if not want_nae:
            a, b = rng.sample(range(k), 2)
            for row in rows:
                row[b] = row[a]
        if (eps_bar_brute(rows)[0] >= -1) == want_nae:
            return rows


def _cols_arg(rng: random.Random, k: int) -> str:
    width = rng.randint(1, k)
    return ",".join(str(c + 1) for c in sorted(rng.sample(range(k), width)))


def nae_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"nae-{seed}")
    jobs: list[Job] = []

    def add(cmd: str, rows: list[list[Fraction]]) -> None:
        jobs.append(_job(cmd, [cmd], matrix_json(rows), m=rows))

    def add_eps(rows: list[list[Fraction]]) -> None:
        cols = _cols_arg(rng, len(rows[0]))
        jobs.append(_job("eps", ["eps", "--cols", cols], matrix_json(rows), m=rows, cols=cols))

    # Vandermonde copies: identical rows, so nae_restrict revisits the
    # same subproblems many times
    for i in range(24):
        k = 4 + i % 4
        rows = _vandermonde(rng, k, k - 1 + (i // 4) % 3)
        add("nae-check", rows)
        add_eps(rows)
        add("nae-restrict", rows)
    # stairsteps: n = k-1, so nae_restrict needs no recursion
    for k in range(4, 16):
        add("nae-check", _stairstep(k))
        add_eps(_stairstep(k))
        add("nae-restrict", _stairstep(k))
    # random few-colour matrices, half of which fail NAE and are refused
    for i in range(24):
        k = 5 + i % 2
        n = k - 1 + (i // 2) % 2
        want_nae = i % 2 == 0
        rows = _colour_matrix(rng, n, k, want_nae)
        add("nae-check", rows)
        add_eps(rows)
        add("nae-restrict", rows)
    return jobs


# ---------------------------------------------------------------------------
# subspace: partitions, projectors and invariance


def _partition_vector(rng: random.Random, k: int) -> list[Fraction]:
    values = _distinct_row(rng, rng.randint(2, 6))
    v = [values[j % len(values)] for j in range(k)]
    rng.shuffle(v)
    return v


def _respecting_basis(
    rng: random.Random, v: list[Fraction], r: int
) -> list[list[Fraction]]:
    """r vectors spanning a sum of block-supported vectors.

    Each generator lives on one block; a unitriangular mix of them keeps
    the span while making every basis vector dense.
    """
    k = len(v)
    gens = []
    for _ in range(r):
        value = v[rng.randrange(k)]
        gens.append([_rational(rng, 5, 3) if x == value else Fraction(0) for x in v])
    basis = []
    for i, g in enumerate(gens):
        row = list(g)
        for h in gens[i + 1:]:
            c = Fraction(rng.randint(-2, 2))
            row = [a + c * b for a, b in zip(row, h)]
        basis.append(row)
    return basis


def subspace_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"subspace-{seed}")
    jobs: list[Job] = []
    for i in range(48):
        k, j = 8 + 8 * (i % 6), i // 6
        v = _partition_vector(rng, k)
        v_json = [q_json(x) for x in v]
        r = 1 + j % max(1, k // 3)
        # every k gets four respecting and four generic bases, of mixed sizes
        if (j + j // 2) % 2 == 0:
            basis = _respecting_basis(rng, v, r)
        else:
            basis = [[_rational(rng, 3, 3) for _ in range(k)] for _ in range(r)]
        jobs.append(_job(
            "invariant", ["invariant"],
            {"basis": matrix_json(basis), "v": v_json}, basis=basis, v=v,
        ))
        n_blocks = len(set(v))
        block = 1 + i % n_blocks
        jobs.append(_job(
            "project", ["project", "--block", str(block)],
            {"v": v_json}, v=v, block=block,
        ))
        jobs.append(_job("blocks", ["blocks"], {"v": v_json}, v=v))
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "certify": certify_jobs,
    "mixture": mixture_jobs,
    "nae": nae_jobs,
    "subspace": subspace_jobs,
}
