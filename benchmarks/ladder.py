"""Kernel ladder: the extension, nae, mixture and projector kernels timed
on fixed seeded inputs.

    PYTHONPATH=src python3 benchmarks/ladder.py

Times `greedy_min_rows`, `full_extension_rank`, `exhaustive_min_rows`,
`hadamard_extension`, `eps_bar`, `nae_rows`, `nae_restrict`,
`exhaustive_nae_restrict`, `moment_map`, the moment check (the row
"MomentVector check" calls `_check_moments`, which the public
`MomentVector` constructor and `from_json_obj` run),
`MomentVector.from_json_obj` (with `json.loads`), `recover_pi`,
`lagrange_projection`, `blocks_of`, `respects` and `matrix_from_json` (on
three parsed matrix documents, so that the reader is timed as a layer of
its own) on the inputs of CASES,
`hadamix recover-pi` on three n = 12 moment documents (one in the form
`hadamix moments` writes, checked as text; the same moments in non-lowest
terms, read whole; an inconsistent one, checked as text up to its full
mask, then read whole and refused),
and `cli.main` (its answer is the stdout) on tiny documents, which shows
what an invocation pays besides its kernel, on the 2^n-entry documents
of `moments`, `recover-pi` and `hadext` (the last at n = 8, 12 and 14,
which times the product per entry of its two half tables), on the k x k
projector that `project` prints at k = 62, and on `invariant` with a
16 x 48 basis, the
subspace workload's heaviest command, best of REPEATS runs, and writes the
times with a digest of each answer to BENCH_<n>.json in the current
directory, n being the first unused run number. Each run is bracketed by a fixed pure-Python calibration loop, as
in `clibench/run.py`, and its time is scaled by CALIBRATION_REFERENCE_S
over the mean of the two calibration times, so that runs on a host whose
speed drifts compare; each result records the raw and the scaled seconds
of its best run and that run's calibration. A kernel that refuses its input with
a DomainError is timed too, and its answer is recorded as
"refused: <message>". Pointing PYTHONPATH at another checkout's src times
that code on the same inputs, and equal answers show that both gave the
same results; `benchmarks/compare.py` does this in alternating rounds.
The whole ladder runs in about a minute; the tests build its cases but
time nothing.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import random
import sys
import time
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import NamedTuple

from hadamix import (
    DomainError,
    MixtureParams,
    MomentVector,
    RMatrix,
    Subspace,
    SubsetIndex,
    blocks_of,
    eps_bar,
    exhaustive_min_rows,
    exhaustive_nae_restrict,
    full_extension_rank,
    greedy_min_rows,
    hadamard_extension,
    lagrange_projection,
    matrix_from_json,
    matrix_to_json,
    moment_map,
    nae_restrict,
    nae_rows,
    recover_pi,
    respects,
    span,
)
from hadamix import cli
from hadamix.mixture import _check_moments

# Each time is the best of REPEATS runs; a run repeats the call until it
# has taken at least MIN_RUN_S, so that sub-millisecond cases are not
# read off a single call.
REPEATS = 5
MIN_RUN_S = 0.05
# Best time of calibrate() on an uncontended Xeon (Sapphire Rapids) core
# with CPython 3.11.7, as in clibench/run.py. Each bracket takes the best of
# CALIBRATIONS calls, so that one preempted call does not skew a run.
CALIBRATION_REFERENCE_S = 135e-6
CALIBRATIONS = 5


def calibrate() -> float:
    """Seconds taken by a fixed amount of Fraction and dict work (a copy of
    clibench/run.py's calibration loop)."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 60):
        total += Fraction(i, i % 13 + 2)
        seen[i] = total
    return time.perf_counter() - start


def host_speed() -> float:
    return min(calibrate() for _ in range(CALIBRATIONS))


# The example families, as `gen` builds them; built here because compare.py
# runs this ladder against checkouts that do not have hadamix.examples.
def hamming(l: int) -> RMatrix:
    """l x 2^l signs: entry (i, j) is -1 to the i-th bit of j."""
    return RMatrix.from_rows([[(-1) ** (j >> i & 1) for j in range(1 << l)] for i in range(l)])


def stairstep(k: int) -> RMatrix:
    """(k-1) x k: 1 where i < j, 1/2 elsewhere."""
    return RMatrix.from_rows([[1 if i < j else "1/2" for j in range(k)] for i in range(k - 1)])


def vandermonde(k: int, copies: int, row: list[Fraction] | None) -> RMatrix:
    """`copies` copies of `row`, by default 0..k-1."""
    return RMatrix.from_rows([row or range(k)] * copies, k)


def random_matrix(seed: int, n: int, k: int, dups: int = 0) -> RMatrix:
    """n x k rationals a/b with 1 <= a, b <= 999, whose extensions have
    large entries; `dups` of the columns repeat others, so the rank stays
    below k and every fold probes every row."""
    rng = random.Random(seed)
    base = [[Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(k - dups)]
            for _ in range(n)]
    cols = list(range(k - dups)) + [rng.randrange(k - dups) for _ in range(dups)]
    rng.shuffle(cols)
    return RMatrix.from_rows([[row[c] for c in cols] for row in base], k)


def desk_matrix(seed: int, n: int, k: int) -> RMatrix:
    """n x k rationals a/b with |a| <= 6 and 1 <= b <= 4, as the certify
    workload of clibench draws its random matrices."""
    rng = random.Random(seed)
    return RMatrix.from_rows([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(k)] for _ in range(n)], k)


def distinct_row(seed: int, k: int) -> list[Fraction]:
    """k distinct rationals; entry j has denominator 1 + j % 4."""
    rng = random.Random(seed)
    values: list[Fraction] = []
    while len(values) < k:
        q = Fraction(rng.randint(-9, 9) * 4 + 1, 1 + len(values) % 4)
        if q not in values:
            values.append(q)
    return values


def colour_matrix(seed: int, n: int, k: int) -> RMatrix:
    """n x k entries of four colours, drawn until the NAE condition holds,
    so that nae_restrict answers: many narrow scans."""
    rng = random.Random(seed)
    while True:
        m = RMatrix.from_rows([[rng.randrange(4) for _ in range(k)] for _ in range(n)], k)
        if eps_bar(m).satisfies_nae:
            return m


def tall_colour_matrix(seed: int, n: int, k: int, width: int) -> tuple[RMatrix, SubsetIndex]:
    """n x k entries of four colours and `width` of the k columns: nae_rows
    keys every entry of the selected columns, on any number of rows."""
    rng = random.Random(seed)
    m = RMatrix.from_rows([[rng.randrange(4) for _ in range(k)] for _ in range(n)], k)
    return m, SubsetIndex.from_members(k, rng.sample(range(k), width))


def cli_stdout(argv: list[str], document: str) -> str:
    """What one in-process `hadamix` invocation prints on stdout."""
    stdout = io.StringIO()
    cli.main(argv, io.StringIO(document), stdout, io.StringIO())
    return stdout.getvalue()


TINY_MATRIX = '{"rows": 3, "cols": 3, "data": [[1, 2, 3], [1, "1/2", 0], [2, 2, "1/3"]]}'
TINY_VECTOR = '{"v": [3, "1/2", 3, 0, "1/2"]}'


def matrix_document(m: RMatrix) -> dict:
    """m as the CLI reads it."""
    return {"rows": m.n_rows, "cols": m.n_cols,
            "data": [[str(x) for x in row] for row in m.entries]}


def parsed_document(m: RMatrix) -> dict:
    """m's JSON document as json.loads returns it: a whole entry as an int,
    any other as an "a/b" string, as `gen` and the workloads write them."""
    return json.loads(json.dumps(matrix_to_json(m)))


class Mixture(NamedTuple):
    """A mixture, its moments and their JSON document."""

    params: MixtureParams
    moments: MomentVector
    document: str


def mixture(seed: int, n: int, k: int = 4) -> Mixture:
    """n x k entries a/8 with 1 <= a <= 7 and positive weights: a mixture
    whose moments strictly decrease and whose weights recover_pi finds."""
    rng = random.Random(seed)
    m = RMatrix.from_rows([[Fraction(rng.randint(1, 7), 8) for _ in range(k)]
                           for _ in range(n)], k)
    weights = [rng.randint(1, 9) for _ in range(k)]
    params = MixtureParams(m, [Fraction(w, sum(weights)) for w in weights])
    moments = moment_map(params)
    return Mixture(params, moments, json.dumps(moments.to_json_obj()))


def recover_pi_case(x: Mixture) -> tuple[list[str], str]:
    """The `recover-pi` invocation on x's matrix and moment document."""
    return (["recover-pi"],
            '{"m": %s, "moments": %s}' % (json.dumps(matrix_document(x.params.m)), x.document))


def mixture_cli_cases(x: Mixture) -> list[tuple[list[str], str]]:
    """The `moments` and `recover-pi` invocations on x's documents."""
    pi = [str(w) for w in x.params.pi]
    return [(["moments"], json.dumps({"m": matrix_document(x.params.m), "pi": pi})),
            recover_pi_case(x)]


def non_lowest(x: Mixture) -> Mixture:
    """x with every moment of its document written as "2a/2b": the same
    moments, which `recover-pi` reads whole."""
    table = {str(mask): f"{2 * num}/{2 * den}"
             for mask, (num, den) in enumerate(zip(x.moments.nums, x.moments.dens))}
    return x._replace(document=json.dumps({"n": x.moments.n, "moments": table}))


def inconsistent(x: Mixture) -> Mixture:
    """x with its full-mask moment times 6/7, as clibench's mixture workload
    makes its inconsistent inputs: still monotone, and refused by
    `recover_pi`'s consistency check."""
    nums, dens = list(x.moments.nums), list(x.moments.dens)
    nums[-1] *= 6
    dens[-1] *= 7
    moments = MomentVector(x.moments.n, nums, dens)
    return x._replace(moments=moments, document=json.dumps(moments.to_json_obj()))


class Blocks(NamedTuple):
    """A vector and a subspace that respects its partition."""

    v: list[Fraction]
    u: Subspace


def block_vector(seed: int, k: int, blocks: int) -> Blocks:
    """k rationals a/b with 1 <= a, b <= 999 taking `blocks` distinct
    values, each at least once, and the span of its block indicators, so
    that respects reads every row."""
    rng = random.Random(seed)
    drawn: set[Fraction] = set()
    while len(drawn) < blocks:
        drawn.add(Fraction(rng.randint(1, 999), rng.randint(1, 999)))
    values = sorted(drawn)
    v = values + [rng.choice(values) for _ in range(k - blocks)]
    rng.shuffle(v)
    return Blocks(v, span([[int(x == q) for x in v] for q in values], k))


# (name, input, kernels; an int is the size of an exhaustive_min_rows scan
# of the input matrix). full_extension_rank and hadamard_extension refuse
# more than 20 rows; exhaustive_nae_restrict refuses more than 10^7 column
# sets, as on Vandermonde k=14 n=20.
GREEDY, RANK, EXTENSION = "greedy_min_rows", "full_extension_rank", "hadamard_extension"
NAE = (GREEDY, "eps_bar", "nae_restrict", "exhaustive_nae_restrict")
MIXTURE = ("moment_map", "MomentVector check", "json.loads + from_json_obj", "recover_pi")
# Kernels of the three n = 12 recover-pi documents, one per path of
# `hadamix recover-pi`: the text check, the full read, and the text check
# that fails and falls back to the full read
RECOVER_PI = ("json.loads + from_json_obj", "recover_pi", "cli recover-pi")
MIXTURE_N12 = mixture(14, 12)
MOMENTS_N12, RECOVER_PI_N12 = mixture_cli_cases(MIXTURE_N12)
PROJECT_K62 = json.dumps({"v": [str(x) for x in block_vector(16, 62, 6).v]})
INVARIANT_16X48 = json.dumps({
    "basis": matrix_document(desk_matrix(17, 16, 48)),
    "v": [str(x) for x in block_vector(18, 48, 6).v],
})
CASES = [
    ("random n=10 k=32", random_matrix(1, 10, 32), (GREEDY, RANK, EXTENSION)),
    ("random n=10 k=48", random_matrix(2, 10, 48), (GREEDY, RANK, EXTENSION)),
    ("duplicated columns n=10 k=32", random_matrix(3, 10, 32, dups=3),
     (GREEDY, RANK, EXTENSION)),
    ("random n=100 k=16", random_matrix(6, 100, 16), (GREEDY,)),
    ("desk n=12 k=16", desk_matrix(12, 12, 16), (GREEDY, RANK)),
    ("hamming l=9", hamming(9), (GREEDY, RANK, EXTENSION)),
    ("stairstep k=40", stairstep(40), (GREEDY,)),
    ("vandermonde k=40 n=39", vandermonde(40, 39, distinct_row(4, 40)), (GREEDY,)),
    ("vandermonde k=6 n=12", vandermonde(6, 12, distinct_row(5, 6)),
     (GREEDY, RANK, EXTENSION, 5)),
    ("vandermonde k=10 n=14", vandermonde(10, 14, None), NAE),
    ("vandermonde k=14 n=20", vandermonde(14, 20, None), NAE),
    ("four colours n=6 k=6", colour_matrix(7, 6, 6), NAE),
    ("four colours n=2000 k=20 cols=10", tall_colour_matrix(13, 2000, 20, 10),
     ("nae_rows",)),
    ("mixture k=4 n=9", mixture(23, 9), MIXTURE),
    ("mixture k=4 n=12", MIXTURE_N12, MIXTURE + ("cli recover-pi",)),
    ("mixture k=4 n=12 non-lowest terms", non_lowest(MIXTURE_N12), RECOVER_PI),
    ("mixture k=4 n=12 inconsistent", inconsistent(MIXTURE_N12), RECOVER_PI),
    ("mixture k=4 n=14", mixture(8, 14), MIXTURE),
    ("mixture k=4 n=16", mixture(9, 16), MIXTURE),
    ("mixture k=4 n=18", mixture(10, 18), MIXTURE),
    ("blocks k=48 b=29", block_vector(11, 48, 29),
     ("lagrange_projection", "blocks_of", "respects")),
    ("document desk n=12 k=16", parsed_document(desk_matrix(19, 12, 16)), ("matrix_from_json",)),
    ("document four colours n=62 k=15", parsed_document(colour_matrix(20, 62, 15)),
     ("matrix_from_json",)),
    ("document hamming l=8", parsed_document(hamming(8)), ("matrix_from_json",)),
    ("cli nae-check 3x3", (["nae-check"], TINY_MATRIX), ("cli.main",)),
    ("cli eps --cols 1 3x3", (["eps", "--cols", "1"], TINY_MATRIX), ("cli.main",)),
    ("cli project --block 1 k=5", (["project", "--block", "1"], TINY_VECTOR), ("cli.main",)),
    ("cli project --block 1 k=62 b=6", (["project", "--block", "1"], PROJECT_K62),
     ("cli.main",)),
    ("cli invariant basis 16x48 b=6", (["invariant"], INVARIANT_16X48), ("cli.main",)),
    ("cli moments mixture k=4 n=12", MOMENTS_N12, ("cli.main",)),
    ("cli recover-pi mixture k=4 n=12", RECOVER_PI_N12, ("cli.main",)),
    ("cli hadext desk n=8 k=5",
     (["hadext"], json.dumps(matrix_document(desk_matrix(15, 8, 5)))), ("cli.main",)),
    ("cli hadext desk n=12 k=8",
     (["hadext"], json.dumps(matrix_document(desk_matrix(21, 12, 8)))), ("cli.main",)),
    ("cli hadext desk n=14 k=8",
     (["hadext"], json.dumps(matrix_document(desk_matrix(22, 14, 8)))), ("cli.main",)),
]
# Each kernel is called on its case's input.
KERNELS = {
    GREEDY: greedy_min_rows,
    RANK: full_extension_rank,
    EXTENSION: hadamard_extension,
    "eps_bar": eps_bar,
    "nae_rows": lambda x: nae_rows(*x),
    "nae_restrict": nae_restrict,
    "exhaustive_nae_restrict": exhaustive_nae_restrict,
    "moment_map": lambda x: moment_map(x.params),
    "MomentVector check": lambda x: _check_moments(x.moments.n, x.moments.nums, x.moments.dens),
    "json.loads + from_json_obj": lambda x: MomentVector.from_json_obj(json.loads(x.document)),
    "recover_pi": lambda x: recover_pi(x.params.m, x.moments),
    # the document is formatted on each call: about 25 us, under 1% of the call
    "cli recover-pi": lambda x: cli_stdout(*recover_pi_case(x)),
    "lagrange_projection": lambda x: lagrange_projection(x.v, 0),
    "blocks_of": lambda x: blocks_of(x.v),
    "respects": lambda x: respects(x.u, x.v),
    "matrix_from_json": matrix_from_json,
    "cli.main": lambda x: cli_stdout(*x),
}


def digest(answer: object) -> str:
    if isinstance(answer, RMatrix):  # its rationals, however a checkout holds them
        answer = (answer.n_rows, answer.n_cols, answer.entries)
    return hashlib.sha256(repr(answer).encode()).hexdigest()[:16]


class Timing(NamedTuple):
    """Seconds per call of the best run, raw and scaled to the reference
    host speed, and the mean calibration time that scaled it."""

    raw_s: float
    scaled_s: float
    calibration_s: float


def timed(kernel, *args) -> tuple[Timing, str]:
    """The timing of the best scaled run of REPEATS, and the digest of the
    answer or the refusal."""
    def call() -> object:
        try:
            return kernel(*args)
        except DomainError as exc:
            return exc

    start = time.perf_counter()
    answer = call()
    calls = max(1, round(MIN_RUN_S / (time.perf_counter() - start)))
    runs = []
    after = host_speed()
    for _ in range(REPEATS):
        before = after
        start = time.perf_counter()
        for _ in range(calls):
            call()
        raw = (time.perf_counter() - start) / calls
        after = host_speed()
        calibration = (before + after) / 2
        runs.append(Timing(raw, raw * CALIBRATION_REFERENCE_S / calibration, calibration))
    best = min(runs, key=lambda run: run.scaled_s)
    if isinstance(answer, DomainError):
        return best, f"refused: {answer}"
    return best, digest(answer)


def main() -> None:
    results = []
    for name, x, kernels in CASES:
        runs = []
        for kernel in kernels:
            if isinstance(kernel, int):
                runs.append((f"exhaustive_min_rows size={kernel}", exhaustive_min_rows,
                             (x, kernel)))
            else:
                runs.append((kernel, KERNELS[kernel], (x,)))
        for kernel, call, args in runs:
            timing, answer = timed(call, *args)
            results.append({"case": name, "kernel": kernel, **timing._asdict(),
                            "answer": answer})
            print(f"{name:30} {kernel:32} {timing.scaled_s * 1e3:10.2f} ms"
                  f" (raw {timing.raw_s * 1e3:.2f})  {answer}")
    path = next(Path(f"BENCH_{n}.json") for n in count(1)
                if not Path(f"BENCH_{n}.json").exists())
    path.write_text(json.dumps({
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "repeats": REPEATS,
        "min_run_s": MIN_RUN_S,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "results": results,
    }, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
