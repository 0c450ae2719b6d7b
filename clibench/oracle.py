"""Reference answers for every benchmark job, computed without hadamix.

The algorithms differ on purpose from the library's: extension rank by
fraction-free integer elimination over the materialised extension (with
duplicate columns merged first, which never changes column rank), moments
by the direct product formula, eps_bar by testing every column set
against each row's equal-value classes, invariance by comparing ranks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

Matrix = list[list[Fraction]]


def q_json(q: Fraction) -> int | str:
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def matrix_json(rows: Matrix) -> dict:
    """CLI matrix JSON of a nonempty list of rows."""
    return {
        "rows": len(rows),
        "cols": len(rows[0]),
        "data": [[q_json(x) for x in row] for row in rows],
    }


def _members(mask: int) -> list[int]:
    """1-based members of a bitmask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]


# ---------------------------------------------------------------------------
# rank


class _Echelon:
    """Integer row echelon basis; rows are kept sorted by leading column."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, list[int]]] = []

    def add(self, v: list[int]) -> bool:
        """Adjoin v; True when it was independent of the basis."""
        for lead, b in self.rows:
            c = v[lead]
            if c:
                a = b[lead]
                v = [x * a - c * y for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        g = math.gcd(*v)
        self.rows.append((lead, [x // g for x in v]))
        self.rows.sort(key=lambda entry: entry[0])
        return True


def _integer_row(row: list[Fraction]) -> list[int]:
    scale = math.lcm(*(x.denominator for x in row)) if row else 1
    return [int(x * scale) for x in row]


def rank(rows: Matrix) -> int:
    basis = _Echelon()
    return sum(basis.add(_integer_row(row)) for row in rows)


def extension_rows(rows: Matrix) -> list[list[Fraction]]:
    """The 2^n extension rows, ordered by (subset size, bitmask)."""
    n, k = len(rows), len(rows[0])
    products = [[Fraction(1)] * k]
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        products.append([a * b for a, b in zip(products[mask & (mask - 1)], rows[low])])
    order = sorted(range(1 << n), key=lambda mask: (mask.bit_count(), mask))
    return [products[mask] for mask in order]


def _subset_products(rows: list[list[int]], start: int, prefix: list[int]):
    """prefix times the product of every subset of rows[start:], depth first."""
    yield prefix
    for i in range(start, len(rows)):
        yield from _subset_products(rows, i + 1, [a * b for a, b in zip(prefix, rows[i])])


def extension_rank(rows: Matrix) -> int:
    """Column rank of the Hadamard extension of rows."""
    distinct = list(dict.fromkeys(zip(*rows)))
    k = len(distinct)
    ints = [_integer_row(list(row)) for row in zip(*distinct)]
    basis = _Echelon()
    found = 0
    for product in _subset_products(ints, 0, [1] * k):
        found += basis.add(product)
        if found == k:
            break
    return found


# ---------------------------------------------------------------------------
# moments


def moments_direct(rows: Matrix, pi: list[Fraction]) -> list[Fraction]:
    """moment[mask] = sum_j pi_j * prod_{i in mask} rows[i][j]."""
    n, k = len(rows), len(pi)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    a = [[int(x * d) for x in row] for row in rows]
    e = math.lcm(*(p.denominator for p in pi))
    b = [int(p * e) for p in pi]
    out = []
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        total = 0
        for j in range(k):
            term = b[j]
            for i in members:
                term *= a[i][j]
            total += term
        out.append(Fraction(total, e * d ** len(members)))
    return out


# ---------------------------------------------------------------------------
# NAE deficiency


def _nae_mask(rows: Matrix, cols: int) -> int:
    """Rows taking two or more values on the column set."""
    idx = [j for j in range(len(rows[0])) if (cols >> j) & 1]
    mask = 0
    for i, row in enumerate(rows):
        if len({row[j] for j in idx}) > 1:
            mask |= 1 << i
    return mask


@lru_cache(maxsize=256)
def _eps_bar_cached(rows: tuple[tuple[Fraction, ...], ...]) -> tuple[int, int, int]:
    n, k = len(rows), len(rows[0])
    classes = [
        [sum(1 << c for c in range(k) if row[c] == row[j]) for j in range(k)]
        for row in rows
    ]
    best, best_mask = None, 0
    for cols in range(1, 1 << k):
        j0 = (cols & -cols).bit_length() - 1
        constant = sum(1 for cls in classes if cols & ~cls[j0] == 0)
        e = (n - constant) - cols.bit_count()
        if best is None or e < best:
            best, best_mask = e, cols
    return best, best_mask, _nae_mask([list(r) for r in rows], best_mask)


def eps_bar_brute(rows: Matrix) -> tuple[int, int, int]:
    """(eps_bar, smallest minimising column mask, its NAE row mask)."""
    return _eps_bar_cached(tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# per-command checks


def _check_certificate(rows: Matrix, got: dict) -> str | None:
    k = len(rows[0])
    full_rank = extension_rank(rows)
    if full_rank < k:
        return None if got == {"greedy": None, "rank": full_rank} else "greedy/rank mismatch"
    greedy = got.get("greedy")
    if got.get("rank") != k or not isinstance(greedy, list):
        return "full-rank matrix without a certificate"
    if len(greedy) > k - 1 or greedy != sorted(set(greedy)):
        return f"certificate {greedy} is not at most k-1 distinct rows"
    if not all(1 <= i <= len(rows) for i in greedy):
        return f"certificate {greedy} has a row out of range"
    if extension_rank([rows[i - 1] for i in greedy]) != k:
        return f"certificate {greedy} does not reach full rank"
    return None


def _check_exhaustive(rows: Matrix, got: dict) -> str | None:
    n, k = len(rows), len(rows[0])
    size = max(k - 1, 0)
    want = [
        _members(mask)
        for mask in range(1 << n)
        if mask.bit_count() == size
        and extension_rank([rows[i] for i in range(n) if (mask >> i) & 1]) == k
    ]
    if got.get("exhaustive") != want:
        return "exhaustive certificate list differs from every full-rank subset"
    return _check_certificate(rows, {key: v for key, v in got.items() if key != "exhaustive"})


def _check_nae_restrict(rows: Matrix, rc: int, got: dict) -> str | None:
    e, witness, nae = eps_bar_brute(rows)
    if e < -1:
        want = {
            "error": f"NAE condition fails: eps_bar = {e} < -1",
            "witness": {
                "eps_bar": e,
                "nae_rows_of_witness": _members(nae),
                "witness_columns": _members(witness),
            },
        }
        return None if (rc, got) == (1, want) else "NAE failure not refused as expected"
    picked = got.get("rows") if rc == 0 else None
    k = len(rows[0])
    if not isinstance(picked, list) or len(picked) != k - 1 or picked != sorted(set(picked)):
        return f"restriction {picked} is not k-1 distinct rows"
    if eps_bar_brute([rows[i - 1] for i in picked])[0] != -1:
        return f"restriction {picked} does not have eps_bar -1"
    return None


def _expected(job) -> dict | None:
    """Exit-0 payload the job must print, when it is fully determined."""
    ref = job.ref
    if job.kind == "rank":
        r = extension_rank(ref["m"])
        return {"full": r == len(ref["m"][0]), "rank": r}
    if job.kind == "hadext":
        return matrix_json(extension_rows(ref["m"]))
    if job.kind == "moments":
        values = moments_direct(ref["m"], ref["pi"])
        return {
            "moments": {str(mask): q_json(v) for mask, v in enumerate(values)},
            "n": len(ref["m"]),
        }
    if job.kind == "nae-check":
        e, witness, nae = eps_bar_brute(ref["m"])
        return {
            "eps_bar": e,
            "nae_condition": e >= -1,
            "nae_rows": _members(nae),
            "witness": _members(witness),
        }
    if job.kind == "eps":
        cols = [int(c) for c in ref["cols"].split(",")]
        mask = sum(1 << (c - 1) for c in cols)
        nae = _nae_mask(ref["m"], mask)
        return {"cols": cols, "eps": nae.bit_count() - len(cols), "nae_rows": _members(nae)}
    if job.kind == "invariant":
        basis, v = ref["basis"], ref["v"]
        moved = [[a * b for a, b in zip(row, v)] for row in basis]
        invariant = rank(basis + moved) == rank(basis)
        return {"invariant": invariant, "respects": invariant}
    if job.kind == "project":
        value = sorted(set(ref["v"]), reverse=True)[ref["block"] - 1]
        k = len(ref["v"])
        diag = [
            [Fraction(int(i == j and x == value)) for j in range(k)]
            for i, x in enumerate(ref["v"])
        ]
        return matrix_json(diag)
    if job.kind == "blocks":
        values = sorted(set(ref["v"]), reverse=True)
        return {
            "blocks": [[j + 1 for j, x in enumerate(ref["v"]) if x == value] for value in values],
            "values": [q_json(value) for value in values],
        }
    return None


def check(job, rc: int, stdout: str) -> str | None:
    """None when (rc, stdout) is the right answer for job, else a reason."""
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {rc} with non-JSON stdout {stdout[:80]!r}"
    if job.kind == "nae-restrict":
        return _check_nae_restrict(job.ref["m"], rc, got)
    if job.kind == "recover-pi":
        ref = job.ref
        if ref["inconsistent"]:
            want = {
                "error": "moments are inconsistent with every weight vector",
                "witness": {"subset_mask": (1 << len(ref["m"])) - 1},
            }
            return None if (rc, got) == (1, want) else "inconsistent moments not refused"
        want = {"pi": [q_json(p) for p in ref["pi"]]}
        return None if (rc, got) == (0, want) else "recovered weights differ from the generating pi"
    if rc != 0:
        return f"exit {rc}: {stdout[:120]!r}"
    if job.kind == "minrows":
        return _check_certificate(job.ref["m"], got)
    if job.kind == "exhaustive":
        return _check_exhaustive(job.ref["m"], got)
    want = _expected(job)
    if want is None:
        return f"no oracle for job kind {job.kind!r}"
    return None if got == want else f"{job.kind} output differs from the reference"
