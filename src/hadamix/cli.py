"""Batch command-line front end with deterministic JSON input and output.

Every command reads JSON from --input (default stdin) and writes one JSON
document to stdout with lexicographically sorted keys, so identical
invocations are byte-identical. Exit codes: 0 success, 1 domain error
(JSON error object on stdout), 2 usage or input-format error.

Row, column, and block indices in CLI JSON are 1-based; the Python API
underneath is 0-based throughout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import IO, Sequence

from .exact_core import (
    DomainError,
    InputFormatError,
    InternalInvariantError,
    SubsetIndex,
    _entry_reader,
    as_vector,
    matrix_from_json,
    matrix_to_json,
    rational_pair,
    rational_to_json,
    span,
)
from .hadamard import (
    NotFullRank,
    _extension_table,
    exhaustive_min_rows,
    full_extension_rank,
    greedy_min_rows,
)
from .mixture import MixtureParams, MomentVector, moment_map, recover_pi
from .nae import eps_bar, exhaustive_nae_restrict, nae_restrict, nae_rows
from .partition_algebra import (
    blocks_of,
    is_invariant,
    lagrange_projection,
    respects,
)


class _FamilyParser(argparse.ArgumentParser):
    """Parser of one `gen` family that refuses its own unrecognized
    arguments. argparse hands a subparser's extras back to its parent, whose
    error would show the root usage line and not the family's flags."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# ---------------------------------------------------------------------------
# encoding helpers (CLI JSON is 1-based)


def _subset_to_list(subset: SubsetIndex) -> list[int]:
    return [i + 1 for i in subset]


def _vector_to_json(vec: Sequence[Fraction]) -> list:
    return [rational_to_json(x) for x in vec]


def _vector_from_json(obj: object, what: str) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise InputFormatError(f"{what} must be a JSON array")
    return tuple(map(_entry_reader(), obj))


def _witness_to_json(witness: object) -> object:
    """A DomainError's witness: None, an int, a SubsetIndex, or a dict or NaeReport of them."""
    if witness is None or isinstance(witness, int):
        return witness
    if isinstance(witness, SubsetIndex):
        return _subset_to_list(witness)
    if isinstance(witness, dict):
        return {name: _witness_to_json(value) for name, value in witness.items()}
    # a record: its fields in declaration order
    return {name: _witness_to_json(getattr(witness, name)) for name in witness.__slots__}


def integer(text: str) -> int:
    """An integer flag value: -?[0-9]+ in ASCII digits, read by
    rational_pair with no '/', else ValueError (InputFormatError is one).

    The type of every integer flag; argparse reports the ValueError as
    "invalid integer value" (exit 2).
    """
    if "/" in text:
        raise ValueError(f"not an integer: {text!r}")
    return rational_pair(text)[0]


def _parse_indices(text: str, size: int, what: str) -> SubsetIndex:
    """Comma-separated 1-based indices -> 0-based subset."""
    try:
        members = [integer(part) - 1 for part in text.split(",")]
    except ValueError as exc:
        raise InputFormatError(f"{what} must be comma-separated integers: {text!r}") from exc
    if any(i < 0 or i >= size for i in members):
        raise InputFormatError(f"{what} indices must be in 1..{size}: {text!r}")
    return SubsetIndex.from_members(size, members)


def _load_json(args: argparse.Namespace, stdin: IO[str]) -> object:
    try:
        if args.input is None:
            text = stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if args.input is None else args.input
        raise InputFormatError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    # ValueError also covers integers past int()'s digit limit;
    # RecursionError, arrays nested too deeply for the decoder
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"malformed JSON input: {exc}") from exc


def _require_object(obj: object, keys: Sequence[str], what: str) -> dict:
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} input must be a JSON object")
    for key in keys:
        if key not in obj:
            raise InputFormatError(f"{what} input missing field {key!r}")
    return obj


# ---------------------------------------------------------------------------
# command handlers: each returns a JSON-serializable payload


def _cmd_gen(args, stdin):
    from .examples import gen_hamming, gen_stairstep, gen_vandermonde

    # each family has its own parser, which requires its flags and
    # refuses those of the other families
    if args.family == "vandermonde":
        row = None
        if args.row is not None:
            try:
                row = as_vector(args.row.split(","))
            except InputFormatError as exc:
                raise InputFormatError(f"--row is not a rational list: {args.row!r}") from exc
        copies = args.copies if args.copies is not None else args.k - 1
        matrix = gen_vandermonde(args.k, copies, row)
    elif args.family == "hamming":
        matrix = gen_hamming(args.l)
    else:  # stairstep, the last family parser
        matrix = gen_stairstep(args.k)
    return matrix_to_json(matrix)


def _cmd_hadext(args, stdin):
    # each entry in lowest terms, as rational_to_json writes it
    matrix = matrix_from_json(_load_json(args, stdin))
    data = []
    for nums, dens in _extension_table(matrix):
        data.append([x // g if g == d else f"{x // g}/{d // g}"
                     for x, d, g in zip(nums, dens, map(math.gcd, nums, dens))])
    return {"rows": 1 << matrix.n_rows, "cols": matrix.n_cols, "data": data}


def _cmd_rank(args, stdin):
    matrix = matrix_from_json(_load_json(args, stdin))
    rank = full_extension_rank(matrix)
    return {"rank": rank, "full": rank == matrix.n_cols}


def _cmd_minrows(args, stdin):
    if args.size is not None and not args.exhaustive:
        raise InputFormatError("--size requires --exhaustive")
    matrix = matrix_from_json(_load_json(args, stdin))
    found = greedy_min_rows(matrix)
    if isinstance(found, NotFullRank):
        payload = {"greedy": None, "rank": found.rank}
    else:
        payload = {"greedy": _subset_to_list(found), "rank": matrix.n_cols}
    if args.exhaustive:
        size = args.size if args.size is not None else max(matrix.n_cols - 1, 0)
        payload["exhaustive"] = [
            _subset_to_list(s) for s in exhaustive_min_rows(matrix, size)
        ]
    return payload


def _cmd_eps(args, stdin):
    matrix = matrix_from_json(_load_json(args, stdin))
    cols = _parse_indices(args.cols, matrix.n_cols, "--cols")
    rows = nae_rows(matrix, cols)
    return {
        "cols": _subset_to_list(cols),
        "eps": len(rows) - len(cols),
        "nae_rows": _subset_to_list(rows),
    }


def _cmd_nae_check(args, stdin):
    report = eps_bar(matrix_from_json(_load_json(args, stdin)))
    return {
        "eps_bar": report.eps_bar,
        "nae_condition": report.satisfies_nae,
        "witness": _subset_to_list(report.witness_columns),
        "nae_rows": _subset_to_list(report.nae_rows_of_witness),
    }


def _cmd_nae_restrict(args, stdin):
    matrix = matrix_from_json(_load_json(args, stdin))
    payload = {"rows": _subset_to_list(nae_restrict(matrix))}
    if args.exhaustive:
        payload["exhaustive"] = [
            _subset_to_list(s) for s in exhaustive_nae_restrict(matrix)
        ]
    return payload


def _cmd_blocks(args, stdin):
    obj = _require_object(_load_json(args, stdin), ["v"], "blocks")
    part = blocks_of(_vector_from_json(obj["v"], "'v'"))
    return {
        "values": _vector_to_json(part.values),
        "blocks": [_subset_to_list(block) for block in part.blocks],
    }


def _cmd_project(args, stdin):
    obj = _require_object(_load_json(args, stdin), ["v"], "project")
    v = _vector_from_json(obj["v"], "'v'")
    if args.block < 1:
        raise InputFormatError("--block is 1-based")
    try:
        projector = lagrange_projection(v, args.block - 1)
    except DomainError:
        # the library's message names the 0-based index; restate it as typed
        n_blocks = len(blocks_of(v)) if v else 0
        if args.block > n_blocks > 0:
            raise DomainError(
                f"block index {args.block} out of range for {n_blocks} blocks"
            ) from None
        raise
    return matrix_to_json(projector)


def _cmd_invariant(args, stdin):
    obj = _require_object(_load_json(args, stdin), ["basis", "v"], "invariant")
    v = _vector_from_json(obj["v"], "'v'")
    basis = matrix_from_json(obj["basis"])
    u = span(basis.entries, basis.n_cols)
    invariant = is_invariant(v, u)
    respected = respects(u, v)
    if invariant != respected:
        raise InternalInvariantError(
            "invariance and block-respect disagree; they are provably equivalent"
            f" (k = {u.ambient_dim}, dim = {u.dim})"
        )
    return {"invariant": invariant, "respects": respected}


def _cmd_moments(args, stdin):
    obj = _require_object(_load_json(args, stdin), ["m", "pi"], "moments")
    matrix = matrix_from_json(obj["m"])
    try:
        params = MixtureParams(matrix, _vector_from_json(obj["pi"], "'pi'"))
    except DomainError as exc:
        if exc.witness is None:
            raise
        # the library's message names the entry 0-based; restate it 1-based
        row, col = exc.witness["row"], exc.witness["col"]
        raise DomainError(
            f"entry ({row + 1},{col + 1}) = {matrix.entries[row][col]} is not a probability",
            witness={"row": row + 1, "col": col + 1},
        ) from None
    return moment_map(params).to_json_obj()


def _cmd_recover_pi(args, stdin):
    obj = _require_object(_load_json(args, stdin), ["m", "moments"], "recover-pi")
    matrix = matrix_from_json(obj["m"])
    moments = MomentVector.from_json_obj(obj["moments"])
    return {"pi": _vector_to_json(recover_pi(matrix, moments))}


def _cmd_selftest(args, stdin):
    from .examples import _selftest_checks

    checks = []
    for name, fn in _selftest_checks():
        try:
            detail, ok = fn(), True
        except AssertionError as exc:
            detail, ok = str(exc) or "assertion failed", False
        checks.append({"name": name, "ok": ok, "detail": detail})
    failed = sum(not check["ok"] for check in checks)
    return {"checks": checks, "failed": failed, "ok": failed == 0}


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # built on the first main() call, not at import
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser, and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="hadamix",
        description="Exact Hadamard-extension rank certificates, NAE deficiency, "
        "partition projectors, and mixture moment maps over JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name: str, handler, help_text: str, with_input: bool = True):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if with_input:
            p.add_argument("--input", "-i", default=None, metavar="FILE",
                           help="JSON input file (default: stdin)")
        return p

    p = add("gen", _cmd_gen, "generate an example-family matrix", with_input=False)
    family = p.add_subparsers(dest="family", required=True, parser_class=_FamilyParser)
    f = family.add_parser("vandermonde", help="copies of one distinct-entry row")
    f.add_argument("--k", type=integer, required=True, help="number of columns")
    f.add_argument("--copies", type=integer, default=None,
                   help="number of identical rows (default k-1)")
    f.add_argument("--row", default=None,
                   help="comma-separated distinct entries (default 0..k-1)")
    f = family.add_parser("hamming", help="l x 2^l sign matrix")
    f.add_argument("--l", type=integer, required=True, help="rows (k = 2^l)")
    f = family.add_parser("stairstep", help="(k-1) x k staircase")
    f.add_argument("--k", type=integer, required=True, help="number of columns")

    add("hadext", _cmd_hadext, "matrix -> its 2^n x k extension")
    add("rank", _cmd_rank, "matrix -> extension column rank")
    p = add("minrows", _cmd_minrows, "matrix -> greedy rank-certifying row subset")
    p.add_argument("--exhaustive", action="store_true",
                   help="also list every certifying subset of --size rows")
    p.add_argument("--size", type=integer, default=None,
                   help="subset size for --exhaustive (default k-1)")
    p = add("eps", _cmd_eps, "matrix -> deficiency of a fixed column set")
    p.add_argument("--cols", required=True,
                   help="comma-separated 1-based column indices")
    add("nae-check", _cmd_nae_check, "matrix -> minimum deficiency report")
    p = add("nae-restrict", _cmd_nae_restrict, "matrix -> k-1 rows with deficiency exactly -1")
    p.add_argument("--exhaustive", action="store_true",
                   help="also list every certifying (k-1)-row subset")
    add("blocks", _cmd_blocks, "{v} -> equal-value partition of the coordinates")
    p = add("project", _cmd_project, "{v} -> block projector via polynomial evaluation")
    p.add_argument("--block", type=integer, required=True,
                   help="1-based block index (blocks ordered by decreasing value)")
    add("invariant", _cmd_invariant, "{basis, v} -> invariance and block-respect of span(basis)")
    add("moments", _cmd_moments, "{m, pi} -> all 2^n subset moments")
    add("recover-pi", _cmd_recover_pi, "{m, moments} -> the unique consistent weight vector")
    add("selftest", _cmd_selftest, "run the built-in example corpus", with_input=False)
    return parser, commands


def main(
    argv: Sequence[str] | None = None,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    saved = sys.stdout, sys.stderr  # argparse writes help and usage errors there
    sys.stdout, sys.stderr = stdout, stderr
    try:
        root, commands = _build_parser()
        command = commands.get(argv[0]) if argv else None
        if command is None:  # no command first: help, a usage error or a root option
            args = root.parse_args(argv)
        else:
            # what root.parse_args does with a command first, without
            # classifying and converting the arguments a second time
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                root.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        sys.stdout, sys.stderr = saved

    try:
        payload = args.handler(args, stdin)
    except InputFormatError as exc:
        print(f"hadamix {args.command}: {exc}", file=stderr)
        return 2
    except DomainError as exc:
        payload, code = {"error": str(exc), "witness": _witness_to_json(exc.witness)}, 1
    except InternalInvariantError as exc:
        payload, code = {"error": f"internal invariant violated: {exc}", "witness": None}, 1
    else:
        code = int(args.command == "selftest" and not payload["ok"])
    stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
