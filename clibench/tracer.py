"""Per-layer spans around hadamix's public functions, installed from outside.

Each wrapped function records a call count and its self time: the span's
duration minus the time of the wrapped calls it made. hadamix modules bind
each other's functions by name (`from .exact_core import span`), so a
wrapper is patched into every module and class attribute that holds the
original object, not only where it is defined. `Tracer.installed()`
restores every original on exit.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator


def _span_args(args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    # span() accepts any iterable; materialise it once so it can be counted
    return (list(args[0]), *args[1:]), kwargs


def _count_span(t: "Tracer", result, args) -> None:
    t.counts["exact_core.span.vectors_in"] += len(args[0])
    t.counts["exact_core.span.dim_out"] += result.dim


def _count_extend(t: "Tracer", result, args) -> None:
    t.counts["hadamard.extend_rowspace.grown"] += result.space.dim > args[0].space.dim


def _count_exhaustive(t: "Tracer", result, args) -> None:
    m, size = args
    t.counts["hadamard.exhaustive_min_rows.subsets_scanned"] += math.comb(m.n_rows, size)


def _count_moment_map(t: "Tracer", result, args) -> None:
    t.counts["mixture.moment_masks"] += 1 << args[0].m.n_rows


def _count_recover(t: "Tracer", result, args) -> None:
    t.counts["mixture.moment_masks"] += 1 << args[0].n_rows


# (module, attribute path, argument hook, result hook). A result hook runs
# only when the call returns; refused calls are counted and timed but add
# no work counts.
TARGETS: list[tuple[str, str, Callable | None, Callable | None]] = [
    ("cli", "main", None, None),
    ("exact_core", "span", _span_args, _count_span),
    ("exact_core", "Subspace.contains", None, None),
    ("exact_core", "solve_square", None, None),
    ("exact_core", "matrix_from_json", None, None),
    ("exact_core", "matrix_to_json", None, None),
    ("hadamard", "extend_rowspace", None, _count_extend),
    ("hadamard", "full_extension_rank", None, None),
    ("hadamard", "greedy_min_rows", None, None),
    ("hadamard", "exhaustive_min_rows", None, _count_exhaustive),
    ("hadamard", "hadamard_extension", None, None),
    ("nae", "eps_bar", None, None),
    ("nae", "nae_rows", None, None),
    ("nae", "nae_restrict", None, None),
    ("mixture", "moment_map", None, _count_moment_map),
    ("mixture", "recover_pi", None, _count_recover),
    ("mixture", "MomentVector.from_json_obj", None, None),
    ("mixture", "MomentVector.to_json_obj", None, None),
    ("partition_algebra", "blocks_of", None, None),
    ("partition_algebra", "lagrange_projection", None, None),
    ("partition_algebra", "respects", None, None),
    ("partition_algebra", "is_invariant", None, None),
]


def resolve(module: str, path: str) -> tuple[object, str, object, Callable]:
    """Owner, attribute name, stored value and underlying function of a target."""
    owner = sys.modules[f"hadamix.{module}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = vars(owner)[attr]
    return owner, attr, raw, raw.__func__ if isinstance(raw, classmethod) else raw


def span_names() -> list[str]:
    return [f"{module}.{path}" for module, path, _, _ in TARGETS]


class Tracer:
    """Call counts, self times and work counts for one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._child_time: list[float] = []

    def wrap(self, name: str, fn: Callable, before: Callable | None, after: Callable | None):
        calls, self_s, stack = self.calls, self.self_s, self._child_time

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(self, result, args)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every binding of every target; restore them all on exit."""
        modules = [m for name, m in sys.modules.items()
                   if name == "hadamix" or name.startswith("hadamix.")]
        restore: list[tuple[object, str, object]] = []
        try:
            for module, path, before, after in TARGETS:
                owner, attr, raw, original = resolve(module, path)
                wrapper = self.wrap(f"{module}.{path}", original, before, after)
                if isinstance(owner, type):
                    restore.append((owner, attr, raw))
                    setattr(owner, attr, classmethod(wrapper) if raw is not original else wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)
