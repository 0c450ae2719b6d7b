"""The benchmark tracer must find every hadamix function it wraps.

`clibench/tracer.py` patches hadamix functions by module and attribute
path, and its hooks read their arguments by position. A rename or a new
signature in `src/` would break the traced benchmark run without failing
any behaviour test, so these tests resolve every target, reading clibench
without changing it.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import hadamix

TRACER = Path(__file__).resolve().parents[1] / "clibench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    for info in pkgutil.iter_modules(hadamix.__path__):
        importlib.import_module(f"hadamix.{info.name}")
    spec = importlib.util.spec_from_file_location("clibench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracer):
    for module, path, _, _ in tracer.TARGETS:
        owner, attr, raw, function = tracer.resolve(module, path)
        assert callable(function), f"{module}.{path}"


def test_traced_mixture_layers_keep_their_signatures(tracer):
    # the moment-mask hooks read args[0] of moment_map and recover_pi
    expected = {
        "mixture.moment_map": ["params"],
        "mixture.recover_pi": ["m", "moments"],
        "mixture.MomentVector.from_json_obj": ["cls", "obj"],
        "mixture.MomentVector.to_json_obj": ["self"],
    }
    assert set(expected) <= set(tracer.span_names())
    for name, parameters in expected.items():
        module, path = name.split(".", 1)
        function = tracer.resolve(module, path)[3]
        assert list(inspect.signature(function).parameters) == parameters, name
