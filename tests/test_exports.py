"""The package's export list stays in step with what `__init__` imports,
every export and every public member of an exported class is used inside
the package, and the README's Python example runs against it."""

import ast
import re
from pathlib import Path
from types import FunctionType

import hadamix


def test_every_exported_name_resolves():
    missing = [name for name in hadamix.__all__ if not hasattr(hadamix, name)]
    assert not missing
    assert len(set(hadamix.__all__)) == len(hadamix.__all__)


def test_all_lists_every_public_import():
    tree = ast.parse(Path(hadamix.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public
    assert sorted(public - set(hadamix.__all__)) == []


def test_readme_python_example_runs_and_shows_its_results():
    # each `expr  # result` line must evaluate to the result written after
    # it: a Python literal, or the value's type name followed by its str
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    checked = 0
    for block in blocks:
        namespace = {}
        lines = block.splitlines()
        for node in ast.parse(block).body:
            code = ast.get_source_segment(block, node)
            if not isinstance(node, ast.Expr):
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            comment = lines[node.end_lineno - 1].partition("# ")[2]
            if not comment:
                continue
            try:
                assert value == eval(comment, namespace), code
            except SyntaxError:
                assert comment.startswith(f"{type(value).__name__} {value}"), code
            checked += 1
    assert checked


def _references_outside_own_definition(tree):
    """Names loaded in a module outside the top-level definition of the
    same name, under the names they were imported as. Annotations are
    expressions in the tree, so a name used only as a type counts."""
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
    imported_as = {alias.asname: alias.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    return {imported_as.get(name, name) for name, owner in found if name != owner}


def test_every_export_is_used_inside_the_package():
    package = Path(hadamix.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references_outside_own_definition(ast.parse(path.read_text()))
    assert sorted(set(hadamix.__all__) - used) == []


def _scoped_nodes(tree, scope=()):
    """(node, enclosing definitions) of every node in a module; the
    definitions are the names of the functions and classes the node sits
    in, outermost first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(node, scope + (node.name,))
            continue
        yield node, scope
        yield from _scoped_nodes(node, scope)


def _attribute_reads(tree):
    """(attribute name, enclosing definitions) of every attribute read in a module."""
    return {(node.attr, scope) for node, scope in _scoped_nodes(tree)
            if isinstance(node, ast.Attribute)}


def test_every_public_member_of_an_exported_class_is_used_inside_the_package():
    # a method, property or classmethod is read as an attribute; a read
    # inside its own definition does not count
    package = Path(hadamix.__file__).parent
    reads = set()
    for path in package.glob("*.py"):
        reads |= _attribute_reads(ast.parse(path.read_text()))
    members = {
        (cls.__name__, name)
        for cls in (getattr(hadamix, name) for name in hadamix.__all__)
        if isinstance(cls, type)
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and isinstance(value, (FunctionType, property, classmethod, staticmethod))
    }
    assert {("Subspace", "extend_odot"), ("RMatrix", "from_rows")} <= members
    unused = {
        ".".join(member) for member in members
        if not any(attr == member[1] and scope[:2] != member for attr, scope in reads)
    }
    assert sorted(unused) == []


def test_only_exact_core_reduces_a_basis():
    # how an RREF basis is reduced is exact_core's decision: every other
    # module asks Subspace.contains, extend or extend_odot, imports none of
    # the kernel's helpers and never reads a basis's pivots
    package = Path(hadamix.__file__).parent
    banned = {"_reduce", "_insert", "_adjoin", "_primitive", "_unit_rows", "pivots"}
    found = set()
    for path in package.glob("*.py"):
        if path.stem == "exact_core":
            continue
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in banned:
                found.add(f"{'.'.join((path.stem, *scope))}: {name}")
    assert sorted(found) == []


def test_a_constant_read_by_one_module_is_defined_there():
    # a module-level UPPER_CASE constant states a bound or a table once, in
    # the code it serves; an import is a read by the importing module
    package = Path(hadamix.__file__).parent
    defined, readers = {}, {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        targets = [target for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets]
        targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.lstrip("_").isupper():
                defined[target.id] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.id, set()).add(path.stem)
            elif isinstance(node, ast.alias):
                readers.setdefault(node.name, set()).add(path.stem)
    assert {"SUBSET_SCAN_LIMIT", "EXTENSION_ROW_GUARD", "_PLUS_ONE"} <= set(defined)
    misplaced = {
        name: (module, sorted(readers[name]))
        for name, module in defined.items()
        if len(readers.get(name, ())) == 1 and readers[name] != {module}
    }
    assert misplaced == {}


def test_isdigit_is_called_only_by_the_two_grammar_readers():
    # rational_pair is the one reader of the rational grammar (entries,
    # vectors, integer flags); a moment key is the only other grammar
    package = Path(hadamix.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        callers |= {
            f"{path.stem}.{'.'.join(scope)}"
            for attr, scope in _attribute_reads(ast.parse(path.read_text()))
            if attr == "isdigit"
        }
    assert callers == {"exact_core.rational_pair", "mixture.MomentVector.from_json_obj"}


def test_only_cli_main_touches_the_process_streams():
    # the library never writes to sys.stdout or sys.stderr, so stdout is
    # byte-identical; main() alone reads them, and points argparse at its
    # own streams for one parse
    package = Path(hadamix.__file__).parent
    users = set()
    for path in package.glob("*.py"):
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "sys" and node.attr in ("stdin", "stdout", "stderr")
                    or isinstance(node, ast.Name) and node.id == "print"):
                users.add(f"{path.stem}.{'.'.join(scope)}")
    assert users == {"cli.main"}


def test_a_held_number_is_taken_apart_only_by_as_integer_ratio():
    # one key per rational: no module reads .numerator or .denominator or
    # builds a key of its own (attrgetter, the old _pair); a local variable
    # may still be called `denominator`
    package = Path(hadamix.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name, banned = node.attr, {"numerator", "denominator", "attrgetter"}
            elif isinstance(node, ast.Name):
                name, banned = node.id, {"attrgetter", "_pair"}
            elif isinstance(node, ast.alias):
                name, banned = node.name, {"attrgetter", "_pair"}
            else:
                continue
            if name in banned:
                found.add(f"{'.'.join((path.stem, *scope))}: {name}")
    assert sorted(found) == []


def test_cli_defines_no_document_writer():
    # each streamed document is written next to its reader: the matrix and
    # the projector by exact_core, the moments by mixture; the only JSON the
    # cli writes itself is json.dumps of a handler's dict
    tree = ast.parse((Path(hadamix.__file__).parent / "cli.py").read_text())
    generators = {".".join(scope) for node, scope in _scoped_nodes(tree)
                  if isinstance(node, (ast.Yield, ast.YieldFrom))}
    assert sorted(generators) == []


def test_only_record_skips_post_init():
    # _Record._trusted is the one constructor that skips __post_init__; no
    # record builds an unchecked instance of its own
    package = Path(hadamix.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.add(".".join((path.stem, *scope)))
    assert found == {"exact_core._Record._trusted"}
