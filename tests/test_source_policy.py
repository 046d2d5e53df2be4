"""Source rules for every module of the package, read with `ast`.

No `assert` statement: `python -O` strips them, so a runtime self-check raises a
typed error instead.  No call of `.elements()`: a whole-field job reads the digit
array or a stored table, not one `Element` per encoding.  No numpy import outside a
function body: only the functions that build or read whole-field tables load it, so
importing the package and counting off the series never do.  No unbounded cache: no
`lru_cache(maxsize=None)`, no `functools.cache`, and no module-level dict that is
written by key but never has a key removed, so what a process keeps has a bound.  No
re-export shim: a private name imported at module level from another package module is
read in the importing module, so each function has one binding that callers, patches and
tracers share.  No guard imported by value: a module-level `*_GUARD` name is read where it
is defined, so patching that one binding moves every check that reads it.  No float or
complex constant and no `cmath` import: counts are exact integers, and so is every route
that checks them.  One list of store kinds: the kinds the package passes to
`field._stored` are the ones named in the comment above `field._TABLES`, each key a
literal tuple, so a kind is not added or dropped without that list.
"""

import ast
import re
from pathlib import Path

import pytest

import diagquartic

MODULES = sorted(Path(diagquartic.__file__).parent.glob("*.py"))


def _run_at_import(node: ast.AST):
    """The nodes below `node` that run when the module is imported: all but the
    bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def _imports(node: ast.AST, package: str) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == package for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == package


# Module-level dicts whose keys come from a fixed set, so they cannot grow without bound
# though no key is ever removed.
BOUNDED_KEYS = {
    ("field.py", "STORE_COUNTS"): "(table kind, hits | builds | evictions)",
}
_DICT_MAKERS = {"dict", "Counter", "defaultdict", "OrderedDict"}


def _name(node: ast.AST) -> str | None:
    """`f` of a Name f or an Attribute x.f."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _unbounded_caches(tree: ast.Module, filename: str):
    """(line, message) for each lru_cache(maxsize=None), each functools.cache, and each
    module-level dict that some statement writes by key and none shrinks."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _name(node.func) == "lru_cache"
                and (any(kw.arg == "maxsize" and _is_none(kw.value) for kw in node.keywords)
                     or (node.args and _is_none(node.args[0])))):
            yield node.lineno, "lru_cache(maxsize=None)"
        elif ((isinstance(node, ast.Attribute) and node.attr == "cache"
               and _name(node.value) == "functools")
              or (isinstance(node, ast.ImportFrom) and node.module == "functools"
                  and any(alias.name == "cache" for alias in node.names))):
            yield node.lineno, "functools.cache"
    dicts = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if isinstance(node.value if targets else None, ast.Dict) or (
                targets and isinstance(node.value, ast.Call)
                and _name(node.value.func) in _DICT_MAKERS):
            dicts.update({t.id: node.lineno for t in targets if isinstance(t, ast.Name)})
    grows, shrinks = set(), set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            if isinstance(target, ast.Subscript) and _name(target.value) in dicts:
                (shrinks if isinstance(node, ast.Delete) else grows).add(target.value.id)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _name(node.func.value) in dicts):
            if node.func.attr in ("setdefault", "update"):
                grows.add(node.func.value.id)
            elif node.func.attr in ("pop", "popitem", "clear"):
                shrinks.add(node.func.value.id)
    for name in sorted(grows - shrinks):
        if (filename, name) not in BOUNDED_KEYS:
            yield dicts[name], f"module-level dict {name} only grows"


def _unread_private_imports(tree: ast.Module):
    """(line, message) for each private name imported at module level from another
    package module (a relative import) and never read in this one."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in _run_at_import(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                name = alias.asname or alias.name
                if name.startswith("_") and name not in read:
                    yield node.lineno, f"private name {name} imported and never read"


def _guards_imported(tree: ast.Module):
    """(line, message) for each `*_GUARD` name imported at module level from another
    package module, which would bind a copy of the guard's value there."""
    for node in _run_at_import(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.endswith("_GUARD"):
                    yield node.lineno, f"guard {alias.name} imported by value"


def _offences(path: Path):
    """Each breach of a rule as "file:line: what", in line order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [(node.lineno, "numpy import at module level")
             for node in _run_at_import(tree) if _imports(node, "numpy")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"{type(node.value).__name__} constant"))
        elif _imports(node, "cmath"):
            found.append((node.lineno, "cmath import"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "elements"):
            found.append((node.lineno, "call of .elements()"))
    found += _unbounded_caches(tree, path.name)
    found += _unread_private_imports(tree)
    found += _guards_imported(tree)
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def _store_kinds(tree: ast.AST) -> set:
    """The kind, key[0], of each `_stored` call's key, or None where the key is not a
    tuple that starts with a string literal."""
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "_stored":
            key = node.args[0] if node.args else None
            first = key.elts[0] if isinstance(key, ast.Tuple) and key.elts else None
            kinds.add(first.value if isinstance(first, ast.Constant)
                      and isinstance(first.value, str) else None)
    return kinds


def _listed_kinds(source: str) -> set:
    """The quoted names in the comment lines just above `_TABLES`."""
    lines = source.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("_TABLES"))
    comment = []
    while at and lines[at - 1].startswith("#"):
        at -= 1
        comment.append(lines[at])
    return set(re.findall(r'"(\w+)"', " ".join(comment)))


def test_store_kinds_are_the_listed_ones():
    used = set().union(*(_store_kinds(ast.parse(path.read_text())) for path in MODULES))
    field_source = next(path for path in MODULES if path.name == "field.py").read_text()
    assert used == _listed_kinds(field_source)


def test_the_store_rule_sees_a_kind_off_the_list():
    source = ('# ("add", fld) or ("gone", g) -> table\n'
              '_TABLES = {}\n'
              'def f(fld, key):\n'
              '    _stored(("add", fld), None)\n'
              '    _stored(("new", fld), None)\n'
              '    return field._stored(key, None)\n')
    assert _listed_kinds(source) == {"add", "gone"}
    assert _store_kinds(ast.parse(source)) == {"add", "new", None}


def test_every_module_is_read():
    assert {"cli.py", "counting.py", "field.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_and_no_element_enumeration(path):
    assert list(_offences(path)) == []


def test_the_rules_see_what_they_forbid(tmp_path):
    module = tmp_path / "mutant.py"
    module.write_text("import numpy as np\n"
                      "def f(fld):\n    import numpy as np\n    assert fld.q > 2\n"
                      "    return list(fld.elements())\n"
                      "import functools\n"
                      "from functools import cache, lru_cache\n"
                      "BUILT = {}\n"
                      "KEPT: dict = dict()\n"
                      "EVICTED = {}\n"
                      "STORE_COUNTS = {}\n"
                      "@functools.lru_cache(maxsize=None)\n"
                      "def g(x):\n"
                      "    BUILT[x] = KEPT.setdefault(x, x)\n"
                      "    EVICTED[x] = x\n"
                      "    STORE_COUNTS[x] = x\n"
                      "    del EVICTED[x]\n"
                      "    return lru_cache(None)(functools.cache(g))\n"
                      "@functools.lru_cache(maxsize=64)\n"
                      "def h(x):\n    return x\n"
                      "from .field import _digits, _weights as _w\n"
                      "READ = _digits\n"
                      "from .field import ORACLE_TABLE_BYTES_GUARD as GUARD, check_bytes\n"
                      "TOL = 1e-6\n"
                      "import cmath\n"
                      "ROOT = 2j\n")
    assert _offences(module) == ["mutant.py:1: numpy import at module level",
                                 "mutant.py:4: assert statement",
                                 "mutant.py:5: call of .elements()",
                                 "mutant.py:7: functools.cache",
                                 "mutant.py:8: module-level dict BUILT only grows",
                                 "mutant.py:9: module-level dict KEPT only grows",
                                 "mutant.py:11: module-level dict STORE_COUNTS only grows",
                                 "mutant.py:12: lru_cache(maxsize=None)",
                                 "mutant.py:18: functools.cache",
                                 "mutant.py:18: lru_cache(maxsize=None)",
                                 "mutant.py:22: private name _w imported and never read",
                                 "mutant.py:24: guard ORACLE_TABLE_BYTES_GUARD imported by "
                                 "value",
                                 "mutant.py:25: float constant",
                                 "mutant.py:26: cmath import",
                                 "mutant.py:27: complex constant"]
