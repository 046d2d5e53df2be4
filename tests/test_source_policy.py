"""Source rules for every module of the package, read with `ast`.

No `assert` statement: `python -O` strips them, so a runtime self-check raises a
typed error instead.  No call of `.elements()`: a whole-field job reads the digit
array or a stored table, not one `Element` per encoding.  No numpy import outside a
function body: only the functions that build or read whole-field tables load it, so
importing the package and counting off the series never do.
"""

import ast
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


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy"


def _offences(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in _run_at_import(tree):
        if _imports_numpy(node):
            yield f"{path.name}:{node.lineno}: numpy import at module level"
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "elements"):
            yield f"{path.name}:{node.lineno}: call of .elements()"


def test_every_module_is_read():
    assert {"cli.py", "counting.py", "field.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_and_no_element_enumeration(path):
    assert list(_offences(path)) == []


def test_the_rules_see_what_they_forbid(tmp_path):
    module = tmp_path / "mutant.py"
    module.write_text("import numpy as np\n"
                      "def f(fld):\n    import numpy as np\n    assert fld.q > 2\n"
                      "    return list(fld.elements())\n")
    assert list(_offences(module)) == ["mutant.py:1: numpy import at module level",
                                       "mutant.py:4: assert statement",
                                       "mutant.py:5: call of .elements()"]
