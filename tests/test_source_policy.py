"""Source rules for every module of the package, read with `ast`.

No `assert` statement: `python -O` strips them, so a runtime self-check raises a
typed error instead.  No call of `.elements()`: a whole-field job reads the digit
array or a stored table, not one `Element` per encoding.
"""

import ast
from pathlib import Path

import pytest

import diagquartic

MODULES = sorted(Path(diagquartic.__file__).parent.glob("*.py"))


def _offences(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
    module.write_text("def f(fld):\n    assert fld.q > 2\n    return list(fld.elements())\n")
    assert list(_offences(module)) == ["mutant.py:2: assert statement",
                                       "mutant.py:3: call of .elements()"]
