"""The README names only what the package defines, and its example runs."""

import ast
import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ("cli", "counting", "cyclotomy", "errors", "expsums", "field", "genfunc")


def test_cited_names_resolve():
    cited = re.findall(rf"`({'|'.join(MODULES)})\.(\w+)[`(]", README)
    assert len(cited) >= 20
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"diagquartic.{module}"), name)]
    assert missing == []


def test_library_example_counts_8():
    source = README.split("## Library example")[1].split("```python\n")[1].split("```")[0]
    namespace, values = {}, []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert values[0] == 8
