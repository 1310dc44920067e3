"""No uncalled definitions in ``src/strathom``.

Every function, class and method defined there (dunders excluded) must be
referenced somewhere in the ``.py`` files of ``src/``, ``tests/`` or
``perfbench/``.  A reference is a node of the syntax tree: a name, an
attribute, an imported name, or a string constant that is an identifier
(``perfbench/tracing.py`` names its ``TARGETS`` so, and ``__all__``,
``getattr`` and ``monkeypatch.setattr`` name functions so).  Words in
docstrings and comments do not count, so a docstring that mentions a
dead method does not keep it alive.  The check matches names, not
bindings: a method ``row`` with no caller still passes while anything
else reads an attribute or a variable called ``row``.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def references(tree) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out[node.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def test_every_definition_is_named_elsewhere():
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    refs = Counter()
    for p in files:
        refs.update(references(ast.parse(p.read_text())))
    uncalled = []
    for path in sorted((ROOT / "src" / "strathom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and not refs[name]:
                    uncalled.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not uncalled, "defined but referenced nowhere:\n" + "\n".join(uncalled)
