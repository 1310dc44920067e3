"""No uncalled definitions in ``src/strathom``.

Every function, class and method defined there (dunders excluded) must
have its name occur somewhere else in the ``.py`` files of ``src/``,
``tests/`` or ``perfbench/``: a call, an import, a reference, a string.
The check counts whole words, so it is blind to names that are also
common words or names of other things: a method ``row`` with no caller
(the one that ``IntMatrix`` had) passes because ``row`` occurs everywhere.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_definition_is_named_elsewhere():
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    defs, where = Counter(), {}
    for path in sorted((ROOT / "src" / "strathom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defs[name] += 1
                    where.setdefault(name, f"{path.relative_to(ROOT)}:{node.lineno}")
    uncalled = sorted(where[n] + " " + n for n, c in defs.items() if words[n] <= c)
    assert not uncalled, "defined but named nowhere else:\n" + "\n".join(uncalled)
