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

No module of ``src/strathom`` reads an underscore attribute of another
object either: only of ``self``, ``cls`` or the ``other`` argument of a
method (an object of the same class, as in ``__eq__``).  So the blow-up
reads strata through ``stratum_numbers``, not ``X._vertex_stratum``.

Nor does any module of ``src/strathom`` outside ``exact_algebra``'s
``matrices``, ``maps`` and ``modules`` name ``kernel_basis``, ``solve`` or
their mod-p forms: the homology of a complex is read from invariant
factors, and lattice bases live in ``tests/subcomplex_oracle.py``.

And no module of ``src/strathom`` but ``blowup.py`` names
``GlobalBlowupComplex``: every caller reads the one blown-up complex of a
space through ``blowup.global_blowup``, built once per space.
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


def foreign_private_reads(tree) -> list:
    """Line numbers of reads ``x._name`` where x is not ``self``, ``cls``
    or the ``other`` argument of a method."""
    own = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and any(a.arg == "other" for a in fn.args.args):
                own.update(id(node) for node in ast.walk(fn)
                           if isinstance(node, ast.Attribute)
                           and isinstance(node.value, ast.Name) and node.value.id == "other")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__") and id(node) not in own
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


def test_no_private_attribute_of_another_object_is_read():
    found = []
    for path in sorted((ROOT / "src" / "strathom").rglob("*.py")):
        found += [f"{path.relative_to(ROOT)}:{line}"
                  for line in foreign_private_reads(ast.parse(path.read_text()))]
    assert not found, "underscore attribute read on another object:\n" + "\n".join(found)


def test_private_read_check_flags_a_foreign_read():
    tree = ast.parse("class A:\n"
                     "    def f(self, other, X):\n"
                     "        return self._a, other._b, X._c\n"
                     "def g(other):\n"
                     "    return other._d\n")
    assert sorted(foreign_private_reads(tree)) == [3, 5]


LATTICE_NAMES = {"kernel_basis", "kernel_basis_mod_p", "solve", "solve_mod_p"}
MODULE_MAP_LAYER = {"exact_algebra/matrices.py", "exact_algebra/maps.py",
                    "exact_algebra/modules.py"}


def test_no_lattice_basis_outside_the_module_map_layer():
    """Only the matrices and the module maps and modules built on them name
    a saturated kernel or a solve: no complex, engine or report builds a
    lattice basis.  A syntax-tree check, since a recorder on
    ``matrices.solve`` misses a module that imported it by name."""
    found = []
    package = ROOT / "src" / "strathom"
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).as_posix() not in MODULE_MAP_LAYER:
            named = LATTICE_NAMES & set(references(ast.parse(path.read_text())))
            found += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(named)]
    assert not found, "kernel or solve named:\n" + "\n".join(found)


def names_the_global_complex(tree) -> bool:
    return "GlobalBlowupComplex" in references(tree)


def test_only_blowup_builds_the_global_complex():
    """A module that named the class could build a second blown-up
    complex of a space, with its own d o d = 0 check, beside the one that
    ``global_blowup`` shares."""
    package = ROOT / "src" / "strathom"
    found = [path.relative_to(ROOT).as_posix() for path in sorted(package.rglob("*.py"))
             if path.relative_to(package).as_posix() != "blowup.py"
             and names_the_global_complex(ast.parse(path.read_text()))]
    assert not found, "GlobalBlowupComplex named outside blowup.py:\n" + "\n".join(found)


def test_global_complex_check_flags_a_planted_name():
    assert names_the_global_complex(ast.parse(
        "from .blowup import GlobalBlowupComplex\nG = GlobalBlowupComplex(X)\n"))
    assert names_the_global_complex(ast.parse("import strathom.blowup as b\nb.GlobalBlowupComplex(X)\n"))
    assert not names_the_global_complex(ast.parse(
        "from .blowup import global_blowup\nG = global_blowup(X)\n"))
