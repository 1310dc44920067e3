"""Each closed-form module value is built once per command.

``FGModule.zero()`` and a missing degree of a ``GradedModule`` are one
shared zero module; ``FGModule`` is frozen and compares by value, so
sharing it is safe.  A ``ManifoldAtom`` computes its (co)homology once per
ring, on first read, and keeps it on the instance: ``spaces.atom`` builds a
new atom per parse, so no memo outlives the parsed input.  The memo is
safe only while nothing writes a ``GradedModule`` in place, which the
syntax-tree guard below checks.
"""
import ast
import json
from collections import Counter
from pathlib import Path

import pytest

import strathom.cli as cli
from strathom.cli import main
from strathom.exact_algebra import Coefficients, FGModule, GradedModule
from strathom.exact_algebra.modules import verdier_dual_homology
from strathom.spaces import ManifoldAtom, atom

from test_profile_memo import IDS, JOBS, RINGS, job_file

ROOT = Path(__file__).resolve().parent.parent
ZZ = Coefficients("Z")


def test_a_missing_degree_is_the_one_zero_module():
    assert GradedModule({})[7] is FGModule.zero()
    assert GradedModule({0: FGModule.free(1)})[1] is FGModule.zero()
    assert FGModule(0) == FGModule.zero() and FGModule(0, ()) == FGModule.zero()
    assert FGModule.from_factors(0, []) == FGModule.zero()
    assert FGModule.free(2).torsion_part() is FGModule.zero()


def test_a_free_module_skips_only_the_vacuous_checks():
    with pytest.raises(ValueError, match="negative rank"):
        FGModule(-1)
    with pytest.raises(ValueError, match="negative rank"):
        FGModule.from_factors(-1, ())
    assert FGModule.from_factors(2, ()) == FGModule.free(2)
    assert FGModule.from_factors(1, [1, 0]) == FGModule.free(1)
    assert FGModule.from_factors(0, iter([2, 3])) == FGModule(0, (6,))


def recorded_atoms(monkeypatch):
    """Every atom built from here on, in construction order."""
    built = []
    init = ManifoldAtom.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ManifoldAtom, "__init__", recording)
    return built


@pytest.mark.parametrize("label,space,k,n", JOBS, ids=IDS)
def test_one_profile_computes_each_atom_cohomology_once_per_ring(
        tmp_path, capsys, monkeypatch, label, space, k, n):
    computed = Counter()
    compute = ManifoldAtom._compute_cohomology

    def counted(self, ring):
        computed[self, ring] += 1      # keeps the atom alive, so no id is reused
        return compute(self, ring)
    monkeypatch.setattr(ManifoldAtom, "_compute_cohomology", counted)
    assert main(["profile", job_file(tmp_path, space, k), "--json"]) == 0
    capsys.readouterr()
    # up to 9 computations of one atom over one ring before the memo
    assert computed and max(computed.values()) == 1


def test_an_atom_keeps_one_value_per_ring():
    rp3 = atom("RP3")
    for ring in RINGS:
        assert rp3.cohomology(ring) is rp3.cohomology(ring)
        assert rp3.homology(ring) is rp3.homology(ring)
    assert rp3.cohomology(ZZ) is rp3.cohomology()
    assert rp3.cohomology(ZZ)[2] == FGModule(0, (2,))
    assert rp3.homology(ZZ)[1] == FGModule(0, (2,))
    assert rp3.cohomology(Coefficients("Fp", 2))[1] == FGModule.free(1)
    # two parses, two atoms: no memo is shared between parsed inputs
    assert atom("RP3").cohomology(ZZ) is not rp3.cohomology(ZZ)


def fresh_cohomology(a, ring):
    return a._compute_cohomology(ring)


def fresh_homology(a, ring):
    H = a._compute_cohomology(ring)
    return H if ring.is_field else verdier_dual_homology(H)


@pytest.mark.parametrize("label,space,k,n", JOBS, ids=IDS)
def test_no_report_path_mutates_a_memoised_atom_value(tmp_path, capsys, monkeypatch,
                                                      label, space, k, n):
    built = recorded_atoms(monkeypatch)
    path = job_file(tmp_path, space, k)
    every = ",".join(str(v) for v in range(n - 1))
    for ring in ("Z", "Q", "F2"):
        for flags in (["--json"], [], ["--json", "--strict"], ["--engine", "both"]):
            main(["profile", path, "--perversity", every, "--ring", ring] + flags)
    capsys.readouterr()
    seen = set()
    for a in built:
        for ring, H in a._cohomology.items():
            assert H == fresh_cohomology(a, ring), (a.name, ring)
            seen.add(ring)
        for ring, H in a._homology.items():
            assert H == fresh_homology(a, ring), (a.name, ring)
    # a Thom space over a field reads no cohomology of its base
    assert seen == ({ZZ} if label.startswith("thom") else set(RINGS))


def bypass_memo(monkeypatch):
    monkeypatch.setattr(ManifoldAtom, "cohomology",
                        lambda self, ring=ZZ: fresh_cohomology(self, ring))
    monkeypatch.setattr(ManifoldAtom, "homology",
                        lambda self, ring=ZZ: fresh_homology(self, ring))


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("label,space,k,n", JOBS, ids=IDS)
def test_reports_equal_those_built_without_the_memo(monkeypatch, label, space, k, n,
                                                    ring):
    def reports():
        parsed = cli.read_space(json.loads(json.dumps(space)))
        out = []
        for apex in range(n - 1):
            try:
                out.append(cli.symbolic_report(parsed, apex, ring))
            except ValueError as e:
                out.append(str(e))
        return out

    memoised = reports()
    with monkeypatch.context() as m:
        bypass_memo(m)
        direct = reports()
    assert memoised == direct
    assert [cli.report_to_json(r, "") for r in memoised if not isinstance(r, str)] == \
        [cli.report_to_json(r, "") for r in direct if not isinstance(r, str)]


MUTATORS = {"clear", "pop", "popitem", "setdefault", "update"}


def graded_data_writes(tree) -> list:
    """Line numbers that assign, delete or update an attribute ``_data`` or
    an item of it, or call a mutating dict method on it."""
    def is_data(node):
        return isinstance(node, ast.Attribute) and node.attr == "_data"

    def written(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(written(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return written(target.value)
        return is_data(target) or (isinstance(target, ast.Subscript) and is_data(target.value))

    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        if any(written(t) for t in targets):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and is_data(node.func.value)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "_data"):
            lines.append(node.lineno)
    return lines


def test_only_modules_writes_graded_module_data():
    modules = ROOT / "src" / "strathom" / "exact_algebra" / "modules.py"
    found = []
    for d in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path != modules:
                found += [f"{path.relative_to(ROOT)}:{line}"
                          for line in graded_data_writes(ast.parse(path.read_text()))]
    assert not found, "GradedModule._data written outside modules.py:\n" + "\n".join(found)
    # the one write it allows is seen
    assert graded_data_writes(ast.parse(modules.read_text()))


def test_data_write_check_flags_planted_writes():
    tree = ast.parse("H._data = {}\n"
                     "H._data[3] = m\n"
                     "H._data.update(x)\n"
                     "del H._data[1]\n"
                     "a, H._data = 1, {}\n"
                     "setattr(H, '_data', {})\n"
                     "x = H._data.get(1)\n"
                     "y = dict(H._data)\n")
    assert sorted(graded_data_writes(tree)) == [1, 2, 3, 4, 5, 6]
