"""Records: no generated code at import, immutable value types, checks kept.

The value types of ``src/strathom`` are ``Record`` tuples and its mutable
records plain classes, so importing the command line loads neither
``dataclasses`` nor ``inspect``.  Each record stays immutable and
hashable, equals exactly the records of its own class with equal fields,
and still checks its arguments on every construction.
"""
import ast
import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strathom.exact_algebra import (ChainComplex, ChainMap, Coefficients,
                                    ComplexValidationError, ExtensionOutcome,
                                    FGModule, IntMatrix, ModuleMap, Presentation,
                                    SmithDecomposition, canonicalize,
                                    split_components)
from strathom.exact_algebra.maps import CanonicalModule, MapComponents, MapValidationError
from strathom.spaces import (AtomSpace, BasisElt, DisjointUnion, IsolatedSing,
                             MappingTorus, OpenCone, SpaceExpr, Suspension,
                             ThomCircle, atom)
from strathom.stratified import Stratum

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_cli_loads_no_code_generator():
    code = ("import sys, strathom.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
            "& set(sys.modules)))")
    # -S: no site hook, so only strathom and the stdlib it needs are loaded
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout == "[]\n"


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((ROOT / "src" / "strathom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.relative_to(ROOT)}:{node.lineno}"
                      for name in names if name.split(".")[0] == "dataclasses"]
    assert not found, "dataclasses imported:\n" + "\n".join(found)


S1, RP3 = atom("S1"), atom("RP3")
Z2 = FGModule(0, (2,))
Z_Z4 = FGModule(1, (4,))


def z2_map():
    return ModuleMap.identity(Z2)


# per formerly frozen record: a factory of one value, and one of another
# value of the same class
RECORDS = {
    "Coefficients": (lambda: Coefficients("Fp", 3), lambda: Coefficients("Fp", 5)),
    "FGModule": (lambda: FGModule(1, (2, 4)), lambda: FGModule(1, (4,))),
    "ExtensionOutcome": (lambda: ExtensionOutcome.of(Z2, FGModule(1)),
                         lambda: ExtensionOutcome.of(Z2, Z2)),
    "SmithDecomposition": (lambda: SmithDecomposition((1, 2), None, None, 3),
                           lambda: SmithDecomposition((1, 2), None, None, 4)),
    "Presentation": (lambda: Presentation.of(Z_Z4), lambda: Presentation.of(Z2)),
    "ModuleMap": (z2_map, lambda: ModuleMap.zero(Z2, Z2)),
    "CanonicalModule": (lambda: canonicalize(Presentation.of(Z_Z4)),
                        lambda: canonicalize(Presentation.of(Z2))),
    "MapComponents": (lambda: split_components(z2_map()),
                      lambda: split_components(ModuleMap.zero(Z2, Z2))),
    "BasisElt": (lambda: BasisElt("a", 1, 2), lambda: BasisElt("a", 1)),
    "SpaceExpr": (SpaceExpr, None),
    "AtomSpace": (lambda: AtomSpace(S1), lambda: AtomSpace(RP3)),
    "OpenCone": (lambda: OpenCone(AtomSpace(S1)), lambda: OpenCone(AtomSpace(RP3))),
    "Suspension": (lambda: Suspension(AtomSpace(S1)), lambda: Suspension(AtomSpace(RP3))),
    "IsolatedSing": (lambda: IsolatedSing(4, (RP3,)), lambda: IsolatedSing(4, (RP3,), "X")),
    "MappingTorus": (lambda: MappingTorus(Suspension(AtomSpace(S1)), ((1, ((1,),)),)),
                     lambda: MappingTorus(Suspension(AtomSpace(S1)), ((1, ((-1,),)),))),
    "ThomCircle": (lambda: ThomCircle(S1, (("a", 2),)), lambda: ThomCircle(S1, (("a", 3),))),
    "DisjointUnion": (lambda: DisjointUnion((AtomSpace(S1),)),
                      lambda: DisjointUnion((AtomSpace(S1), AtomSpace(RP3)))),
    "Stratum": (lambda: Stratum(0, 1, 0, 4, False), lambda: Stratum(0, 2, 0, 4, False)),
}


def test_every_formerly_frozen_record_is_listed():
    assert len(RECORDS) == 18
    for name, (make, _) in RECORDS.items():
        assert type(make()).__name__ == name


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment(name):
    rec = RECORDS[name][0]()
    for field in rec._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    assert rec == RECORDS[name][0]()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    make, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    if other is not None:
        c = other()
        assert a != c and not a == c and type(c) is type(a)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_equals_no_tuple_and_no_record_of_another_class(name):
    rec = RECORDS[name][0]()
    assert rec != tuple(rec) and tuple(rec) != rec
    others = [RECORDS[n][0]() for n in RECORDS if n != name]
    assert all(rec != o for o in others)


def test_space_nodes_of_one_link_are_told_apart():
    link = AtomSpace(S1)
    assert OpenCone(link) != Suspension(link)
    assert len({OpenCone(link), Suspension(link)}) == 2


def test_reprs_name_the_fields():
    assert repr(FGModule(1, (2,))) == "FGModule(rank=1, torsion=(2,))"
    assert repr(Coefficients("Z")) == "Coefficients(kind='Z', p=0)"
    assert repr(BasisElt("a", 2, 3)) == "a[2] (Z/3)"
    assert repr(Stratum(0, 1, 0, 4, False)) == "Stratum(level=0, index=1, dim=0, codim 4)"
    assert Stratum(2, 1, 2, 0, True).index == 1
    assert SmithDecomposition((1, 6), None, None, 9).peak_bits == 4


@pytest.mark.parametrize("build,error,message", [
    (lambda: FGModule(-1), ValueError, "negative rank"),
    (lambda: FGModule(0, (4, 2)), ValueError, "broken divisibility chain"),
    (lambda: FGModule(0, (1, 2)), ValueError, "torsion factors must be >= 2"),
    (lambda: Coefficients("R"), ValueError, "unknown coefficient kind"),
    (lambda: Coefficients("Fp", 4), ValueError, "4 is not prime"),
    (lambda: Coefficients("Fp", 10 ** 30), ValueError, "is too large"),
    (lambda: Presentation(2, IntMatrix(3, 1)), ValueError, "one row per generator"),
    (lambda: ModuleMap(Presentation.free(1), Presentation.free(1), IntMatrix(2, 1)),
     ValueError, "shape does not match"),
    (lambda: ModuleMap(Presentation.of(Z2), Presentation.free(1), IntMatrix.identity(1)),
     MapValidationError, "does not send domain relations"),
])
def test_a_former_post_init_check_still_refuses(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_chain_map_is_checked_but_the_identity_is_not():
    C = ChainComplex("hom", {0: 1, 1: 1}, {1: [{0: 1}]})
    with pytest.raises(ComplexValidationError, match="fails to commute"):
        ChainMap(C, C, {0: IntMatrix.identity(1)})
    with pytest.raises(ComplexValidationError, match="mixed orientations"):
        ChainMap(C, ChainComplex("coh", {0: 1}, {}))
    assert ChainMap(C, C, {0: IntMatrix.identity(1), 1: IntMatrix.identity(1)}).mats
    assert ChainMap.identity(C).mat(1) == IntMatrix.identity(1)


def test_copies_rebuild_through_the_checks():
    assert copy.deepcopy(FGModule(2, (2, 4))) == FGModule(2, (2, 4))
    assert copy.copy(Coefficients("Fp", 7)) == Coefficients("Fp", 7)
    assert isinstance(copy.deepcopy(CanonicalModule(Z2, (2,), IntMatrix.identity(1),
                                                    IntMatrix.identity(1))), CanonicalModule)
    assert isinstance(split_components(z2_map()), MapComponents)
