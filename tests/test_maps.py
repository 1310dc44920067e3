"""Module maps: kernels, cokernels, torsion/free splitting, subgroups."""
import contextlib
import io
import json

import pytest

import strathom.exact_algebra.maps as maps
from algebra_oracle import cyclic
from strathom.cli import main
from strathom.exact_algebra import (FGModule, IntMatrix, ModuleMap,
                                    Presentation, ker_coker, smith,
                                    split_components)
from strathom.exact_algebra.maps import (MapValidationError, canonicalize,
                                         connecting_map, subgroup_presentation)
from strathom.exact_algebra.matrices import solve

Z = FGModule.free
Zmod = cyclic


def FG(rank, *factors):
    return FGModule.from_factors(rank, factors)


class TestKerCoker:
    def test_multiplication_by_two(self):
        f = ModuleMap.between(Z(1), Z(1), [[2]])
        k, c = ker_coker(f)
        assert k.is_zero and c == Zmod(2)

    def test_identity_on_z2_squared(self):
        f = ModuleMap.identity(FG(0, 2, 2))
        k, c = ker_coker(f)
        assert k.is_zero and c.is_zero

    def test_shear_minus_identity_on_z2_squared(self):
        # (x, y) -> (x+y, -x) minus the identity, over Z/2 + Z/2
        f = ModuleMap.between(FG(0, 2, 2), FG(0, 2, 2), [[0, 1], [-1, -1]])
        k, c = ker_coker(f)
        assert k.is_zero and c.is_zero

    def test_torsion_kernel(self):
        f = ModuleMap.between(Zmod(4), Zmod(4), [[2]])
        k, c = ker_coker(f)
        assert k == Zmod(2) and c == Zmod(2)

    def test_invalid_map_rejected(self):
        # Z/2 -> Z cannot send the generator to 1
        with pytest.raises(MapValidationError):
            ModuleMap.between(Zmod(2), Z(1), [[1]])

    def test_is_iso(self):
        assert ModuleMap.identity(FG(2, 4)).is_iso()
        assert not ModuleMap.between(Z(1), Z(1), [[3]]).is_iso()


class TestSplitComponents:
    def test_mixed_free_torsion_target(self):
        # (a, b) -> (3a, 3b, b mod 2): Z^2 -> Z^2 + Z/2
        chi = ModuleMap.between(Z(2), FG(2, 2), [[3, 0], [0, 3], [0, 1]])
        comp = split_components(chi)
        assert comp.kernel.is_zero
        assert comp.cokernel == FG(0, 3, 6)
        assert comp.coker_F == FG(0, 3, 3)
        assert comp.ker_T.is_zero
        assert comp.coker_T == Zmod(2)

    def test_torsion_only(self):
        chi = ModuleMap.zero(Zmod(2), FGModule.zero())
        comp = split_components(chi)
        assert comp.ker_T == Zmod(2)

    def test_projection_to_free(self):
        # H -> F H kills torsion
        chi = ModuleMap.between(FG(1, 2), Z(1), [[1, 0]])
        comp = split_components(chi)
        assert comp.ker_T == Zmod(2)
        assert comp.coker_F.is_zero and comp.coker_T.is_zero


class TestSubgroups:
    def test_subgroup_of_free(self):
        amb = Presentation.free(2)
        gens = IntMatrix.from_rows([[2, 0], [0, 3]])
        pres, incl = subgroup_presentation(amb, gens)
        assert pres.module() == Z(2)
        k, c = incl.ker_coker()
        assert k.is_zero and c == Zmod(6)

    def test_subgroup_with_ambient_torsion(self):
        # inside Z + Z/4, the subgroup generated by (2, 0) and (0, 2)
        amb = Presentation.of(FG(1, 4))
        gens = IntMatrix.from_rows([[2, 0], [0, 2]])
        pres, incl = subgroup_presentation(amb, gens)
        assert pres.module() == FG(1, 2)

    def test_connecting_map(self):
        amb = Presentation.free(1)
        small = IntMatrix.from_rows([[4]])
        big = IntMatrix.from_rows([[2]])
        conn = connecting_map(small, big, amb)
        s_pres, _ = subgroup_presentation(amb, small)
        b_pres, _ = subgroup_presentation(amb, big)
        f = ModuleMap(s_pres, b_pres, conn)
        k, c = f.ker_coker()
        assert k.is_zero and c == Zmod(2)

    def test_canonicalize(self):
        pres = Presentation(3, IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]]))
        cano = canonicalize(pres)
        assert cano.module == FG(1, 2, 6)


# The closed-form profiles of the acceptance criteria 1-6 and 11, whose
# kernels, cokernels and subgroups build image lattices.
CLOSED_FORM = [
    ({"type": "suspension", "of": {"type": "atom", "name": "RP3"}}, 1),
    ({"type": "suspension",
      "of": {"type": "product", "factors": ["S1", "S1", "RP3"]}}, 2),
    ({"type": "suspension", "of": {"type": "product", "factors": ["RP3", "S2"]}}, 1),
    ({"type": "thom_circle", "base": {"type": "atom", "name": "S2"},
      "euler": {"s2": 2}}, 1),
    ({"type": "thom_circle",
      "base": {"type": "product", "factors": ["RP3", "CP2", "S1"]},
      "euler": {"a": 1, "w": 3}}, 4),
    ({"type": "thom_circle", "base": {"type": "product", "factors": ["S2", "RP3", "S3"]},
      "euler": {"s2": 3, "a": 1}}, 4),
    ({"type": "mapping_torus",
      "of": {"type": "suspension",
             "of": {"type": "product", "factors": ["S1", "S1", "RP3"]}},
      "action": {"3": [[1, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, -1], [0, 0, 1, 0]]}}, 2),
    ({"type": "suspension", "of": {"type": "atom", "name": "T2"}}, 0),
]


def inverse_times_diagonal(m: IntMatrix) -> IntMatrix:
    """The image basis U^-1.D from the Smith form U.m.V = D."""
    sd = smith(m, need_U=True, need_V=False)
    Uinv = solve(sd.U, IntMatrix.identity(m.rows))
    return IntMatrix.from_columns(
        [{i: d * v for i, v in Uinv.column(k).items()} for k, d in enumerate(sd.diagonal)],
        m.rows)


def test_column_span_basis_is_inverse_times_diagonal(monkeypatch, tmp_path):
    seen = []

    def recorded(m):
        seen.append(m)
        return span_basis(m)
    span_basis = maps._column_span_basis
    monkeypatch.setattr(maps, "_column_span_basis", recorded)
    for n, (space, k) in enumerate(CLOSED_FORM):
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps({"space": space, "perversity": k, "ring": "Z"}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["profile", str(path), "--json", "--strict"]) == 0
    monkeypatch.undo()
    assert seen
    for m in seen:
        assert maps._column_span_basis(m) == inverse_times_diagonal(m), m
