"""Closed-form evaluators: cones, suspensions, isolated singularities,
mapping tori, Thom spaces of circle bundles."""
import pytest

from algebra_oracle import cyclic
from strathom.blowup import blowup_cohomology
from strathom.chains import intersection_cohomology, intersection_homology
from strathom.exact_algebra import Coefficients, FGModule, GradedModule, smith
from strathom.spaces import (AtomSpace, DisjointUnion, IsolatedSing,
                             MappingTorus, Suspension, ThomCircle, atom,
                             atom_renamed, circle_bundle_cohomology,
                             eval_cone, eval_expression, eval_isolated,
                             eval_mapping_torus, eval_suspension,
                             eval_thom_circle, product_atom,
                             relative_suspension)
from strathom.stratified import Perversity
from strathom.triangulations import triangulation_of

Z = FGModule.free
Zmod = cyclic


def FG(rank, *factors):
    return FGModule.from_factors(rank, factors)


def s1s1rp3():
    return product_atom(atom("S1"), atom_renamed(atom("S1"), "b"), atom("RP3"))


class TestAtoms:
    def test_registry(self):
        for name, dim in [("S1", 1), ("S2", 2), ("S3", 3), ("T2", 2),
                          ("RP3", 3), ("CP2", 4)]:
            a = atom(name)
            assert a.dim == dim and a.orientable

    def test_rp3_cohomology(self):
        h = atom("RP3").cohomology()
        assert h == GradedModule({0: Z(1), 2: Zmod(2), 3: Z(1)})

    def test_homology_inverts_universal_coefficients(self):
        h = atom("RP3").homology()
        assert h == GradedModule({0: Z(1), 1: Zmod(2), 3: Z(1)})

    def test_poincare_sanity_enforced(self):
        from strathom.spaces import BasisElt, ManifoldAtom
        with pytest.raises(ValueError):
            ManifoldAtom("bad", 3, [BasisElt("1", 0), BasisElt("x", 1)])

    def test_field_cohomology(self):
        h = atom("RP3").cohomology(Coefficients("Fp", 2))
        assert [h[j].rank for j in range(4)] == [1, 1, 1, 1]
        h = atom("RP3").cohomology(Coefficients("Q"))
        assert [h[j].rank for j in range(4)] == [1, 0, 0, 1]

    def test_product_kunneth(self):
        M = s1s1rp3()
        h = M.cohomology()
        assert h[3] == FG(1, 2, 2)
        assert h[5] == Z(1)

    def test_product_tor_refused(self):
        with pytest.raises(ValueError):
            product_atom(atom("RP3"), atom_renamed(atom("RP3"), "b"))

    def test_cup_map(self):
        cp2 = atom("CP2")
        m = cp2.cup_map({"w": 1}, 2)
        assert m.is_iso()   # w cup w generates H^4


class TestCone:
    def test_rp3_value_one(self):
        pr = eval_cone(atom("RP3"), 1)
        assert pr.gh_dual == GradedModule({0: Z(1), 2: Zmod(2)})
        assert pr.h_blowup == GradedModule({0: Z(1)})
        assert pr.peripheral_group(2).resolved == Zmod(2)
        assert pr.gh_dual_c == GradedModule({4: Z(1)})
        assert pr.h_blowup_c == GradedModule({3: Zmod(2), 4: Z(1)})

    def test_sphere_links_trivial(self):
        for k in (0, 1):
            pr = eval_cone(atom("S3"), k)
            assert pr.peripheral == {}
            assert pr.locally_torsion_free() is True

    def test_big_product_link(self):
        pr = eval_cone(s1s1rp3(), 2)
        assert pr.peripheral_group(3).resolved == FG(0, 2, 2)

    def test_apex_range_checked(self):
        with pytest.raises(ValueError):
            eval_cone(atom("RP3"), 3)


class TestSuspension:
    def test_rp3(self):
        pr = eval_suspension(atom("RP3"), 1)
        assert pr.comp_TK == GradedModule({3: Zmod(2)})
        assert pr.comp_TC == GradedModule({2: Zmod(2)})
        assert pr.comp_F == GradedModule({})
        e = pr.peripheral_group(2)
        assert e.resolved == FG(0, 2, 2) and e.order() == 4

    def test_s1s1rp3(self):
        pr = eval_suspension(s1s1rp3(), 2)
        assert pr.comp_TK == GradedModule({4: FG(0, 2, 2)})
        assert pr.comp_TC == GradedModule({3: FG(0, 2, 2)})

    def test_torsion_free_link_trivial(self):
        pr = eval_suspension(atom("T2"), 1)
        assert pr.peripheral == {} and pr.comp_TK == GradedModule({})

    def test_graded_groups(self):
        pr = eval_suspension(atom("RP3"), 1)
        assert pr.h_blowup == GradedModule({0: Z(1), 3: Zmod(2), 4: Z(1)})
        assert pr.gh_dual == GradedModule({0: Z(1), 2: Zmod(2), 4: Z(1)})
        assert pr.gh_lower == GradedModule({0: Z(1), 1: Zmod(2), 4: Z(1)})

    def test_field_ring_trivial_peripheral(self):
        pr = eval_suspension(atom("RP3"), 1, Coefficients("Fp", 2))
        assert pr.peripheral == {}
        assert pr.locally_torsion_free() is True


class TestIsolated:
    def test_two_rp3_links(self):
        pr = eval_isolated(IsolatedSing(4, (atom("RP3"), atom("RP3"))), 1)
        assert pr.peripheral_group(2).resolved == FG(0, 2, 2)

    def test_sphere_links(self):
        pr = eval_isolated(IsolatedSing(4, (atom("S3"),)), 1)
        assert pr.peripheral == {}

    def test_circle_bundle_link(self):
        # the circle bundle over S^2 with Euler number 2 has the real
        # projective 3-space pattern: torsion Z/2 in degree 2
        cb = circle_bundle_cohomology(atom("S2"), {"s2": 2})
        assert cb[2].resolved == Zmod(2)
        assert cb[0].resolved == Z(1) and cb[3].resolved == Z(1)
        pr = eval_isolated(IsolatedSing(4, (atom("RP3"),)), 1)
        assert pr.peripheral_group(2).resolved == Zmod(2)


def suspended_shear_action():
    """f*(a x u) = (a+b) x u, f*(b x u) = -a x u on both cone copies."""
    return ((3, ((1, -1, 0, 0), (1, 0, 0, 0),
                 (0, 0, 1, -1), (0, 0, 1, 0))),)


class TestMappingTorus:
    def test_identity_gives_circle_product_behaviour(self):
        L = Suspension(AtomSpace(s1s1rp3()))
        ident = ((3, tuple(tuple(1 if i == j else 0 for j in range(4))
                           for i in range(4))),)
        pr = eval_mapping_torus(MappingTorus(L, ident), 2)
        assert pr.peripheral_group(2).quot == FG(0, 2, 2, 2, 2)
        assert pr.peripheral_group(3).sub == FG(0, 2, 2, 2, 2)

    def test_shear_kills_peripheral(self):
        L = Suspension(AtomSpace(s1s1rp3()))
        pr = eval_mapping_torus(MappingTorus(L, suspended_shear_action()), 2)
        assert pr.peripheral == {}
        assert pr.locally_torsion_free() is False
        bad = [r for r in pr.ltf if not r.ok]
        assert all(r.torsion == FG(0, 2, 2) for r in bad)

    def test_non_automorphism_rejected(self):
        L = Suspension(AtomSpace(s1s1rp3()))
        squash = ((3, tuple(tuple(0 for _ in range(4)) for _ in range(4))),)
        with pytest.raises(ValueError):
            eval_mapping_torus(MappingTorus(L, squash), 2)


class TestThomCircle:
    def test_s2_euler_two(self):
        pr = eval_thom_circle(ThomCircle(atom("S2"), (("s2", 2),)), 1)
        assert pr.comp_F == GradedModule({2: Zmod(2)})
        assert pr.comp_TC == GradedModule({}) and pr.comp_TK == GradedModule({})
        assert pr.peripheral_group(2).resolved == Zmod(2)
        chi = pr.chi_maps[2]
        assert chi.dom.module() == Z(1) and chi.cod.module() == Z(1)
        assert smith(chi.mat, False, False).diagonal == (2,)

    def test_rp3_cp2_s1(self):
        B = product_atom(atom("RP3"), atom("CP2"), atom("S1"))
        pr = eval_thom_circle(ThomCircle(B, (("a", 1), ("w", 3))), 4)
        assert pr.comp_F == GradedModule({5: FG(0, 3, 3)})
        assert pr.comp_TC == GradedModule({})
        assert pr.comp_TK == GradedModule({})
        assert pr.peripheral_group(5).resolved == FG(0, 3, 3)

    def test_s2_rp3_s3(self):
        B = product_atom(atom("S2"), atom("RP3"), atom("S3"))
        pr = eval_thom_circle(ThomCircle(B, (("s2", 3), ("a", 1))), 4)
        assert pr.comp_F == GradedModule({5: FG(0, 3, 3)})
        assert pr.comp_TC == GradedModule({5: Zmod(2)})
        assert pr.comp_TK == GradedModule({6: Zmod(2)})
        e = pr.peripheral_group(5)
        assert e.order() == 36
        assert e.sub == FG(0, 3, 6) and e.quot == Zmod(2)
        assert e.consistent_with(FG(0, 6, 6))
        chi = pr.chi_maps[5]
        assert chi.dom.module() == Z(2)
        assert chi.cod.module() == FG(2, 2)
        kk, cc = chi.ker_coker()
        assert kk.is_zero and cc == FG(0, 3, 6)
        # blown-up and dual groups in the critical degree
        assert pr.h_blowup[5] == Z(2)
        assert pr.gh_dual[5] == FG(2, 2)

    def test_ltf_witness(self):
        pr = eval_thom_circle(ThomCircle(atom("S2"), (("s2", 2),)), 1)
        assert pr.locally_torsion_free() is False
        assert pr.ltf[0].torsion == Zmod(2)


class TestRelativeSuspension:
    def test_cp2_s1(self):
        M = product_atom(atom("CP2"), atom("S1"))
        rel = relative_suspension(M, 1, 3)
        assert set(rel) == {2, 3}
        assert rel[2].resolved == Z(2)
        assert rel[3].resolved == Z(2)

    def test_equal_values_trivial(self):
        M = product_atom(atom("CP2"), atom("S1"))
        assert relative_suspension(M, 1, 1) == {}

    def test_sphere_link_vanishing_band(self):
        assert relative_suspension(atom("S3"), 0, 2) == {}

    def test_not_all_torsion(self):
        # the relative groups can be free, unlike the peripheral ones
        M = product_atom(atom("CP2"), atom("S1"))
        rel = relative_suspension(M, 1, 3)
        assert all(e.resolved.is_free for e in rel.values())


class TestEvalExpression:
    def test_dispatch(self):
        pr = eval_expression(Suspension(AtomSpace(atom("RP3"))), 1)
        assert pr.name == "susp(RP3)"
        pr = eval_expression(AtomSpace(atom("T2")), 0)
        assert pr.peripheral == {}

    def test_disjoint_union(self):
        e = DisjointUnion((Suspension(AtomSpace(atom("RP3"))),
                           Suspension(AtomSpace(atom("S3")))))
        pr = eval_expression(e, 1)
        assert pr.peripheral_group(2).resolved == FG(0, 2, 2)
        assert pr.locally_torsion_free() is False


@pytest.mark.parametrize("ring", ["Z", "Q", "F2", "F3"])
@pytest.mark.parametrize("name", ["S1", "S2", "S3", "T2", "RP2", "RP3"])
def test_atom_groups_match_its_triangulation(name, ring):
    # On a manifold (no singular stratum) both engines compute the atom's
    # own groups.  Over F_p this pins ManifoldAtom.cohomology's change of
    # coefficients, H^j (x) F_p + Tor(H^(j+1), F_p), which is not the
    # Hom/Ext dual of verdier_dual_cohomology.
    R = Coefficients.parse(ring)
    X = triangulation_of(name)
    p = Perversity(X, {})
    a = atom(name)
    assert intersection_cohomology(X, p, R) == a.cohomology(R)
    assert blowup_cohomology(X, p, R) == a.cohomology(R)
    assert intersection_homology(X, p, R) == a.homology(R)
