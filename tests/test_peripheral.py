"""Pairing components, peripheral assembly, verdicts, duality checks."""
import pytest

from algebra_oracle import cyclic
from strathom.exact_algebra import (FGModule, GradedModule, GradedModuleMap,
                                    ModuleMap)
from strathom.peripheral import components, peripheral, verdicts
from strathom.spaces import (AtomSpace, DisjointUnion, MappingTorus,
                             Suspension, ThomCircle, atom, atom_renamed,
                             eval_expression, eval_manifold, eval_suspension,
                             eval_thom_circle, product_atom)

Z = FGModule.free
Zmod = cyclic


def FG(rank, *factors):
    return FGModule.from_factors(rank, factors)


class TestComponents:
    def test_identity(self):
        chi = GradedModuleMap(maps={0: ModuleMap.identity(FG(1, 2))})
        F, TK, TC = components(chi)
        assert F.is_zero() and TK.is_zero() and TC.is_zero()

    def test_multiplication_by_two(self):
        chi = GradedModuleMap(maps={2: ModuleMap.between(Z(1), Z(1), [[2]])})
        F, TK, TC = components(chi)
        assert F == GradedModule({2: Zmod(2)})
        assert TK.is_zero() and TC.is_zero()

    def test_mixed_example(self):
        chi = GradedModuleMap(maps={
            5: ModuleMap.between(Z(2), FG(2, 2), [[3, 0], [0, 3], [0, 1]]),
            6: ModuleMap.zero(Zmod(2), FGModule.zero()),
        })
        F, TK, TC = components(chi)
        assert F == GradedModule({5: FG(0, 3, 3)})
        assert TC == GradedModule({5: Zmod(2)})
        assert TK == GradedModule({6: Zmod(2)})

    def test_rational_iso_required(self):
        chi = GradedModuleMap(maps={0: ModuleMap.zero(Z(1), Z(1))})
        with pytest.raises(ValueError):
            components(chi)


class TestPeripheral:
    def test_iso_trivial(self):
        chi = GradedModuleMap(maps={0: ModuleMap.identity(FG(1, 4))})
        assert peripheral(chi) == {}

    def test_suspension_data(self):
        pr = eval_suspension(atom("RP3"), 1)
        e = pr.peripheral_group(2)
        assert e.order() == 4 and e.resolved == FG(0, 2, 2)

    def test_thom_exact(self):
        pr = eval_thom_circle(ThomCircle(atom("S2"), (("s2", 2),)), 1)
        assert pr.peripheral_group(2).resolved == Zmod(2)

    def test_degreewise_ends(self):
        chi = GradedModuleMap(maps={
            5: ModuleMap.between(Z(2), FG(2, 2), [[3, 0], [0, 3], [0, 1]]),
            6: ModuleMap.zero(Zmod(2), FGModule.zero()),
        })
        P = peripheral(chi)
        assert set(P) == {5}
        assert P[5].sub == FG(0, 3, 6) and P[5].quot == Zmod(2)
        assert P[5].order() == 36


def thom_s2():
    return eval_thom_circle(ThomCircle(atom("S2"), (("s2", 2),)), 1)


def thom_srs():
    B = product_atom(atom("S2"), atom("RP3"), atom("S3"))
    return eval_thom_circle(ThomCircle(B, (("s2", 3), ("a", 1))), 4)


class TestVerdicts:
    def test_suspension_rp3(self):
        pr = eval_suspension(atom("RP3"), 1)
        rep = verdicts(pr, eval_suspension(atom("RP3"), 1))
        assert rep.torsion_free_pairing == "non-singular"
        assert rep.torsion_pairing == "degenerate"
        assert rep.poincare_duality is False
        assert rep.passed()

    def test_thom_s2(self):
        rep = verdicts(thom_s2(), thom_s2())
        assert rep.torsion_free_pairing == "singular"
        assert rep.torsion_pairing == "non-singular"
        assert rep.passed()

    def test_thom_s2_rp3_s3(self):
        rep = verdicts(thom_srs(), thom_srs())
        assert rep.torsion_free_pairing == "singular"
        assert rep.torsion_pairing == "degenerate"
        assert rep.passed()

    def test_manifold_all_non_singular(self):
        rep = verdicts(eval_manifold(atom("T2")), eval_manifold(atom("T2")))
        assert rep.torsion_free_pairing == "non-singular"
        assert rep.torsion_pairing == "non-singular"
        assert rep.poincare_duality is True
        assert rep.passed()

    def test_duality_without_local_condition(self):
        M = product_atom(atom("S1"), atom_renamed(atom("S1"), "b"), atom("RP3"))
        L = Suspension(AtomSpace(M))
        act = ((3, ((1, -1, 0, 0), (1, 0, 0, 0),
                    (0, 0, 1, -1), (0, 0, 1, 0))),)
        pr = eval_expression(MappingTorus(L, act), 2)
        rep = verdicts(pr)
        assert rep.poincare_duality is True
        assert rep.locally_torsion_free is False
        assert rep.passed()

    def test_order_bookkeeping_runs(self):
        rep = verdicts(thom_srs(), thom_srs())
        names = {c.name: c.status for c in rep.checks}
        assert names["peripheral order bookkeeping"] == "pass"
        assert names["component sequence balance"] == "pass"
        assert names["verdict coherence"] == "pass"

    def test_cross_perversity_checks(self):
        # susp(T2) at value 0 against its complement at value 1
        rep = verdicts(eval_suspension(atom("T2"), 0),
                       eval_suspension(atom("T2"), 1))
        names = {c.name: c.status for c in rep.checks}
        assert names["torsion component duality"] == "pass"
        assert names["peripheral self-duality"] == "pass"
        assert names["free/torsion cohomology duality"] == "pass"

    def test_disjoint_union_keeps_partial_flag(self):
        # the Thom space lists its graded groups only through degree k + 1;
        # the union must say so, or the duality check compares partial
        # groups and reports a spurious fail
        expr = DisjointUnion((ThomCircle(atom("S2"), (("s2", 2),)),
                              AtomSpace(atom("S4"))))
        prof, dual = eval_expression(expr, 0), eval_expression(expr, 2)
        assert prof.graded_complete is False and dual.graded_complete is False
        names = {c.name: c for c in verdicts(prof, dual).checks}
        check = names["free/torsion cohomology duality"]
        assert check.status == "skipped"
        assert check.detail == "graded groups unavailable or partial"

    def test_checks_skipped_without_dual(self):
        rep = verdicts(eval_suspension(atom("RP3"), 1))
        names = {c.name: c.status for c in rep.checks}
        assert names["torsion component duality"] == "skipped"

    def test_torsion_duality_off_middle_perversity(self):
        # susp(RP3 x S2): n = 6, p = 1 against Dp = 3; the torsion
        # components sit in different degrees on the two sides and are
        # matched by the degree reflection k -> n + 1 - k
        M = product_atom(atom("RP3"), atom("S2"))
        pr, dual = eval_suspension(M, 1), eval_suspension(M, 3)
        assert pr.comp_TK == GradedModule({3: Zmod(2)})
        assert dual.comp_TC == GradedModule({4: Zmod(2)})
        rep = verdicts(pr, dual)
        names = {c.name: c for c in rep.checks}
        assert names["torsion component duality"].status == "pass"
        assert names["peripheral self-duality"].status == "pass"
        assert names["free/torsion cohomology duality"].status == "pass"
        rep2 = verdicts(dual, pr)
        assert rep2.passed()
