"""Acceptance suite: the thirteen headline results, exact arithmetic.

Every criterion prints one pass/fail line (run with -s to see them all)
and asserts both the values and its runtime budget.
"""
import random
import time

from strathom.blowup import GlobalBlowupComplex, blowup_cohomology
from strathom.chains import (intersection_cohomology, intersection_complex,
                             intersection_homology)
from strathom.exact_algebra import (Coefficients, FGModule, GradedModule,
                                    IntMatrix, kunneth, smith)
from strathom.exact_algebra import \
    verdier_dual_cohomology as cohomology_via_uct
from strathom.peripheral import verdicts
from strathom.spaces import (AtomSpace, MappingTorus, Suspension, ThomCircle,
                             atom, atom_renamed, eval_expression,
                             eval_manifold, eval_suspension, eval_thom_circle,
                             product_atom, relative_suspension)
from strathom.stratified import Perversity
from strathom.triangulations import (projective_plane, projective_space_3,
                                     sphere, torus)
from subcomplex_oracle import Lattice

Z = FGModule.free
Zmod = FGModule.cyclic
ZZ = Coefficients("Z")


def FG(rank, *factors):
    return FGModule.from_factors(rank, factors)


class Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number:>2}: {self.label} "
              f"[{dt:.2f}s / budget {self.budget}s]")
        if exc_type is None:
            assert dt < self.budget, \
                f"criterion {self.number} exceeded its {self.budget}s budget ({dt:.2f}s)"
        return False


def apex_perversity(X, k):
    return Perversity(X, {st.key: k for st in X.strata() if not st.regular})


def test_criterion_01_suspension_rp3():
    with Criterion(1, "susp(RP3), p = Dp = 1: components and verdicts", 1.0):
        pr = eval_suspension(atom("RP3"), 1)
        assert pr.comp_TK == GradedModule({3: Zmod(2)})
        assert pr.comp_TC == GradedModule({2: Zmod(2)})
        assert pr.comp_F == GradedModule({})
        rep = verdicts(pr, eval_suspension(atom("RP3"), 1))
        assert rep.torsion_free_pairing == "non-singular"
        assert rep.torsion_pairing == "degenerate"
        assert rep.passed()


def test_criterion_02_suspension_s1s1rp3():
    with Criterion(2, "susp(S1 x S1 x RP3), p = 2: torsion components", 1.0):
        M = product_atom(atom("S1"), atom_renamed(atom("S1"), "b"), atom("RP3"))
        pr = eval_suspension(M, 2)
        assert pr.comp_TK == GradedModule({4: FG(0, 2, 2)})
        assert pr.comp_TC == GradedModule({3: FG(0, 2, 2)})


def test_criterion_03_thom_s2():
    with Criterion(3, "Thom space over S2, Euler 2: free cokernel Z/2", 1.0):
        pr = eval_thom_circle(ThomCircle(atom("S2"), (("s2", 2),)), 1)
        assert set(pr.peripheral) == {2}        # R is R^2 alone
        assert pr.peripheral_group(2).resolved == Zmod(2)
        assert pr.comp_F == GradedModule({2: Zmod(2)})
        assert pr.comp_TC == GradedModule({}) and pr.comp_TK == GradedModule({})
        chi = pr.chi_maps[2]
        assert chi.dom.module() == Z(1) and chi.cod.module() == Z(1)
        assert smith(chi.mat, False, False).diagonal == (2,)
        rep = verdicts(pr, eval_thom_circle(ThomCircle(atom("S2"), (("s2", 2),)), 1))
        assert rep.torsion_free_pairing == "singular"
        assert rep.torsion_pairing == "non-singular"
        assert rep.passed()


def test_criterion_04_thom_rp3_cp2_s1():
    with Criterion(4, "Thom space over RP3 x CP2 x S1: F^5 = Z/3 + Z/3", 1.0):
        B = product_atom(atom("RP3"), atom("CP2"), atom("S1"))
        pr = eval_thom_circle(ThomCircle(B, (("a", 1), ("w", 3))), 4)
        assert pr.comp_F == GradedModule({5: FG(0, 3, 3)})
        assert set(pr.peripheral) == {5}
        assert pr.peripheral_group(5).resolved == FG(0, 3, 3)


def test_criterion_05_thom_s2_rp3_s3():
    with Criterion(5, "Thom space over S2 x RP3 x S3: full component table", 1.0):
        B = product_atom(atom("S2"), atom("RP3"), atom("S3"))
        pr = eval_thom_circle(ThomCircle(B, (("s2", 3), ("a", 1))), 4)
        e5 = pr.peripheral_group(5)
        assert e5.order() == 36
        assert e5.consistent_with(FG(0, 6, 6))
        assert pr.comp_F == GradedModule({5: FG(0, 3, 3)})
        assert pr.comp_TK == GradedModule({6: Zmod(2)})
        assert pr.comp_TC == GradedModule({5: Zmod(2)})
        # exact sequence 0 -> Z/3^2 -> R^5 / Z/2 -> Z/2 -> 0 balances
        assert e5.order() // 2 == 9 * 2
        rep = verdicts(pr)
        assert rep.torsion_free_pairing == "singular"
        assert rep.torsion_pairing == "degenerate"
        assert rep.passed()


def test_criterion_06_mapping_torus():
    with Criterion(6, "mapping torus: duality without local torsion-freeness", 1.0):
        M = product_atom(atom("S1"), atom_renamed(atom("S1"), "b"), atom("RP3"))
        L = Suspension(AtomSpace(M))
        act = ((3, ((1, -1, 0, 0), (1, 0, 0, 0),
                    (0, 0, 1, -1), (0, 0, 1, 0))),)
        pr = eval_expression(MappingTorus(L, act), 2)
        assert pr.locally_torsion_free() is False
        witnesses = [r.torsion for r in pr.ltf if not r.ok]
        assert witnesses and all(w == FG(0, 2, 2) for w in witnesses)
        assert pr.peripheral == {}
        rep = verdicts(pr)
        assert rep.poincare_duality is True
        assert rep.passed()


def test_criterion_07_relative_suspension():
    with Criterion(7, "relative complex of susp(CP2 x S1), (1, 3)", 1.0):
        M = product_atom(atom("CP2"), atom("S1"))
        rel = relative_suspension(M, 1, 3)
        assert set(rel) == {2, 3}
        assert rel[2].resolved == Z(2)
        assert rel[3].resolved == Z(2)


CROSSCHECK_SPACES = None


def _crosscheck_spaces():
    global CROSSCHECK_SPACES
    if CROSSCHECK_SPACES is None:
        CROSSCHECK_SPACES = [
            ("cone(RP2)", projective_plane().cone(), atom("RP2"), "cone"),
            ("susp(RP2)", projective_plane().suspension(), atom("RP2"), "susp"),
            ("susp(T2)", torus().suspension(), atom("T2"), "susp"),
        ]
    return CROSSCHECK_SPACES


def _symbolic_prediction(a, kind, k, ring):
    """Cone-formula / Mayer-Vietoris oracle for GH_*, GH^*, H~^* at p = k."""
    n = a.dim + 1
    H = a.cohomology(ring)
    Hlow = a.homology(ring)
    cut = n - 2 - k

    def trunc_low():
        if kind == "cone":
            return GradedModule({j: Hlow[j] for j in Hlow.support() if j <= cut})
        out = {j: Hlow[j] for j in Hlow.support() if j <= cut}
        for j in Hlow.support():
            if j + 1 >= cut + 2 and j + 1 <= n:
                out[j + 1] = out.get(j + 1, FGModule.zero()).direct_sum(Hlow[j])
        return GradedModule(out)

    def blowup():
        out = {j: H[j] for j in H.support() if j <= k}
        if kind == "susp":
            for j in H.support():
                if j + 1 >= k + 2 and j + 1 <= n:
                    out[j + 1] = out.get(j + 1, FGModule.zero()).direct_sum(H[j])
        return GradedModule(out)

    gh = trunc_low()
    return gh, cohomology_via_uct(gh), blowup()


def test_criterion_08_simplicial_vs_symbolic():
    with Criterion(8, "simplicial engine matches the closed-form oracles", 120.0):
        for name, X, a, kind in _crosscheck_spaces():
            for k in (0, 1):
                p = apex_perversity(X, k)
                want_gh, want_ghc, want_hb = _symbolic_prediction(a, kind, k, ZZ)
                assert intersection_homology(X, p, ZZ) == want_gh, (name, k)
                assert intersection_cohomology(X, p, ZZ) == want_ghc, (name, k)
                assert blowup_cohomology(X, p, ZZ) == want_hb, (name, k)


def test_criterion_09_field_dimension_duality():
    with Criterion(9, "dim H~^k_p(F) = dim GH^k_Dp(F) over Q, F2, F3", 120.0):
        for name, X, a, kind in _crosscheck_spaces():
            for k in (0, 1):
                p = apex_perversity(X, k)
                dp = p.complementary()
                for F in (Coefficients("Q"), Coefficients("Fp", 2),
                          Coefficients("Fp", 3)):
                    hb = blowup_cohomology(X, p, F)
                    gh = intersection_cohomology(X, dp, F)
                    degrees = set(hb.support()) | set(gh.support())
                    assert all(hb[j].rank == gh[j].rank for j in degrees), \
                        (name, k, str(F))


def test_criterion_10_cohomology_duality_consequence():
    with Criterion(10, "free/torsion duality between the two cohomologies", 120.0):
        oriented = [
            ("T2", torus(), 2, [0]),
            ("S2", sphere(2), 2, [0]),
            ("susp(T2)", torus().suspension(), 3, [0, 1]),
            ("susp(S2)", sphere(2).suspension(), 3, [0, 1]),
        ]
        for name, X, n, ks in oriented:
            for k in ks:
                p = apex_perversity(X, k)
                gh = intersection_cohomology(X, p, ZZ)
                hb = blowup_cohomology(X, p, ZZ)
                degrees = set(gh.support()) | {n - d for d in hb.support()} \
                    | {n + 1 - d for d in hb.support()}
                for j in degrees:
                    assert gh[j].rank == hb[n - j].rank, (name, k, j)
                    assert gh[j].torsion == hb[n - j + 1].torsion, (name, k, j)


def test_criterion_11_component_dualities():
    with Criterion(11, "component and peripheral dualities on all profiles", 10.0):
        profiles = []
        # every symbolic profile built above, paired with its complement
        profiles.append((eval_suspension(atom("RP3"), 1),
                         eval_suspension(atom("RP3"), 1)))
        M = product_atom(atom("S1"), atom_renamed(atom("S1"), "b"), atom("RP3"))
        profiles.append((eval_suspension(M, 2), eval_suspension(M, 2)))
        profiles.append((eval_suspension(atom("T2"), 0),
                         eval_suspension(atom("T2"), 1)))
        profiles.append((eval_suspension(atom("T2"), 1),
                         eval_suspension(atom("T2"), 0)))
        t3 = ThomCircle(atom("S2"), (("s2", 2),))
        profiles.append((eval_thom_circle(t3, 1), eval_thom_circle(t3, 1)))
        B4 = product_atom(atom("RP3"), atom("CP2"), atom("S1"))
        t4 = ThomCircle(B4, (("a", 1), ("w", 3)))
        profiles.append((eval_thom_circle(t4, 4), eval_thom_circle(t4, 4)))
        B5 = product_atom(atom("S2"), atom("RP3"), atom("S3"))
        t5 = ThomCircle(B5, (("s2", 3), ("a", 1)))
        profiles.append((eval_thom_circle(t5, 4), eval_thom_circle(t5, 4)))
        profiles.append((eval_manifold(atom("T2")), eval_manifold(atom("T2"))))
        # an off-middle perversity pair with torsion on both sides
        MS = product_atom(atom("RP3"), atom("S2"))
        profiles.append((eval_suspension(MS, 1), eval_suspension(MS, 3)))
        profiles.append((eval_suspension(MS, 3), eval_suspension(MS, 1)))
        for prof, dual in profiles:
            t0 = time.perf_counter()
            rep = verdicts(prof, dual)
            names = {c.name: c for c in rep.checks}
            assert names["torsion component duality"].status == "pass", \
                (prof.name, names["torsion component duality"].detail)
            assert names["peripheral self-duality"].status == "pass", \
                (prof.name, names["peripheral self-duality"].detail)
            assert time.perf_counter() - t0 < 1.0, prof.name


def test_criterion_12_property_suites():
    with Criterion(12, "always-on property suites", 60.0):
        # Smith normal form invariants on 1000 random matrices up to 10x10
        rng = random.Random(20260810)
        for _ in range(1000):
            r, c = rng.randint(0, 10), rng.randint(0, 10)
            A = IntMatrix(r, c, {(i, j): rng.randint(-9, 9)
                                 for i in range(r) for j in range(c)
                                 if rng.random() < 0.5})
            sd = smith(A)
            D = sd.U * A * sd.V
            assert all(i == j for (i, j) in D.entries), "off-diagonal entry"
            for t, d in enumerate(sd.diagonal):
                assert d > 0 and D[(t, t)] == d
                if t:
                    assert d % sd.diagonal[t - 1] == 0

        # d o d = 0 and saturation on freshly built complexes
        for X in (projective_plane().cone(), torus().suspension()):
            for k in (0, 1):
                p = apex_perversity(X, k)
                ic = intersection_complex(X, p, ZZ)     # validates d d = 0
                for deg, B in Lattice(ic).bases.items():
                    if B.cols:
                        assert all(d == 1 for d in smith(B, False, False).diagonal)
                G = GlobalBlowupComplex(X)
                G.full_complex()
                bi = G.intersection_complex(p)
                for deg, B in Lattice(bi).bases.items():
                    if B.cols:
                        assert all(d == 1 for d in smith(B, False, False).diagonal)

        # universal coefficients between homology and dual cohomology
        for X in (projective_plane().cone(), projective_plane().suspension(),
                  torus().suspension()):
            for k in (0, 1):
                p = apex_perversity(X, k)
                assert intersection_cohomology(X, p, ZZ) == \
                    cohomology_via_uct(intersection_homology(X, p, ZZ))

        # Kunneth symmetry on random graded modules
        for _ in range(60):
            A = GradedModule({rng.randint(0, 3):
                              FGModule.from_factors(rng.randint(0, 2),
                                                    [rng.choice([2, 3, 4])])
                              for _ in range(rng.randint(0, 3))})
            B = GradedModule({rng.randint(0, 3):
                              FGModule.from_factors(rng.randint(0, 2),
                                                    [rng.choice([2, 3, 4])])
                              for _ in range(rng.randint(0, 3))})
            assert kunneth(A, B) == kunneth(B, A)


def test_criterion_13_suspension_rp3_crosscheck():
    with Criterion(13, "susp(RP3): simplicial engine matches the closed-form oracle",
                   60.0):
        X = projective_space_3().suspension()
        for k in (0, 1, 2):
            p = apex_perversity(X, k)
            want_gh, want_ghc, want_hb = _symbolic_prediction(atom("RP3"), "susp", k, ZZ)
            assert intersection_homology(X, p, ZZ) == want_gh, k
            assert intersection_cohomology(X, p, ZZ) == want_ghc, k
            assert blowup_cohomology(X, p, ZZ) == want_hb, k
