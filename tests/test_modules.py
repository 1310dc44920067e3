"""Finitely generated modules, duals, Künneth, extension outcomes."""
import pytest
from hypothesis import given, settings, strategies as st

from algebra_oracle import exponent
from strathom.exact_algebra import (Coefficients, ExtensionOutcome, FGModule,
                                    GradedModule, ext_dual, hom_dual, kunneth,
                                    module_from_relations, tensor_fg, tor_fg,
                                    verdier_dual_cohomology,
                                    verdier_dual_homology)

Z = FGModule.free
Zmod = FGModule.cyclic


def FG(rank, *factors):
    return FGModule.from_factors(rank, factors)


class TestFGModule:
    def test_invariant_factor_canonicalisation(self):
        assert FG(0, 2, 3) == Zmod(6)
        assert FG(0, 4, 6) == FGModule(0, (2, 12))
        assert FG(0, 2, 2, 3) == FGModule(0, (2, 6))

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            FGModule(0, (4, 6))
        with pytest.raises(ValueError):
            FGModule(0, (1,))

    def test_order_exponent(self):
        assert FG(0, 2, 4).order() == 8
        assert FG(1, 2).order() is None
        assert exponent(FG(0, 2, 4)) == 4

    def test_str(self):
        assert str(FG(2, 2)) == "Z^2 + Z/2"
        assert str(FGModule.zero()) == "0"

    def test_presentation_roundtrip(self):
        m = FG(2, 2, 6)
        g, rels = m.presentation()
        assert module_from_relations(g, rels) == m


class TestDuals:
    def test_hom_ext_examples(self):
        m = FG(2, 2)
        assert hom_dual(m) == Z(2)
        assert ext_dual(m) == Zmod(2)
        assert hom_dual(FGModule.zero()).is_zero
        assert ext_dual(FGModule.zero()).is_zero
        m = FG(0, 2, 4)
        assert hom_dual(m).is_zero
        assert ext_dual(m) == FGModule(0, (2, 4))

    def test_verdier_examples(self):
        H = GradedModule({0: Z(1)})
        assert verdier_dual_homology(H) == GradedModule({0: Z(1)})
        H = GradedModule({2: Zmod(2)})
        assert verdier_dual_homology(H) == GradedModule({1: Zmod(2)})
        H = GradedModule({0: Z(1), 1: FG(1, 3)})
        D = verdier_dual_homology(H)
        assert D[0] == FG(1, 3) and D[1] == Z(1)

    def test_verdier_involution(self):
        H = GradedModule({0: Z(1), 1: FG(2, 2), 3: FG(0, 4, 8)})
        assert verdier_dual_cohomology(verdier_dual_homology(H)) == H
        assert verdier_dual_homology(verdier_dual_cohomology(H)) == H


fg_strategy = st.builds(
    lambda r, fs: FGModule.from_factors(r, fs),
    st.integers(0, 3),
    st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), max_size=3))

graded_strategy = st.dictionaries(st.integers(0, 4), fg_strategy, max_size=4) \
    .map(GradedModule)


class TestKunneth:
    def test_torus(self):
        S1 = GradedModule({0: Z(1), 1: Z(1)})
        T2 = kunneth(S1, S1)
        assert T2 == GradedModule({0: Z(1), 1: Z(2), 2: Z(1)})

    def test_rp3_times_s1(self):
        RP3 = GradedModule({0: Z(1), 1: Zmod(2), 3: Z(1)})
        S1 = GradedModule({0: Z(1), 1: Z(1)})
        K = kunneth(RP3, S1)
        assert K[0] == Z(1)
        assert K[1] == FG(1, 2)
        assert K[2] == Zmod(2)
        assert K[3] == Z(1)
        assert K[4] == Z(1)

    def test_point_identity(self):
        pt = GradedModule({0: Z(1)})
        RP3 = GradedModule({0: Z(1), 1: Zmod(2), 3: Z(1)})
        assert kunneth(RP3, pt) == RP3

    def test_tor_appears(self):
        # (Z/2 in degree 1) x (Z/2 in degree 1): Tor lands in degree 3
        A = GradedModule({1: Zmod(2)})
        K = kunneth(A, A)
        assert K[2] == Zmod(2)
        assert K[3] == Zmod(2)

    @settings(max_examples=40, deadline=None)
    @given(graded_strategy, graded_strategy)
    def test_symmetry(self, A, B):
        assert kunneth(A, B) == kunneth(B, A)

    def test_tensor_tor_fg(self):
        assert tensor_fg(Zmod(4), Zmod(6)) == Zmod(2)
        assert tor_fg(Zmod(4), Zmod(6)) == Zmod(2)
        assert tor_fg(Z(2), Zmod(4)).is_zero


class TestCoefficients:
    def test_parse(self):
        assert Coefficients.parse("Z").kind == "Z"
        assert Coefficients.parse("Q").kind == "Q"
        assert Coefficients.parse("F5").p == 5
        with pytest.raises(ValueError):
            Coefficients.parse("F4")

    def test_primality(self):
        with pytest.raises(ValueError):
            Coefficients("Fp", 9)


class TestExtensionOutcome:
    def test_resolutions(self):
        assert ExtensionOutcome.of(FGModule.zero(), Zmod(2)).resolved == Zmod(2)
        assert ExtensionOutcome.of(Zmod(2), FGModule.zero()).resolved == Zmod(2)
        e = ExtensionOutcome.of(Zmod(2), Z(1))
        assert e.resolved == FG(1, 2)          # free quotient splits
        e = ExtensionOutcome.of(Z(1), Zmod(2))
        assert e.resolved is None              # 0 -> Z -> Z -> Z/2 -> 0 exists

    def test_consistency(self):
        e = ExtensionOutcome.of(FG(0, 3, 6), Zmod(2))
        assert e.order() == 36
        assert e.consistent_with(FG(0, 6, 6))
        assert e.consistent_with(FG(0, 3, 12))
        assert not e.consistent_with(FG(0, 36))
        assert not e.consistent_with(FG(1, 2))

    def test_z4_vs_z2z2(self):
        e = ExtensionOutcome.of(Zmod(2), Zmod(2))
        assert e.consistent_with(Zmod(4))
        assert e.consistent_with(FG(0, 2, 2))
        assert not e.consistent_with(Zmod(8))
