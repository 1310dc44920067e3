"""Spaces with positive-dimensional singular strata and triangulation
independence: the double suspension of the projective plane has two arc
strata in codimension 3 and two points in codimension 4, so every
codimension of a full GM perversity matters."""
import pytest

from algebra_oracle import cyclic
from strathom.blowup import blowup_cohomology
from strathom.chains import intersection_cohomology, intersection_homology
from strathom.exact_algebra import Coefficients, FGModule, GradedModule
from strathom.stratified import GMPerversity, Perversity
from strathom.triangulations import circle, projective_plane, torus

Z = FGModule.free
Zmod = cyclic
ZZ = Coefficients("Z")


def susp_lower(h_link, n, value):
    """Suspension pattern for homology: keep through n-2-value, skip one
    degree, resume shifted."""
    cut = n - 2 - value
    out = {}
    for j, m in h_link.items():
        if m.is_zero:
            continue
        if j <= cut:
            out[j] = out.get(j, FGModule.zero()).direct_sum(m)
        if j + 1 >= cut + 2:
            out[j + 1] = out.get(j + 1, FGModule.zero()).direct_sum(m)
    return out


def susp_upper(h_link, n, value):
    """Suspension pattern for blown-up cohomology: keep through value,
    skip one degree, resume shifted."""
    out = {}
    for j, m in h_link.items():
        if m.is_zero:
            continue
        if j <= value:
            out[j] = out.get(j, FGModule.zero()).direct_sum(m)
        if j + 1 >= value + 2:
            out[j + 1] = out.get(j + 1, FGModule.zero()).direct_sum(m)
    return out


H_RP2 = {0: Z(1), 1: Zmod(2), 2: FGModule.zero()}
COH_RP2 = {0: Z(1), 1: FGModule.zero(), 2: Zmod(2)}


@pytest.fixture(scope="module")
def double_suspension():
    return projective_plane().suspension().suspension()


class TestDoubleSuspension:
    def test_strata_shape(self, double_suspension):
        X = double_suspension
        assert X.n == 4
        sts = X.strata()
        arcs = [s for s in sts if s.codim == 3]
        points = [s for s in sts if s.codim == 4]
        regular = [s for s in sts if s.regular]
        assert len(arcs) == 2 and all(s.dim == 1 for s in arcs)
        assert len(points) == 2 and all(s.dim == 0 for s in points)
        assert len(regular) == 1

    @pytest.mark.parametrize("gm", [(0, 0), (0, 1), (1, 1), (1, 2)])
    def test_homology_matches_iterated_oracle(self, double_suspension, gm):
        a, b = gm
        X = double_suspension
        p = Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))
        inner = susp_lower(H_RP2, 3, a)
        expected = GradedModule(susp_lower(inner, 4, b))
        got = intersection_homology(X, p, ZZ)
        assert got == expected, (gm, str(got), str(expected))

    @pytest.mark.parametrize("gm", [(0, 0), (0, 1), (1, 1), (1, 2)])
    def test_blowup_matches_iterated_oracle(self, double_suspension, gm):
        a, b = gm
        X = double_suspension
        p = Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))
        inner = susp_upper(COH_RP2, 3, a)
        expected = GradedModule(susp_upper(inner, 4, b))
        got = blowup_cohomology(X, p, ZZ)
        assert got == expected, (gm, str(got), str(expected))

    @pytest.mark.parametrize("gm", [(0, 0), (1, 1)])
    def test_field_duality_consequence(self, double_suspension, gm):
        a, b = gm
        X = double_suspension
        p = Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))
        dp = p.complementary()
        for F in (Coefficients("Q"), Coefficients("Fp", 2),
                  Coefficients("Fp", 3)):
            hb = blowup_cohomology(X, p, F)
            gh = intersection_cohomology(X, dp, F)
            degrees = set(hb.support()) | set(gh.support())
            assert all(hb[j].rank == gh[j].rank for j in degrees), (gm, str(F))


class TestDoubleSuspensionTorus:
    """Oriented multi-stratum case: checks the integral duality between the
    two cohomologies with distinct values per codimension."""

    @pytest.mark.parametrize("gm", [(0, 0), (0, 1), (1, 1), (1, 2)])
    def test_cohomology_duality(self, gm):
        a, b = gm
        X = torus().suspension().suspension()
        n = 4
        p = Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))
        gh = intersection_cohomology(X, p, ZZ)
        hb = blowup_cohomology(X, p, ZZ)
        degrees = set(gh.support()) | {n - d for d in hb.support()} \
            | {n + 1 - d for d in hb.support()}
        for j in degrees:
            assert gh[j].rank == hb[n - j].rank, (gm, j, str(gh), str(hb))
            assert gh[j].torsion == hb[n - j + 1].torsion, (gm, j)


class TestTriangulationIndependence:
    def test_cone_of_circle_sizes(self):
        for m in (3, 5, 7):
            X = circle(m).cone()
            for k in (0,):
                p = Perversity(X, {st.key: k for st in X.strata()
                                   if not st.regular})
                assert intersection_homology(X, p, ZZ) == \
                    GradedModule({0: Z(1)})
                assert blowup_cohomology(X, p, ZZ) == GradedModule({0: Z(1)})

    def test_suspension_of_circle_sizes(self):
        # susp(S1) = S2 stratified with two marked points
        for m in (3, 6):
            X = circle(m).suspension()
            p = Perversity(X, {st.key: 0 for st in X.strata()
                               if not st.regular})
            assert intersection_homology(X, p, ZZ) == \
                GradedModule({0: Z(1), 2: Z(1)})
            assert blowup_cohomology(X, p, ZZ) == \
                GradedModule({0: Z(1), 2: Z(1)})
