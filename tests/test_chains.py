"""Intersection chain complexes against the cone-formula oracles."""
import pytest

from algebra_oracle import cyclic
from strathom.chains import (allowable, intersection_cohomology,
                             intersection_complex, intersection_homology,
                             perverse_degree, regular_boundary,
                             regular_complex)
from strathom.exact_algebra import (Coefficients, FGModule, GradedModule,
                                    homology_all, smith)
from strathom.exact_algebra import \
    verdier_dual_cohomology as cohomology_via_uct
from strathom.stratified import FilteredComplex, Perversity
from strathom.triangulations import (circle, projective_plane, projective_space_3,
                                     sphere, torus)
from subcomplex_oracle import Lattice
from test_maximal import SPACES

Z = FGModule.free
Zmod = cyclic
ZZ = Coefficients("Z")
NEG_INF = float("-inf")


def apex_perversity(X, k):
    return Perversity(X, {st.key: k for st in X.strata() if not st.regular})


@pytest.fixture(scope="module")
def cone_circle():
    return circle(3).cone()


@pytest.fixture(scope="module")
def cone_rp2():
    return projective_plane().cone()


def apex_of(X):
    return next(v for v, l in X.levels.items() if l == 0)


class TestPerverseDegree:
    def test_edge_through_apex(self, cone_circle):
        X = cone_circle
        a = apex_of(X)
        v = next(v for v in X.levels if v != a)
        pd = perverse_degree(X, (a, v))
        assert pd[2] == 0          # front face is the apex alone
        assert pd[0] == 1          # whole simplex

    def test_no_apex_gives_minus_infinity(self, cone_circle):
        X = cone_circle
        verts = [v for v, l in X.levels.items() if l == 2][:2]
        pd = perverse_degree(X, tuple(verts))
        assert pd[2] == NEG_INF

    def test_regular_simplex_in_manifold(self):
        X = torus()
        s = X.maximal_simplices()[0]
        pd = perverse_degree(X, s)
        assert pd[0] == 2 and pd[1] == NEG_INF and pd[2] == NEG_INF


class TestAllowable:
    def test_apex_edge_zero_perversity(self, cone_circle):
        X = cone_circle
        a = apex_of(X)
        v = next(v for v in X.levels if v != a)
        assert not allowable(X, (a, v), apex_perversity(X, 0))

    def test_apex_edge_perversity_one(self, cone_circle):
        X = cone_circle
        a = apex_of(X)
        v = next(v for v in X.levels if v != a)
        assert allowable(X, (a, v), apex_perversity(X, 1))

    def test_regular_simplices_always_allowable(self):
        X = projective_plane().suspension()
        p = apex_perversity(X, 0)
        for s in X.simplices:
            if X.max_level(s) == X.n and all(X.levels[v] == X.n for v in s):
                assert allowable(X, s, p)


class TestRegularBoundary:
    def test_apex_face_dropped(self, cone_circle):
        X = cone_circle
        a = apex_of(X)
        v = next(v for v in X.levels if v != a)
        d = regular_boundary(X, {(a, v): 1})
        assert d == {(v,): 1}

    def test_equals_full_boundary_with_two_regular_vertices(self, cone_circle):
        X = cone_circle
        verts = sorted(v for v, l in X.levels.items() if l == 2)
        d = regular_boundary(X, {(verts[0], verts[1]): 1})
        assert d == {(verts[1],): 1, (verts[0],): -1}

    def test_cycle_in_regular_part(self, cone_circle):
        X = cone_circle
        verts = sorted(v for v, l in X.levels.items() if l == 2)
        cyc = {(verts[0], verts[1]): 1, (verts[1], verts[2]): 1,
               (verts[0], verts[2]): -1}
        assert regular_boundary(X, cyc) == {}

    def test_dd_zero(self):
        X = projective_plane().suspension()
        regular_complex(X)     # constructor asserts d d = 0


@pytest.mark.parametrize("name, make", SPACES, ids=[s[0] for s in SPACES])
def test_regular_complex_columns_are_regular_boundaries(name, make):
    X = make()
    C = regular_complex(X)
    # the basis holds tuples of vertex numbers; regular_boundary reads ids
    number, ids = X.vertex_numbers.__getitem__, X.vertex_ids.__getitem__
    regular = [tuple(sorted(map(number, s))) for s in X.simplices if X.is_regular(s)]
    assert sum(map(len, C.basis.values())) == len(regular)
    for k, simps in C.basis.items():
        assert simps == sorted(s for s in regular if len(s) == k + 1), (name, k)
    for k in sorted(C.basis):
        if k:
            faces, columns = C.basis.get(k - 1, []), {}
            for (i, j), v in C.diff(k).entries.items():
                columns.setdefault(j, {})[tuple(map(ids, faces[i]))] = v
            for j, s in enumerate(C.basis[k]):
                assert columns.get(j, {}) == regular_boundary(X, {tuple(map(ids, s)): 1}), \
                    (name, k, s)


class TestIntersectionComplex:
    def test_manifold_full_complex(self):
        X = torus()
        lattice = Lattice(intersection_complex(X, Perversity(X, {})))
        amb = regular_complex(X)
        for k in (0, 1, 2):
            assert lattice.bases[k].cols == amb.rank(k)

    def test_cone_circle_no_apex_edges_at_zero(self, cone_circle):
        X = cone_circle
        lattice = Lattice(intersection_complex(X, apex_perversity(X, 0)))
        a = X.vertex_numbers[apex_of(X)]       # the basis holds vertex numbers
        for j in range(lattice.bases[1].cols):
            assert all(a not in s for s in lattice.basis_chain(1, j))

    def test_cone_rp2_matches_cone_formula(self, cone_rp2):
        X = cone_rp2
        H = intersection_homology(X, apex_perversity(X, 1), ZZ)
        assert H == GradedModule({0: Z(1)})
        H = intersection_homology(X, apex_perversity(X, 0), ZZ)
        assert H == GradedModule({0: Z(1), 1: Zmod(2)})

    def test_saturation(self, cone_rp2):
        X = cone_rp2
        lattice = Lattice(intersection_complex(X, apex_perversity(X, 0)))
        for k, B in lattice.bases.items():
            if B.cols:
                assert all(d == 1 for d in smith(B, False, False).diagonal)

    def test_monotonicity_in_perversity(self, cone_rp2):
        X = cone_rp2
        lo = Lattice(intersection_complex(X, apex_perversity(X, 0)))
        hi = Lattice(intersection_complex(X, apex_perversity(X, 1)))
        for k, B in lo.bases.items():
            if B.cols:
                assert hi.coordinates(k, B) is not None


def susp_homology_oracle(h_link, n, k):
    """Cone formula + Mayer-Vietoris for a suspension at apex value k."""
    cut = n - 2 - k
    out = {}
    for j, m in h_link.items():
        if j <= cut:
            out[j] = out.get(j, FGModule.zero()).direct_sum(m)
        if j + 1 >= cut + 2:
            out[j + 1] = out.get(j + 1, FGModule.zero()).direct_sum(m)
    return GradedModule(out)


H_RP2 = {0: Z(1), 1: Zmod(2)}
H_T2 = {0: Z(1), 1: Z(2), 2: Z(1)}


class TestHomologyExamples:
    @pytest.mark.parametrize("k", [0, 1])
    def test_suspension_rp2(self, k):
        X = projective_plane().suspension()
        H = intersection_homology(X, apex_perversity(X, k), ZZ)
        assert H == susp_homology_oracle(H_RP2, 3, k)

    @pytest.mark.parametrize("k", [0, 1])
    def test_suspension_t2(self, k):
        X = torus().suspension()
        H = intersection_homology(X, apex_perversity(X, k), ZZ)
        assert H == susp_homology_oracle(H_T2, 3, k)

    def test_field_output_is_free(self):
        X = projective_plane().suspension()
        H = intersection_homology(X, apex_perversity(X, 1), Coefficients("Q"))
        assert all(H[j].is_free for j in H.support())

    def test_rational_dimensions_match_free_rank(self):
        X = projective_plane().suspension()
        for k in (0, 1):
            p = apex_perversity(X, k)
            hz = intersection_homology(X, p, ZZ)
            hq = intersection_homology(X, p, Coefficients("Q"))
            for j in set(hz.support()) | set(hq.support()):
                assert hq[j].rank == hz[j].rank

    def test_fp_universal_coefficients_on_fixed_complex(self):
        # Universal coefficients hold for any fixed integral complex; the
        # intersection complex rebuilt with mod-p allowability is a
        # different (and the correct) object when torsion meets the cut.
        from strathom.exact_algebra import homology
        X = projective_plane().suspension()
        for k in (0, 1):
            p = apex_perversity(X, k)
            C = Lattice(intersection_complex(X, p, ZZ)).complex
            hz = homology_all(C)
            for pp in (2, 3):
                for j in set(hz.support()) | {s + 1 for s in hz.support()}:
                    expect = hz[j].rank + hz[j].p_torsion_count(pp) \
                        + hz[j - 1].p_torsion_count(pp)
                    assert homology(C, j, Coefficients("Fp", pp)).rank == expect

    def test_fp_lattice_matches_field_cone_formula(self):
        # the genuine mod-2 theory of susp(RP2) differs from reduction of
        # the integral answer and matches the field cone formula
        X = projective_plane().suspension()
        F2 = Coefficients("Fp", 2)
        h_rp2_f2 = {0: Z(1), 1: Z(1), 2: Z(1)}
        for k in (0, 1):
            H = intersection_homology(X, apex_perversity(X, k), F2)
            assert H == susp_homology_oracle(h_rp2_f2, 3, k), (k, str(H))


class TestCohomology:
    def test_two_routes_agree(self):
        for X in (projective_plane().suspension(), torus().suspension(),
                  projective_plane().cone()):
            for k in (0, 1):
                p = apex_perversity(X, k)
                direct = intersection_cohomology(X, p, ZZ)
                via_uct = cohomology_via_uct(intersection_homology(X, p, ZZ))
                assert direct == via_uct, (X.name, k)

    def test_sphere_trivial(self):
        X = sphere(2).suspension()
        p = apex_perversity(X, 0)
        H = intersection_cohomology(X, p, ZZ)
        assert H == GradedModule({0: Z(1), 3: Z(1)})


def test_chain_jobs_read_per_vertex_tables(monkeypatch):
    # one read of the vertex-to-stratum map per space and perversity (the
    # cohomology job reuses the allowed lists of the homology job) and no
    # frozenset maximal list, the same counts on every repetition
    S = projective_space_3().suspension()
    facets = [sorted(s) for s in S.simplices if len(s) == S.n + 1]
    calls = {"vertex_strata": 0, "maximal_simplices": 0}
    for attr in calls:
        orig = getattr(FilteredComplex, attr)

        def counted(self, *args, orig=orig, attr=attr):
            calls[attr] += 1
            return orig(self, *args)
        monkeypatch.setattr(FilteredComplex, attr, counted)
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        X = FilteredComplex(S.n, S.levels, facets, name="susp(RP3)")
        p = apex_perversity(X, 1)
        assert intersection_homology(X, p, ZZ)[1] == Zmod(2)
        intersection_cohomology(X, p, ZZ)
        assert calls == {"vertex_strata": 1, "maximal_simplices": 0}
