"""Filtered complexes: validation, strata, perversities, constructors."""
import pytest

from blowup_oracle import join_decomposition
from strathom.stratified import (FilteredComplex, GMPerversity, Perversity,
                                 StratifiedValidationError)
from strathom.triangulations import (circle, projective_plane,
                                     projective_space_3, sphere, torus)


class TestValidation:
    def test_manifold_triangle(self):
        X = FilteredComplex(1, {0: 1, 1: 1, 2: 1},
                            [(0, 1), (1, 2), (0, 2)])
        assert len(X.strata()) == 1

    def test_cone_on_circle(self):
        X = circle(3).cone()
        X.validate()
        sts = X.strata()
        assert len(sts) == 2
        apex = [s for s in sts if not s.regular][0]
        assert apex.codim == 2 and apex.dim == 0

    def test_purity_violation(self):
        # 2-simplex plus an isolated vertex of level 2
        with pytest.raises(StratifiedValidationError) as e:
            FilteredComplex(2, {0: 2, 1: 2, 2: 2, 9: 2}, [(0, 1, 2), (9,)])
        assert any("maximal simplex" in v for v in e.value.violations)

    def test_no_top_level_vertex(self):
        with pytest.raises(StratifiedValidationError) as e:
            FilteredComplex(2, {0: 1, 1: 1, 2: 1}, [(0, 1, 2)])
        assert any("no vertex of level" in v for v in e.value.violations)

    def test_missing_face_detected(self):
        with pytest.raises(StratifiedValidationError) as e:
            FilteredComplex(2, {0: 2, 1: 2, 2: 2}, [(0, 1, 2)], close=False)
        assert any("missing face" in v for v in e.value.violations)

    def test_level_out_of_range(self):
        with pytest.raises(StratifiedValidationError):
            FilteredComplex(1, {0: 5, 1: 1}, [(0, 1)])

    LOW = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 9: 2, 10: 2}
    CLOSED = [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,), (3, 4, 5), (3, 4),
              (3, 5), (4, 5), (3,), (4,), (5,), (10, 9), (9,), (10,)]

    @pytest.mark.parametrize("n,levels,simplices,close,message", [
        (2, LOW, [(0, 1, 2), (3, 4, 5), (10, 9), (5, 9)], True,
         "maximal simplex [0, 1, 2] has no level-2 vertex; "
         "maximal simplex [5, 9] has dimension 1, expected 2; "
         "maximal simplex [10, 9] has dimension 1, expected 2"),
        (2, LOW, CLOSED, False,
         "maximal simplex [0, 1, 2] has no level-2 vertex; "
         "maximal simplex [10, 9] has dimension 1, expected 2"),
        (2, LOW, [(0, 1, 2), (3, 4, 5), (10, 9)], False,
         "missing face [1, 2] of [0, 1, 2]; missing face [0, 2] of [0, 1, 2]; "
         "missing face [0, 1] of [0, 1, 2]; missing face [4, 5] of [3, 4, 5]; "
         "missing face [3, 5] of [3, 4, 5]; missing face [3, 4] of [3, 4, 5]; "
         "maximal simplex [0, 1, 2] has no level-2 vertex; "
         "maximal simplex [10, 9] has dimension 1, expected 2"),
        (3, {"a": 3, "b": 3, "c": 2, "d": 2, "e": 2, "f": 3},
         [("c", "d", "e", "a"), ("c", "d", "e"), ("f",)], True,
         "maximal simplex ['b'] has dimension 0, expected 3; "
         "maximal simplex ['f'] has dimension 0, expected 3"),
    ])
    def test_maximal_simplex_messages_are_pinned(self, n, levels, simplices, close,
                                                 message):
        # a maximal simplex too small and one with no top-level vertex, in
        # the order of maximal_simplices(), vertices sorted by str
        with pytest.raises(StratifiedValidationError) as e:
            FilteredComplex(n, levels, simplices, close=close)
        assert str(e.value) == message


class TestStrata:
    def test_suspension_of_rp2(self):
        X = projective_plane().suspension()
        sts = X.strata()
        assert len(sts) == 3
        sing = [s for s in sts if not s.regular]
        assert len(sing) == 2 and all(s.dim == 0 and s.codim == 3 for s in sing)
        assert [v for v, l in X.levels.items() if l == 0] != []

    def test_manifold_one_stratum_per_component(self):
        X = torus()
        assert len(X.strata()) == 1
        Y = X.disjoint_union(torus())
        assert len(Y.strata()) == 2

    def test_disjoint_union_of_cones(self):
        A = circle(3).cone()
        B = circle(4).cone()
        U = A.disjoint_union(B)
        assert len(U.strata()) == 4

    def test_stratum_top_dimension_matches_level(self):
        X = projective_plane().suspension()
        for st in X.strata():
            assert st.dim == st.level

    def test_strata_met_by(self):
        X = circle(3).cone()
        apex = [v for v, l in X.levels.items() if l == 0][0]
        other = [v for v in X.levels if v != apex][0]
        met = X.strata_met_by((apex, other))
        assert {s.level for s in met} == {0, 2}
        met = X.strata_met_by((other,))
        assert all(s.regular for s in met)


class TestGMPerversity:
    def test_zero_and_top(self):
        n = 6
        z, t = GMPerversity.zero(n), GMPerversity.top(n)
        assert z.complementary() == t
        assert t.complementary() == z

    def test_complementary_middle(self):
        # the paper's k-bar notation for isolated singularities: only the
        # codimension-n value matters, and D(1-bar) = 1-bar at n = 4
        p = GMPerversity.k_bar(4, 1)
        assert p.complementary()(4) == 1
        p = GMPerversity.k_bar(6, 2)
        assert p.complementary()(6) == 2

    def test_complementary_involution(self):
        for p in GMPerversity.all_for(6):
            assert p.complementary().complementary() == p

    def test_growth_validation(self):
        with pytest.raises(ValueError):
            GMPerversity([0, 0, 0, 2])
        with pytest.raises(ValueError):
            GMPerversity([0, 0, 1])

    def test_all_for(self):
        ps = GMPerversity.all_for(4)
        # codim 3 in {0,1}, codim 4 constrained by growth: 0,0 0,1 1,1 1,2
        assert len(ps) == 4

    def test_k_bar_range(self):
        with pytest.raises(ValueError):
            GMPerversity.k_bar(4, 3)


class TestPerversity:
    def test_regular_forced_zero(self):
        X = torus()
        with pytest.raises(ValueError):
            Perversity(X, {st.key: 1 for st in X.strata()})

    def test_complementary_per_stratum(self):
        X = projective_plane().suspension()
        p = Perversity(X, {st.key: 1 for st in X.strata() if not st.regular})
        dp = p.complementary()
        for st in X.strata():
            if not st.regular:
                assert dp(st) == (st.codim - 2) - 1

    def test_partial_order(self):
        X = projective_plane().suspension()
        p0 = Perversity.from_gm(X, GMPerversity.zero(3))
        p1 = Perversity.from_gm(X, GMPerversity.top(3))
        assert p0 <= p1 and not (p1 <= p0)


class TestConstructors:
    def test_cone_of_circle_counts(self):
        X = circle(3).cone()
        assert len(X.levels) == 4 and X.n == 2

    def test_suspension_of_rp2_counts(self):
        X = projective_plane().suspension()
        assert len(X.levels) == 8 and X.n == 3

    def test_cone_of_empty_rejected(self):
        import types
        empty = types.SimpleNamespace(simplices=set(), levels={}, n=0, name="")
        with pytest.raises(StratifiedValidationError):
            FilteredComplex.cone(empty)

    def test_cone_adds_one_stratum_conic_filtration(self):
        # the conic filtration preserves each old stratum's codimension
        # (level and ambient dimension both shift by one) and adds the apex
        for L in (circle(4), torus(), projective_plane()):
            C = L.cone()
            assert len(C.strata()) == len(L.strata()) + 1
            by_level = {s.level + 1: s.codim for s in L.strata()}
            for st in C.strata():
                if st.level:
                    assert st.codim == by_level[st.level]
                else:
                    assert st.codim == C.n

    def test_revalidation_of_constructions(self):
        for L in (circle(3), projective_plane(), torus()):
            L.cone().validate()
            L.suspension().validate()
            L.cone().cone().validate()

    def test_join_decomposition_face_compatible(self):
        X = projective_plane().suspension()
        for s in list(X.simplices)[:200]:
            blocks = join_decomposition(X, s)
            flat = [v for b in blocks for v in b]
            assert frozenset(flat) == s
            # restriction to any facet recomputes compatibly
            sv = X.sorted_vertices(s)
            if len(sv) > 1:
                face = sv[1:]
                fb = join_decomposition(X, face)
                for i, b in enumerate(fb):
                    assert set(b) <= set(blocks[i])

    def test_triangulation_homologies(self):
        # spot-check the registered complexes feeding the cross-checks
        from strathom.chains import regular_complex
        from strathom.exact_algebra import FGModule, GradedModule, homology_all
        Z, Zm = FGModule.free, FGModule.cyclic
        expects = {
            "S1": GradedModule({0: Z(1), 1: Z(1)}),
            "S2": GradedModule({0: Z(1), 2: Z(1)}),
            "T2": GradedModule({0: Z(1), 1: Z(2), 2: Z(1)}),
            "RP2": GradedModule({0: Z(1), 1: Zm(2)}),
        }
        for name, X in [("S1", circle(3)), ("S2", sphere(2)),
                        ("T2", torus()), ("RP2", projective_plane())]:
            H = homology_all(regular_complex(X))
            assert H == expects[name], name

    def test_rp3_triangulation(self):
        from strathom.chains import regular_complex
        from strathom.exact_algebra import FGModule, GradedModule, homology_all
        X = projective_space_3()
        H = homology_all(regular_complex(X))
        assert H == GradedModule({0: FGModule.free(1), 1: FGModule.cyclic(2),
                                  3: FGModule.free(1)})
