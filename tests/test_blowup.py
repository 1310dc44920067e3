"""Blown-up cochains: local tensor complexes, global sections, perverse
truncation, and the relative complex."""
import random

import pytest

import strathom
import subcomplex_oracle as oracle
from algebra_oracle import cyclic
from blowup_oracle import (LocalBlowupComplex, as_local, label_coboundary,
                           local_complex, local_perverse_degree)
from strathom.blowup import (GlobalBlowupComplex, blowup_cohomology,
                             blowup_complex, label_count, relative_cohomology)
from strathom.chains import allowable
from strathom.exact_algebra import (Coefficients, FGModule, GradedModule,
                                    IntMatrix, homology_all, smith)
from strathom.exact_algebra.matrices import kernel_basis
from strathom.stratified import Perversity
from strathom.triangulations import circle, projective_plane, torus
from test_smith import SPACES

Z = FGModule.free
Zmod = cyclic
ZZ = Coefficients("Z")
NEG_INF = float("-inf")


def apex_perversity(X, k):
    return Perversity(X, {st.key: k for st in X.strata() if not st.regular})


def apex_of(X):
    return next(v for v, l in X.levels.items() if l == 0)


class TestLocalComplex:
    def test_manifold_simplex_is_ordinary_cochains(self):
        X = torus()
        s = X.maximal_simplices()[0]
        lc = local_complex(X, s)
        assert [lc.rank(k) for k in range(3)] == [3, 3, 1]
        lc.chain_complex()      # d d = 0

    def test_apex_edge_ranks(self):
        X = circle(3).cone()
        a = apex_of(X)
        v = next(v for v in X.levels if v != a)
        lc = local_complex(X, (a, v))
        assert lc.rank(0) == 2 and lc.rank(1) == 1

    def test_rejects_non_regular(self):
        X = circle(3).cone()
        with pytest.raises(ValueError):
            local_complex(X, (apex_of(X),))

    def test_koszul_sign(self):
        # differentials acting past a first slot of odd degree flip sign:
        # compare the same top-slot coface under eps = 0 and eps = 1
        X = circle(3).cone()
        s = X.maximal_simplices()[0]
        lc = local_complex(X, s)
        blocks = lc.blocks
        a = blocks[0][0]
        v, w = blocks[2]

        def coeff_of(lab, target):
            return dict((l, c) for c, l in
                        label_coboundary(lab, blocks, 2)).get(target, 0)

        deg0 = coeff_of((((a,), 0), ((), 1), (v,)),
                        (((a,), 0), ((), 1), (v, w)))
        deg1 = coeff_of((((a,), 1), ((), 1), (v,)),
                        (((a,), 1), ((), 1), (v, w)))
        assert deg0 == -deg1 != 0

    def test_dd_zero_everywhere(self):
        X = projective_plane().cone()
        for s in X.maximal_simplices()[:4]:
            local_complex(X, s).chain_complex()


class TestLocalPerverseDegree:
    def test_minus_infinity_when_collapsed(self):
        lab = (((0,), 1), ((), 1), (5,))
        assert local_perverse_degree(lab, 2, 2) == NEG_INF

    def test_value_counts_degrees_above(self):
        # element 1_(pt,0) (x) 1_F with dim F = 1, at the top level
        lab = (((0,), 0), ((), 1), (5, 6))
        assert local_perverse_degree(lab, 2, 2) == 1

    def test_monotone_in_top_face(self):
        small = (((0,), 0), ((), 1), (5,))
        big = (((0,), 0), ((), 1), (5, 6))
        assert local_perverse_degree(small, 2, 2) <= \
            local_perverse_degree(big, 2, 2)

    def test_range_check(self):
        lab = (((0,), 0), (5,))
        with pytest.raises(ValueError):
            local_perverse_degree(lab, 0, 1)


def equalizer_rank(X, k):
    """Degree-k rank of the literal equalizer over all regular simplices
    with all regular codimension-1 face operators: the definition, used as
    an independent oracle for the carrier-basis model."""
    regs = [X.sorted_vertices(s) for s in X.simplices if X.is_regular(s)]
    locs = {t: LocalBlowupComplex(X, t) for t in regs}
    coords = []
    offset = {}
    for t in regs:
        offset[t] = len(coords)
        coords.extend((t, lab) for lab in locs[t].labels.get(k, ()))
    rows = []
    for s in regs:
        if len(s) == 1:
            continue
        for i in range(len(s)):
            t = s[:i] + s[i + 1:]
            if not X.is_regular(t):
                continue
            for li, lab in enumerate(locs[s].labels.get(k, ())):
                support = set(lab[-1])
                for e in lab[:-1]:
                    support |= set(e[0])
                if support <= set(t):
                    tl = locs[t].index[lab][1]
                    rows.append({offset[s] + li: 1, offset[t] + tl: -1})
    M = IntMatrix(len(rows), len(coords),
                  {(r, c): v for r, row in enumerate(rows)
                   for c, v in row.items()})
    return kernel_basis(M).cols


class TestGlobalComplex:
    def test_carrier_basis_matches_equalizer(self):
        for X in (torus(), circle(4).cone(), projective_plane().cone()):
            G = GlobalBlowupComplex(X)
            for k in sorted(G.basis):
                assert G.rank(k) == equalizer_rank(X, k), (X.name, k)

    def test_manifold_gives_ordinary_cohomology(self):
        X = torus()
        H = blowup_cohomology(X, Perversity(X, {}), ZZ)
        assert H == GradedModule({0: Z(1), 1: Z(2), 2: Z(1)})

    def test_dd_zero(self):
        X = projective_plane().suspension()
        GlobalBlowupComplex(X).full_complex()

    def test_restriction_compatibility(self):
        # a global element evaluated on a simplex then restricted to a
        # regular face equals its evaluation on the face
        X = projective_plane().cone()
        G = GlobalBlowupComplex(X)
        rng = random.Random(5)
        k = 1
        coeffs = {g: rng.randint(-3, 3) for g in G.basis[k]}

        def value_on(sigma):
            out = {}
            for g, c in coeffs.items():
                if c and set(g.carrier) <= set(sigma):
                    out[as_local(g, X)] = c
            return out

        for m in X.maximal_simplices()[:5]:
            for i in range(len(m)):
                face = tuple(sorted(set(m) - {list(m)[i]}, key=str))
                fs = frozenset(m) - {sorted(m, key=str)[i]}
                if not X.is_regular(fs):
                    continue
                direct = value_on(fs)
                restricted = {lab: c for lab, c in value_on(m).items()
                              if set(lab[-1]) | set(
                                  v for e in lab[:-1] for v in e[0]) <= fs}
                assert direct == restricted


CONE_TRUNC = {
    # H^*(RP2) = (Z, 0, Z/2) truncated at k
    0: GradedModule({0: Z(1)}),
    1: GradedModule({0: Z(1)}),
}


class TestBlowupCohomology:
    @pytest.mark.parametrize("k", [0, 1])
    def test_cone_rp2_truncates(self, k):
        X = projective_plane().cone()
        H = blowup_cohomology(X, apex_perversity(X, k), ZZ)
        assert H == CONE_TRUNC[k]

    @pytest.mark.parametrize("k,expected", [
        (0, GradedModule({0: Z(1), 3: Zmod(2)})),
        (1, GradedModule({0: Z(1), 3: Zmod(2)})),
    ])
    def test_suspension_rp2_mayer_vietoris(self, k, expected):
        # oracle: H^j(M) for j <= k, gap at k+1, H^{j-1}(M) above
        X = projective_plane().suspension()
        H = blowup_cohomology(X, apex_perversity(X, k), ZZ)
        assert H == expected

    @pytest.mark.parametrize("k,expected", [
        (0, GradedModule({0: Z(1), 2: Z(2), 3: Z(1)})),
        (1, GradedModule({0: Z(1), 1: Z(2), 3: Z(1)})),
    ])
    def test_suspension_t2(self, k, expected):
        X = torus().suspension()
        H = blowup_cohomology(X, apex_perversity(X, k), ZZ)
        assert H == expected

    def test_field_duality_consequence(self):
        # over a field the comparison map is a quasi-isomorphism:
        # dim H~^k_p = dim GH^k_Dp
        from strathom.chains import intersection_cohomology
        for X in (projective_plane().cone(), projective_plane().suspension()):
            for k in (0, 1):
                p = apex_perversity(X, k)
                dp = p.complementary()
                for F in (Coefficients("Q"), Coefficients("Fp", 2),
                          Coefficients("Fp", 3)):
                    hb = blowup_cohomology(X, p, F)
                    gh = intersection_cohomology(X, dp, F)
                    degrees = set(hb.support()) | set(gh.support())
                    assert all(hb[j].rank == gh[j].rank for j in degrees)

    def test_saturation(self):
        X = projective_plane().suspension()
        bi = blowup_complex(X, apex_perversity(X, 1), ZZ)
        for k, B in oracle.Lattice(bi).bases.items():
            if B.cols:
                assert all(d == 1 for d in smith(B, False, False).diagonal)


class TestRelativeComplex:
    def test_equal_perversities_acyclic(self):
        X = torus().suspension()
        p = apex_perversity(X, 0)
        assert relative_cohomology(X, p, p, ZZ).is_zero()

    def test_manifold_acyclic_for_all_gm_pairs(self):
        X = torus()
        p = Perversity(X, {})
        assert relative_cohomology(X, p, p, ZZ).is_zero()

    def test_suspension_t2_relative(self):
        # cofiber of the (0,1) truncation comparison: Z^4 in degree 1
        X = torus().suspension()
        H = relative_cohomology(X, apex_perversity(X, 0),
                                apex_perversity(X, 1), ZZ)
        assert H == GradedModule({1: Z(4)})

    def test_suspension_rp2_relative_matches_oracle(self):
        from strathom.spaces import atom, relative_suspension
        X = projective_plane().suspension()
        H = relative_cohomology(X, apex_perversity(X, 0),
                                apex_perversity(X, 1), ZZ)
        oracle = relative_suspension(atom("RP2"), 0, 1)
        expected = GradedModule({j: e.resolved for j, e in oracle.items()
                                 if e.resolved is not None})
        assert H == expected

    def test_order_requirement(self):
        X = torus().suspension()
        with pytest.raises(ValueError):
            relative_cohomology(X, apex_perversity(X, 1),
                                apex_perversity(X, 0), ZZ)

    def test_long_exact_sequence_euler_characteristic(self):
        # rank bookkeeping: chi(cone) = chi(N_q) - chi(N_p) over Q
        X = torus().suspension()
        p, q = apex_perversity(X, 0), apex_perversity(X, 1)
        Q = Coefficients("Q")
        hp = blowup_cohomology(X, p, Q)
        hq = blowup_cohomology(X, q, Q)
        hrel = relative_cohomology(X, p, q, Q)

        def chi(h):
            return sum((-1) ** j * h[j].rank for j in h.support())
        assert chi(hrel) == chi(hq) - chi(hp)


NESTING_SPACES = [f"{how}({atom})" for atom in ("S1", "S2", "T2", "RP2")
                  for how in ("cone", "susp")] + ["susp2(RP2)"]


@pytest.mark.parametrize("name", sorted(NESTING_SPACES))
def test_allowed_coordinates_nest_in_the_perversity(name):
    """For p <= q every p-allowable basis element of the blown-up complex
    and every p-allowable simplex is q-allowable: A_p c A_q, the fact the
    relative complex is read from.  Apex values run 0..n-1."""
    X = SPACES[name]()
    G = GlobalBlowupComplex(X)
    values = range(X.n)
    allowed = {a: G.allowed_indices(apex_perversity(X, a)) for a in values}
    on_chains = {a: {s for s in X.simplices if allowable(X, s, apex_perversity(X, a))}
                 for a in values}
    for a in values:
        for b in values[a:]:
            for k, indices in allowed[a].items():
                assert set(indices) <= set(allowed[b][k]), (a, b, k)
            assert on_chains[a] <= on_chains[b], (a, b)
    # and the inclusion is strict: the values do cut
    assert allowed[0] != allowed[X.n - 1] and on_chains[0] != on_chains[X.n - 1]


@pytest.mark.parametrize("name", ["cone(RP2)", "susp(RP2)", "susp(T2)"])
def test_relative_cohomology_matches_the_lattice_route(name):
    """The cone of the identity cut to A_q and A_p against the cone of the
    inclusion of induced complexes, solved for in lattice bases, over Z, Q,
    F2 and F3 at every apex pair a <= b."""
    X = SPACES[name]()
    values = range(X.n - 1)
    for ring in (ZZ, Coefficients("Q"), Coefficients("Fp", 2), Coefficients("Fp", 3)):
        for a in values:
            for b in values[a:]:
                p, q = apex_perversity(X, a), apex_perversity(X, b)
                expected = homology_all(oracle.relative_complex(X, p, q, ring), ring)
                assert relative_cohomology(X, p, q, ring) == expected, (str(ring), a, b)


@pytest.mark.parametrize("module", [strathom, strathom.exact_algebra],
                         ids=["strathom", "exact_algebra"])
def test_public_names_resolve(module):
    # the local tensor complexes live in the test oracle, not the package
    for name in module.__all__:
        assert hasattr(module, name), name
    assert not {"local_complex", "local_perverse_degree"} & set(module.__all__)


@pytest.mark.parametrize("name,build", [
    ("susp(S1)", lambda: circle().suspension()),
    ("susp4(S1)", lambda: circle().suspension().suspension().suspension().suspension()),
    ("cone(T2)", lambda: torus().cone()),
    ("susp2(RP2)", lambda: projective_plane().suspension().suspension()),
    ("cone(RP2) + susp(T2)", lambda: projective_plane().cone().disjoint_union(
        torus().suspension())),
], ids=lambda v: v if isinstance(v, str) else "")
def test_label_count_is_the_basis_size(name, build):
    X = build()
    assert label_count(X) == sum(len(b) for b in GlobalBlowupComplex(X).basis.values())
