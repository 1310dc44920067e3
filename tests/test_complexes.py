"""Chain complexes, homology over Z/Q/F_p, mapping cones."""
import pytest

from strathom.exact_algebra import (ChainComplex, ChainMap, Coefficients,
                                    ComplexValidationError, FGModule,
                                    GradedModule, IntMatrix, homology,
                                    homology_all, mapping_cone)

Z = FGModule.free
Zmod = FGModule.cyclic
ZZ = Coefficients("Z")


def circle_complex():
    d1 = IntMatrix.from_rows([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    return ChainComplex("hom", {0: 3, 1: 3}, {1: d1})


def rp2_complex():
    """Standard 6-vertex projective plane, dimensions (6, 15, 10)."""
    from strathom.triangulations import projective_plane
    from strathom.chains import regular_complex
    return regular_complex(projective_plane())


def brute_force_homology(C, k):
    """Dense textbook reduction, independent of the sparse Smith pipeline."""
    out = C.diff(k).to_dense()
    inc = C.diff(k - C.step).to_dense()

    def row_reduce_int(rows):
        # integer row echelon by gcd steps; returns rank
        rows = [r[:] for r in rows if any(r)]
        rank = 0
        cols = len(rows[0]) if rows else 0
        for c in range(cols):
            piv = None
            for i in range(rank, len(rows)):
                if rows[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            changed = True
            while changed:
                changed = False
                for i in range(rank + 1, len(rows)):
                    while rows[i][c]:
                        q = rows[i][c] // rows[rank][c]
                        if q:
                            rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
                        if rows[i][c]:
                            rows[rank], rows[i] = rows[i], rows[rank]
                            changed = True
            rank += 1
        return rank

    n = C.rank(k)
    r_out = row_reduce_int(out) if any(any(r) for r in out) else 0
    r_in = row_reduce_int(inc) if any(any(r) for r in inc) else 0
    free = n - r_out - r_in
    # torsion via dense Smith reduction of the incoming matrix
    m = [r[:] for r in inc]
    factors = []
    if m and m[0]:
        rows, cols = len(m), len(m[0])
        top = 0
        while True:
            piv = None
            for i in range(top, rows):
                for j in range(top, cols):
                    if m[i][j]:
                        if piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]]):
                            piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            m[top], m[pi] = m[pi], m[top]
            for r in m:
                r[top], r[pj] = r[pj], r[top]
            while True:
                done = True
                for i in range(top + 1, rows):
                    if m[i][top]:
                        q = m[i][top] // m[top][top]
                        m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                        if m[i][top]:
                            m[top], m[i] = m[i], m[top]
                        done = False
                for j in range(top + 1, cols):
                    if m[top][j]:
                        q = m[top][j] // m[top][top]
                        for r in m:
                            r[j] -= q * r[top]
                        if m[top][j]:
                            for r in m:
                                r[top], r[j] = r[j], r[top]
                        done = False
                if done:
                    break
            top += 1
            if top >= rows or top >= cols:
                break
        factors = [abs(m[i][i]) for i in range(min(rows, cols)) if m[i][i]]
    tors = [f for f in factors if f > 1]
    return FGModule.from_factors(free, tors)


class TestHomology:
    def test_circle(self):
        C = circle_complex()
        assert homology(C, 0) == Z(1)
        assert homology(C, 1) == Z(1)
        assert homology(C, 7).is_zero

    def test_rp2_against_brute_force(self):
        C = rp2_complex()
        assert homology(C, 1) == Zmod(2)
        assert homology(C, 2).is_zero
        for k in range(3):
            assert homology(C, k) == brute_force_homology(C, k)

    def test_zero_complex(self):
        C = ChainComplex("hom", {}, {})
        assert homology_all(C).is_zero()

    def test_dd_zero_enforced(self):
        bad = IntMatrix.from_rows([[1]])
        with pytest.raises(ComplexValidationError):
            ChainComplex("hom", {0: 1, 1: 1, 2: 1}, {1: bad, 2: bad})

    def test_field_coefficients(self):
        C = rp2_complex()
        F2 = Coefficients("Fp", 2)
        F3 = Coefficients("Fp", 3)
        Q = Coefficients("Q")
        # universal coefficients: dim over F_p counts p-torsion twice
        hz = homology_all(C)
        for k in range(3):
            for F in (F2, F3):
                expected = hz[k].rank + hz[k].p_torsion_count(F.p) \
                    + hz[k - 1].p_torsion_count(F.p)
                assert homology(C, k, F) == Z(expected)
            assert homology(C, k, Q) == Z(hz[k].rank)


class TestMappingCone:
    def test_cone_of_identity_acyclic(self):
        C = circle_complex()
        cone = mapping_cone(ChainMap.identity(C))
        assert homology_all(cone).is_zero()

    def test_cone_of_zero_is_shifted_sum(self):
        C = circle_complex()
        cone = mapping_cone(ChainMap(C, C, {}))
        H = homology_all(cone)
        assert H == GradedModule({0: Z(1), 1: Z(2), 2: Z(1)})

    def test_cone_of_multiplication_by_two(self):
        C = circle_complex()
        f = ChainMap(C, C, {k: IntMatrix.identity(3) * 2 for k in (0, 1)})
        H = homology_all(mapping_cone(f))
        assert H == GradedModule({0: Zmod(2), 1: Zmod(2)})

    def test_cohomological_cone(self):
        C = circle_complex().dualize()
        cone = mapping_cone(ChainMap.identity(C))
        assert homology_all(cone).is_zero()

    def test_long_exact_sequence_consistency(self):
        # cone homology orders match ker/coker of the induced map
        C = circle_complex()
        f = ChainMap(C, C, {k: IntMatrix.identity(3) * 3 for k in (0, 1)})
        H = homology_all(mapping_cone(f))
        # x3 on H_0 = H_1 = Z: coker Z/3 in both degrees
        assert H == GradedModule({0: Zmod(3), 1: Zmod(3)})

    def test_non_commuting_map_rejected(self):
        C = circle_complex()
        bad = {1: IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])}
        with pytest.raises(ComplexValidationError):
            ChainMap(C, C, bad)


def test_dualize_circle():
    D = circle_complex().dualize()
    assert D.orientation == "coh"
    assert homology(D, 0) == Z(1)
    assert homology(D, 1) == Z(1)
