"""Smith normal form and sparse matrix invariants."""
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from algebra_oracle import det, vstack
from strathom.exact_algebra import IntMatrix, random_sparse, rank_mod_p, smith
from strathom.exact_algebra.matrices import (_rows_of, kernel_basis,
                                             kernel_basis_mod_p, solve,
                                             solve_mod_p)
from strathom.triangulations import triangulation_of
from strathom.chains import regular_complex


def _echelon_mod_p(A, p):
    """Reduced row echelon form of A over F_p by row-order Gaussian
    elimination, the oracle for the F_p routines.

    Returns {pivot column: pivot row}, each row a dict col -> entry in
    1..p-1 with 1 at its pivot and no entry in another row's pivot column.
    """
    rows = _rows_of(A, p)
    pivots = {}
    for i in sorted(rows):
        cur = rows[i]
        while cur:
            j = min(cur)
            if j not in pivots:
                inv = pow(cur[j], p - 2, p)
                pivots[j] = {jj: (vv * inv) % p for jj, vv in cur.items()}
                break
            f = cur[j]
            for jj, vv in pivots[j].items():
                w = (cur.get(jj, 0) - f * vv) % p
                if w:
                    cur[jj] = w
                else:
                    cur.pop(jj, None)
    order = sorted(pivots)
    for j in reversed(order):
        row = pivots[j]
        for j2 in order:
            if j2 >= j:
                break
            r2 = pivots[j2]
            f = r2.get(j, 0)
            if f:
                for jj, vv in row.items():
                    w = (r2.get(jj, 0) - f * vv) % p
                    if w:
                        r2[jj] = w
                    else:
                        r2.pop(jj, None)
    return pivots


def assert_valid_snf(A):
    sd = smith(A)
    D = sd.U * A * sd.V
    for (i, j), v in D.entries.items():
        assert i == j and i < sd.rank
    for k, d in enumerate(sd.diagonal):
        assert d > 0
        assert D[(k, k)] == d
        if k:
            assert d % sd.diagonal[k - 1] == 0
    assert abs(det(sd.U)) == 1
    assert abs(det(sd.V)) == 1
    return sd


def test_smith_2x2_example():
    sd = assert_valid_snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert sd.diagonal == (2, 4)


def test_smith_identity():
    sd = assert_valid_snf(IntMatrix.identity(3))
    assert sd.diagonal == (1, 1, 1)


def test_smith_zero_1x1():
    sd = assert_valid_snf(IntMatrix.zero(1, 1))
    assert sd.diagonal == ()
    assert sd.rank == 0


def minor_gcd(A, k):
    """gcd of all k x k minors, brute force."""
    g = 0
    dense = A.to_dense()
    for rows in combinations(range(A.rows), k):
        for cols in combinations(range(A.cols), k):
            sub = IntMatrix.from_rows([[dense[i][j] for j in cols] for i in rows])
            g = gcd(g, det(sub))
    return abs(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 10 ** 6))
def test_smith_invariants_random(r, c, seed):
    rng = random.Random(seed)
    A = IntMatrix(r, c, {(i, j): rng.randint(-9, 9) for i in range(r)
                         for j in range(c) if rng.random() < 0.7})
    sd = assert_valid_snf(A)
    # product of the first k factors equals the gcd of k x k minors
    for k in range(1, min(3, sd.rank) + 1):
        prod = 1
        for d in sd.diagonal[:k]:
            prod *= d
        assert prod == minor_gcd(A, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_smith_matches_sympy(r, c, seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(seed)
    A = IntMatrix(r, c, {(i, j): rng.randint(-9, 9) for i in range(r)
                         for j in range(c) if rng.random() < 0.7})
    sd = smith(A, need_U=False, need_V=False)
    S = smith_normal_form(sympy.Matrix(A.to_dense()))
    reference = sorted(abs(S[i, i]) for i in range(min(r, c)) if S[i, i])
    assert reference == sorted(sd.diagonal)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_kernel_and_solve(r, c, seed):
    rng = random.Random(seed)
    A = IntMatrix(r, c, {(i, j): rng.randint(-5, 5) for i in range(r)
                         for j in range(c) if rng.random() < 0.7})
    K = kernel_basis(A)
    assert (A * K).is_zero()
    # saturation: SNF of a kernel basis has unit diagonal
    if K.cols:
        assert all(d == 1 for d in smith(K, False, False).diagonal)
    X = IntMatrix(c, 1, {(i, 0): rng.randint(-3, 3) for i in range(c)})
    B = A * X
    Xs = solve(A, B)
    assert Xs is not None and A * Xs == B


def test_solve_no_solution():
    A = IntMatrix.from_rows([[2]])
    B = IntMatrix.from_rows([[1]])
    assert solve(A, B) is None


def test_solve_inconsistent_only_past_rank():
    # unit invariant factors, so divisibility never fails; the second
    # column asks x = 1 and x = 0 at once
    A = IntMatrix.from_rows([[1], [1], [0]])
    B = IntMatrix.from_rows([[2, 1], [2, 0], [0, 0]])
    assert solve(A, B.submatrix(range(3), [0])) == IntMatrix.from_rows([[2]])
    assert solve(A, B) is None


def test_solve_inconsistent_only_by_divisibility():
    # full row rank, so no row lies past the rank; 6y = 2 has no
    # integer solution
    A = IntMatrix.from_rows([[3, 0], [0, 6]])
    assert solve(A, IntMatrix.from_rows([[3], [12]])) == IntMatrix.from_rows([[1], [2]])
    assert solve(A, IntMatrix.from_rows([[3], [2]])) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([2, 3, 5]),
       st.integers(0, 10 ** 6))
def test_mod_p_kernel_rank(r, c, p, seed):
    rng = random.Random(seed)
    A = IntMatrix(r, c, {(i, j): rng.randint(-6, 6) for i in range(r)
                         for j in range(c) if rng.random() < 0.6})
    K = kernel_basis_mod_p(A, p)
    AK = A * K
    assert all(v % p == 0 for v in AK.entries.values())
    assert rank_mod_p(A, p) + K.cols == c
    X = IntMatrix(c, 1, {(i, 0): rng.randint(0, p - 1) for i in range(c)})
    B = A * X
    Xs = solve_mod_p(A, B, p)
    assert Xs is not None
    diff = A * Xs - B
    assert all(v % p == 0 for v in diff.entries.values())


def rank_cases():
    rng = random.Random(7)
    for r, c in [(1, 1), (4, 9), (12, 12), (30, 20), (60, 80)]:
        for density in (0.1, 0.3, 0.7):
            yield f"random {r}x{c} d={density}", IntMatrix(
                r, c, {(i, j): rng.randint(-6, 6) for i in range(r)
                       for j in range(c) if rng.random() < density})
    for name in ("RP2", "T2", "RP3"):
        X = triangulation_of(name).suspension()
        for k, m in regular_complex(X).diffs.items():
            yield f"susp({name}) d_{k}", m
            yield f"susp({name}) 3*d_{k}^T", m.transpose() * 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_mod_p_matches_reduced_echelon(p):
    for label, A in rank_cases():
        assert rank_mod_p(A, p) == len(_echelon_mod_p(A, p)), label


def test_rank_mod_p_needs_inverse():
    # over F_5 the pivot 2 has inverse 3: row 1 - 3*row 0 = (1 - 6, 2 - 12) = 0
    A = IntMatrix.from_rows([[2, 4], [1, 2]])
    assert rank_mod_p(A, 5) == len(_echelon_mod_p(A, 5)) == 1
    assert rank_mod_p(IntMatrix.from_rows([[2, 4], [1, 3]]), 5) == 2


def test_triplet_roundtrip():
    A = random_sparse(7, 5, 0.4, seed=11, lo=-9, hi=9)
    B = IntMatrix.parse_triplets(A.serialize_triplets())
    assert A == B


def test_matrix_ops():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    B = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (A * B) == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert A.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])
    assert (A + (-A)).is_zero()
    assert det(A) == -2
    with pytest.raises(ValueError):
        IntMatrix(2, 2, {(2, 0): 1})


# Over F_p the kernel and the solve back-substitute through the unit
# pivots; the row-order reduced echelon form above is their oracle.

def echelon_kernel_mod_p(A, p):
    pivots = _echelon_mod_p(A, p)
    cols = []
    for fc in range(A.cols):
        if fc not in pivots:
            vec = {fc: 1}
            for pj, row in pivots.items():
                if row.get(fc):
                    vec[pj] = -row[fc] % p
            cols.append(vec)
    return IntMatrix.from_columns(cols, A.cols)


def echelon_solve_mod_p(A, B, p):
    pivots = _echelon_mod_p(A.hstack(B), p)
    if any(j >= A.cols for j in pivots):
        return None
    return IntMatrix(A.cols, B.cols, {(pj, jj - A.cols): vv for pj, row in pivots.items()
                                      for jj, vv in row.items() if jj >= A.cols})


def zero_mod(M, p):
    return all(v % p == 0 for v in M.entries.values())


def assert_same_kernel_mod_p(A, p, label):
    K, R = kernel_basis_mod_p(A, p), echelon_kernel_mod_p(A, p)
    assert K.rows == A.cols and K.cols == R.cols, label
    assert all(0 < v < p for v in K.entries.values()), label
    assert zero_mod(A * K, p), label
    # the same subspace: neither basis adds to the rank of the other
    assert rank_mod_p(K, p) == rank_mod_p(K.hstack(R), p) == K.cols, label


def assert_same_solve_mod_p(A, B, p, label):
    X, R = solve_mod_p(A, B, p), echelon_solve_mod_p(A, B, p)
    assert (X is None) == (R is None), label
    if X is not None:
        assert X.rows == A.cols and X.cols == B.cols, label
        assert zero_mod(A * X - B, p), label
        if len(_echelon_mod_p(A, p)) == A.cols:    # a unique solution
            assert zero_mod(X - R, p), label


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_mod_p_matches_reduced_echelon(p):
    for label, A in rank_cases():
        assert_same_kernel_mod_p(A, p, label)
        assert_same_kernel_mod_p(A.transpose(), p, label + " transposed")


def solve_cases(p):
    rng = random.Random(p)
    for label, A in rank_cases():
        if A.rows > 400:
            continue
        X = IntMatrix(A.cols, 3, {(i, j): rng.randint(0, p - 1)
                                  for i in range(A.cols) for j in range(3)
                                  if rng.random() < 0.3})
        yield label + " consistent", A, A * X
        yield label + " random right side", A, IntMatrix(
            A.rows, 2, {(i, j): rng.randint(1, p - 1)
                        for i in range(A.rows) for j in range(2) if rng.random() < 0.2})
        # a row that is 0 in A mod p and a unit in B: inconsistent, and a
        # pivot taken in B's columns would hide it
        zero_row = IntMatrix(1, A.cols, {(0, j): p * rng.randint(1, 3)
                                         for j in range(A.cols) if rng.random() < 0.3})
        B = A * X
        yield label + " unit only in B", vstack(A, zero_row), vstack(
            B, IntMatrix(1, 3, {(0, 1): 1}))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_mod_p_matches_reduced_echelon(p):
    for label, A, B in solve_cases(p):
        assert_same_solve_mod_p(A, B, p, label)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_mod_p_unit_only_in_b(p):
    # x = 1 and 0*x = 1: the second row's only unit lies in B
    A = IntMatrix.from_rows([[1], [p]])
    assert solve_mod_p(A, IntMatrix.from_rows([[1], [1]]), p) is None
    assert solve_mod_p(A, IntMatrix.from_rows([[1], [p]]), p) == IntMatrix.from_rows([[1]])
    # inconsistent only after elimination: row 1 - row 0 is (0 | 1)
    A = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert solve_mod_p(A, IntMatrix.from_rows([[0], [1]]), p) is None
    assert echelon_solve_mod_p(A, IntMatrix.from_rows([[0], [1]]), p) is None


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0), (3, 5)])
def test_mod_p_kernel_and_solve_of_zero_and_empty_shapes(p, rows, cols):
    A = IntMatrix(rows, cols)
    assert kernel_basis_mod_p(A, p) == IntMatrix.identity(cols)
    B = IntMatrix(rows, 2, {(i, 0): 1 for i in range(rows)})
    if rows:
        assert solve_mod_p(A, B, p) is None
    else:
        assert solve_mod_p(A, B, p) == IntMatrix(cols, 2)
