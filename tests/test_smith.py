"""Smith normal form: invariants that hold whatever pivot path is taken.

The invariant factors of A are those of its transpose and of P.A.Q for
any permutations P, Q; U.A.V is diagonal with those factors, d1 | d2 | ...,
and U, V are unimodular.  ``homology_all`` runs one Smith form per
non-zero differential.
"""
import random
import time

import pytest

from algebra_oracle import det
import strathom.exact_algebra.complexes as complexes
import strathom.exact_algebra.matrices as matrices
from strathom.blowup import GlobalBlowupComplex
from strathom.chains import intersection_complex, regular_complex
from strathom.exact_algebra import (ChainComplex, Coefficients, IntMatrix,
                                    homology_all, smith)
from strathom.exact_algebra.complexes import homology
from strathom.exact_algebra.matrices import kernel_basis, solve
from strathom.stratified import Perversity
from strathom.triangulations import projective_plane, triangulation_of
from subcomplex_oracle import Lattice

ZZ = Coefficients("Z")
F2 = Coefficients("Fp", 2)
ATOMS = ("S1", "S2", "S3", "T2", "RP2", "RP3")
SPACES = {name: (lambda a=name: triangulation_of(a)) for name in ATOMS}
SPACES.update({f"cone({a})": (lambda a=a: triangulation_of(a).cone()) for a in ATOMS})
SPACES.update({f"susp({a})": (lambda a=a: triangulation_of(a).suspension())
               for a in ATOMS})
SPACES["susp2(RP2)"] = lambda: projective_plane().suspension().suspension()


def permuted(A: IntMatrix, seed: int) -> IntMatrix:
    rng = random.Random(seed)
    rp, cp = list(range(A.rows)), list(range(A.cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return IntMatrix(A.rows, A.cols,
                     {(rp[i], cp[j]): v for (i, j), v in A.entries.items()})


def diagonal(A: IntMatrix) -> tuple:
    return smith(A, need_U=False, need_V=False).diagonal


def assert_decomposition(A: IntMatrix, check_det: bool = True):
    sd = smith(A)
    assert sd.U.rows == sd.U.cols == A.rows
    assert sd.V.rows == sd.V.cols == A.cols
    D = sd.U * A * sd.V
    assert D == IntMatrix.diagonal(sd.diagonal, A.rows, A.cols)
    assert all(d > 0 for d in sd.diagonal)
    assert all(b % a == 0 for a, b in zip(sd.diagonal, sd.diagonal[1:]))
    if check_det:
        assert abs(det(sd.U)) == 1 and abs(det(sd.V)) == 1
    return sd


def matrices_of(X):
    """Every boundary matrix of X and every allowable product d.B_k."""
    amb = regular_complex(X)
    out = [(f"d_{k}", m) for k, m in sorted(amb.diffs.items())]
    singular = [st for st in X.strata() if not st.regular]
    for p in range(max(X.n - 1, 1)) if singular else (0,):
        ic = intersection_complex(X, Perversity(X, {st.key: p for st in singular}), ZZ)
        lattice = Lattice(ic)
        for k in ic.support():
            m = lattice.diff(k)
            if not m.is_zero():
                out.append((f"p={p} d.B_{k}", m))
    return out


@pytest.mark.parametrize("name", sorted(SPACES))
def test_diagonal_invariant_under_transpose_and_permutation(name):
    for seed, (label, A) in enumerate(matrices_of(SPACES[name]())):
        d = diagonal(A)
        assert diagonal(A.transpose()) == d, label
        assert diagonal(permuted(A, seed)) == d, label
        assert diagonal(permuted(A.transpose(), seed + 1000)) == d, label


@pytest.mark.parametrize("name", ["RP2", "susp(RP2)", "cone(T2)"])
def test_kernel_of_boundaries(name):
    X = SPACES[name]()
    for k, A in regular_complex(X).diffs.items():
        K = kernel_basis(A)
        assert K.rows == A.cols and K.cols == A.cols - len(diagonal(A)), k
        assert (A * K).is_zero(), k
        assert diagonal(K) == (1,) * K.cols, k    # a saturated basis


def random_matrix(rows, cols, density, values, seed):
    rng = random.Random(seed)
    return IntMatrix(rows, cols, {(i, j): rng.choice(values)
                                  for i in range(rows) for j in range(cols)
                                  if rng.random() < density})


SHAPES = [(1, 1, 1.0), (3, 7, 0.5), (12, 12, 0.3), (25, 40, 0.15), (60, 45, 0.08),
          (120, 120, 0.03), (200, 150, 0.02), (200, 200, 0.015)]


@pytest.mark.parametrize("values", [(-1, 1), (-3, 3)], ids=["pm1", "pm3"])
@pytest.mark.parametrize("rows,cols,density", SHAPES)
def test_random_decomposition(rows, cols, density, values):
    for seed in range(3):
        A = random_matrix(rows, cols, density, values, seed)
        # Bareiss on large transforms with big entries is slow
        sd = assert_decomposition(A, check_det=max(rows, cols) <= 40)
        assert diagonal(A) == sd.diagonal
        assert diagonal(A.transpose()) == sd.diagonal
        assert diagonal(permuted(A, seed)) == sd.diagonal


def test_no_unit_entry():
    assert assert_decomposition(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal == (2, 4)


def test_lone_minus_one():
    sd = assert_decomposition(IntMatrix.from_rows([[0, 0], [0, -1], [0, 0]]))
    assert sd.diagonal == (1,)


def test_zero_rows_and_columns():
    A = IntMatrix(4, 5, {(0, 1): 3, (2, 1): 6, (2, 3): -2})
    assert assert_decomposition(A).diagonal == (1, 6)
    assert assert_decomposition(IntMatrix.zero(3, 2)).diagonal == ()


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0)])
def test_empty_shapes(rows, cols):
    sd = assert_decomposition(IntMatrix(rows, cols))
    assert sd.diagonal == () and sd.rank == 0
    K = kernel_basis(IntMatrix(rows, cols))
    assert K.rows == cols and K.cols == cols


def counting_smith(monkeypatch):
    calls = []

    def counted(A, need_U=True, need_V=True):
        calls.append(A)
        return smith(A, need_U, need_V)
    monkeypatch.setattr(complexes, "smith", counted)
    return calls


def counting_splits(monkeypatch):
    calls = []
    split_factors = complexes.split_factors

    def counted(rows, limit, p=0, pivots=None):
        calls.append(limit)
        return split_factors(rows, limit, p, pivots)
    monkeypatch.setattr(complexes, "split_factors", counted)
    return calls


@pytest.mark.parametrize("name", ["susp(RP2)", "cone(T2)", "susp2(RP2)"])
def test_homology_all_one_smith_per_differential(name, monkeypatch):
    X = SPACES[name]()
    amb = regular_complex(X)
    for C in (amb, amb.dualize()):
        nonzero = {k for k in C.support() if not C.diff(k).is_zero()}
        single = {k: homology(C, k, ZZ) for k in C.support()}
        calls = counting_smith(monkeypatch)
        H = homology_all(C, ZZ)
        assert len(calls) == len(nonzero)
        if isinstance(C, ChainComplex):
            assert len(calls) == len(C.diffs)
        assert H == type(H)(single)
        monkeypatch.undo()
    # A Subcomplex runs one fused elimination per ambient differential that
    # meets its allowed coordinates, and no Smith form of its own; its dual
    # reads the same factors.
    p = Perversity(X, {st.key: 0 for st in X.strata() if not st.regular})
    ref = intersection_complex(X, p, ZZ)
    single = {k: homology(ref, k, ZZ) for k in ref.support()}
    single_dual = {k: homology(ref.dualize(), k, ZZ) for k in ref.support()}
    ic = intersection_complex(X, p, ZZ)
    nonzero = {k for k, d in ic.ambient.diffs.items()
               if {j for _, j in d.entries} & set(ic.allowed.get(k, ()))}
    smiths, splits = counting_smith(monkeypatch), counting_splits(monkeypatch)
    H = homology_all(ic, ZZ)
    assert len(splits) == len(nonzero)
    H_dual = homology_all(ic.dualize(), ZZ)
    assert len(splits) == len(nonzero) and not smiths
    monkeypatch.undo()
    assert H == type(H)(single) and H_dual == type(H)(single_dual)


# The diagonal-only Smith form runs the unit-pivot elimination first and
# the gcd elimination on what it leaves; with a transform the gcd
# elimination runs on the whole matrix.  Both must give the same factors.

def transform_diagonal(A: IntMatrix) -> tuple:
    return smith(A, need_U=True, need_V=False).diagonal


@pytest.mark.parametrize("name", sorted(SPACES))
def test_unit_phase_matches_transform_path(name):
    for label, A in matrices_of(SPACES[name]()):
        assert diagonal(A) == transform_diagonal(A), label
        assert diagonal(A.transpose()) == transform_diagonal(A.transpose()), label


MIXED_SHAPES = [s for s in SHAPES if max(s[:2]) <= 80] + [(80, 80, 0.03)]


@pytest.mark.parametrize("rows,cols,density", MIXED_SHAPES)
def test_unit_phase_matches_transform_path_mixed(rows, cols, density):
    for seed in range(3):
        A = random_matrix(rows, cols, density, (-3, -1, 1, 3), seed)
        assert diagonal(A) == transform_diagonal(A), seed
        assert diagonal(A.transpose()) == transform_diagonal(A.transpose()), seed


@pytest.mark.parametrize("rows,cols,density", [(3, 7, 0.5), (12, 12, 0.3),
                                               (25, 40, 0.15)])
def test_no_unit_entry_matches_transform_path(rows, cols, density):
    for seed in range(3):
        A = random_matrix(rows, cols, density, (-6, -2, 2, 3, 4), seed)
        assert not any(abs(v) == 1 for v in A.entries.values())
        assert diagonal(A) == transform_diagonal(A), seed


def units_after_fill(n: int) -> IntMatrix:
    """Units only in column 0; row i minus row 0 is the unit vector e_i."""
    return IntMatrix(n, n, {(i, j): (1 if j == 0 else 3 if i == j else 2)
                            for i in range(n) for j in range(n)})


@pytest.mark.parametrize("n", [2, 5, 12])
def test_units_after_fill(n):
    A = units_after_fill(n)
    rows = matrices._rows_of(A)
    assert matrices._eliminate_units(rows) == (n, 1)
    assert rows == {}
    assert diagonal(A) == transform_diagonal(A) == (1,) * n


def test_fill_makes_larger_entry():
    # the unit pivot at (0, 0) turns the 2 below it into 4
    A = IntMatrix.from_rows([[1, 2], [-1, 2]])
    sd = smith(A, need_U=False, need_V=False)
    assert sd.diagonal == transform_diagonal(A) == (1, 4)
    assert sd.peak_abs == 4


# The unit pivots wait in cost buckets; ties go to the candidate queued
# last, so one input always takes one pivot path, and every path gives one
# count and one diagonal.

def unit_pivots(A: IntMatrix, p: int = 0) -> list:
    pivots = []
    matrices._eliminate_units(matrices._rows_of(A, p), p, pivots)
    return [(j, inv, dict(r)) for j, inv, r in pivots]


def test_ties_go_to_the_unit_queued_last():
    assert [j for j, _, _ in unit_pivots(IntMatrix.identity(3))] == [2, 1, 0]


@pytest.mark.parametrize("p", [0, 2, 3])
def test_one_input_one_pivot_path(p):
    for label, A in matrices_of(SPACES["cone(RP3)"]()):
        assert unit_pivots(A, p) == unit_pivots(A, p), label
    A = random_matrix(200, 200, 0.015, (-1, 1), 0)
    assert unit_pivots(A, p) == unit_pivots(A, p)


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_permuted_input_gives_one_count_and_diagonal(p, seed):
    """``split_factors`` of rows and columns permuted, the columns below the
    split among themselves: the same (count, diagonal); with the split at 0
    (no phase 1), the transpose's diagonal."""
    A = random_matrix(60, 80, 0.06, (-1, 1, 2), seed)
    rng, limit = random.Random(seed), 30
    rp, low, high = list(range(60)), list(range(limit)), list(range(limit, 80))
    for order in (rp, low, high):
        rng.shuffle(order)
    cp = low + high
    B = IntMatrix(60, 80, {(rp[i], cp[j]): v for (i, j), v in A.entries.items()})
    want = matrices.split_factors(matrices._rows_of(A, p), limit, p)
    assert matrices.split_factors(matrices._rows_of(B, p), limit, p) == want
    assert matrices.split_factors(matrices._rows_of(A.transpose(), p), 0, p)[1] == (
        matrices.split_factors(matrices._rows_of(B.transpose(), p), 0, p)[1])


def test_dense_pm1_within_budget():
    """Every entry a unit: each pivot's cost is near the largest, and the
    buckets hold a few costs, not one slot per cost.  Rows and columns of
    J - 2I with random signs (150 x 150) have invariant factors 1, 2 (148
    times) and 296, so ranks 1 mod 2, 149 mod 37 and 150 mod 3; a random
    sign matrix is cross-checked against its transpose."""
    n, rng = 150, random.Random(0)
    rs, cs = [rng.choice((-1, 1)) for _ in range(n)], [rng.choice((-1, 1)) for _ in range(n)]
    A = IntMatrix(n, n, {(i, j): rs[i] * cs[j] * (-1 if i == j else 1)
                         for i in range(n) for j in range(n)})
    R = IntMatrix(n, n, {(i, j): rng.choice((-1, 1)) for i in range(n) for j in range(n)})
    t0 = time.process_time()
    assert diagonal(A) == (1,) + (2,) * 148 + (296,)
    assert [matrices.rank_mod_p(A, p) for p in (2, 37, 3)] == [1, 149, 150]
    assert matrices.rank_mod_p(R, 3) == matrices.rank_mod_p(R.transpose(), 3)
    assert time.process_time() - t0 < 5.0     # about 0.7 s on a 2-vCPU shared host


class RecordingRow(dict):
    """A row that remembers the largest |entry| ever written to it."""
    largest = 0

    def __setitem__(self, j, v):
        RecordingRow.largest = max(RecordingRow.largest, abs(v))
        super().__setitem__(j, v)


def peak_cases():
    for rows, cols, density in MIXED_SHAPES:
        for seed in range(3):
            yield f"mixed {rows}x{cols} seed {seed}", random_matrix(
                rows, cols, density, (-3, -1, 1, 3), seed)
    for name in ("RP2", "susp(RP2)", "cone(RP3)"):
        for label, A in matrices_of(SPACES[name]()):
            yield f"{name} {label}", A


def test_peak_covers_entries_created_by_unit_phase():
    for label, A in peak_cases():
        rows = {i: RecordingRow(r) for i, r in matrices._rows_of(A).items()}
        RecordingRow.largest = 0        # count only what the elimination writes
        _, peak = matrices._eliminate_units(rows)
        assert peak >= RecordingRow.largest, label
        sd = smith(A, need_U=False, need_V=False)
        assert sd.peak_abs >= max(peak, A.max_abs()), label
        assert sd.peak_abs >= max((abs(v) for r in rows.values() for v in r.values()),
                                  default=0), label


# ``kernel_basis`` back-substitutes through the unit pivots and takes the
# kernel of the remainder from its own Smith form; the reference is the
# V-trailing columns of a Smith form of the whole matrix.

def reference_kernel(A: IntMatrix) -> IntMatrix:
    sd = smith(A, need_U=False, need_V=True)
    return sd.V.submatrix(range(A.cols), range(sd.rank, A.cols))


def assert_kernel(A: IntMatrix, label=""):
    K, R = kernel_basis(A), reference_kernel(A)
    assert K.rows == A.cols and K.cols == R.cols, label
    assert (A * K).is_zero(), label
    if K.cols:
        assert diagonal(K) == (1,) * K.cols, label     # saturated
        assert solve(K, R) is not None and solve(R, K) is not None, label
    return K


@pytest.mark.parametrize("name", sorted(SPACES))
def test_kernel_matches_whole_matrix_smith(name):
    for label, A in matrices_of(SPACES[name]()):
        assert_kernel(A, label)
        assert_kernel(A.transpose(), label)


@pytest.mark.parametrize("rows,cols,density", MIXED_SHAPES)
def test_kernel_mixed(rows, cols, density):
    for seed in range(3):
        A = random_matrix(rows, cols, density, (-3, -1, 1, 3), seed)
        assert_kernel(A, seed)
        assert_kernel(A.transpose(), seed)


@pytest.mark.parametrize("rows,cols,density", [(3, 7, 0.5), (12, 12, 0.3),
                                               (6, 20, 0.4), (10, 16, 0.3)])
def test_kernel_without_units(rows, cols, density):
    # no unit pivot: the whole matrix is the remainder (at 25x40 both
    # routes reach 14915-bit kernel entries, the coefficient growth of the
    # gcd elimination on non-boundary matrices)
    for seed in range(3):
        A = random_matrix(rows, cols, density, (-6, -2, 2, 3, 4), seed)
        rows_left = matrices._rows_of(A)
        assert matrices._eliminate_units(rows_left)[0] == 0
        K = assert_kernel(A, seed)
        assert K.cols >= cols - rows
        assert_kernel(A.transpose(), seed)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_kernel_units_after_fill(n):
    # units only in column 0; the appended columns 2*c_1 + c_(n-1) and
    # c_1 + c_(n-1) hold none, and the kernel has to find both relations
    A = units_after_fill(n)
    extra = IntMatrix.from_rows([[0, 0], [2, 1]] + [[0, 0]] * (n - 2))
    A = A.hstack(A * (extra + IntMatrix(n, 2, {(n - 1, 0): 1, (n - 1, 1): 1})))
    assert not any(abs(v) == 1 for (i, j), v in A.entries.items() if j)
    K = assert_kernel(A, n)
    assert K.cols == 2
    assert assert_kernel(A.transpose(), n).cols == 0


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0), (3, 5)])
def test_kernel_of_zero_and_empty_shapes(rows, cols):
    K = assert_kernel(IntMatrix(rows, cols))
    assert K == IntMatrix.identity(cols)


# The integer ``solve`` takes the unit pivots of [A | -B] in A's columns and
# hands only the unit-free remainder to ``_smith_solve``; the reference is
# ``_smith_solve`` on all of A.  Where the solution is not unique the two
# may pick different ones, so each is checked by A.X = B.

def right_sides(A: IntMatrix, seed: int):
    """(kind, B) with B = A.R (``unique`` or ``non-unique``), with a column
    outside the rational span of A (``rank``) or inside it but outside the
    integer span (``divisibility``)."""
    sd = smith(A, need_U=False, need_V=True)
    R = random_matrix(A.cols, 3, 0.5, (-2, -1, 1, 2), seed)
    out = [("unique" if sd.rank == A.cols else "non-unique", A * R)]
    if sd.rank < A.rows:
        # y with y.A = 0 is not in the span of A: y.y > 0
        y = kernel_basis(A.transpose()).submatrix(range(A.rows), [0])
        out.append(("rank", (A * R).submatrix(range(A.rows), [0]).hstack(y)))
    for k, d in enumerate(sd.diagonal):
        if d > 1:
            AV = (A * sd.V).submatrix(range(A.rows), [k])
            out.append(("divisibility", IntMatrix(A.rows, 1, {
                ij: v // d for ij, v in AV.entries.items()})))
            break
    return out


def assert_solve(A: IntMatrix, seed: int, label="") -> set:
    kinds = set()
    for kind, B in right_sides(A, seed):
        X, R = solve(A, B), matrices._smith_solve(A, B)
        consistent = kind in ("unique", "non-unique")
        assert (X is not None) == (R is not None) == consistent, (label, kind)
        if consistent:
            assert A * X == B and A * R == B, (label, kind)
        kinds.add(kind)
    return kinds


@pytest.mark.parametrize("name", sorted(SPACES))
def test_solve_matches_whole_matrix_smith_solve(name):
    kinds = set()
    for seed, (label, A) in enumerate(matrices_of(SPACES[name]())):
        kinds |= assert_solve(A, seed, label)
    assert {"non-unique", "rank"} <= kinds
    assert ("divisibility" in kinds) == ("RP" in name)


# Unit-free matrices at the shapes of ``test_kernel_without_units``: the
# remainder is the whole matrix there, and from 25x40 on the coefficient
# growth of the gcd elimination (ROADMAP 2c) makes one solve take seconds
# (25x40) or more than 10 s (60x45, 80x80) on either route.
CASES = ([(shape, (-1, 1)) for shape in MIXED_SHAPES]
         + [(shape, (-3, -1, 1, 3)) for shape in MIXED_SHAPES]
         + [(shape, (-6, -2, 2, 3, 4)) for shape in
            [(3, 7, 0.5), (12, 12, 0.3), (6, 20, 0.4), (10, 16, 0.3)]])


def test_solve_matches_whole_matrix_smith_solve_random():
    kinds = set()
    for (rows, cols, density), values in CASES:
        for seed in range(3):
            A = random_matrix(rows, cols, density, values, seed)
            kinds |= assert_solve(A, seed, (rows, cols, values, seed))
            kinds |= assert_solve(A.transpose(), seed, (rows, cols, values, seed))
    assert kinds == {"unique", "non-unique", "rank", "divisibility"}


# split_factors eliminates units in the banned columns (those below the
# limit) first; the reference takes the left kernel of the whole banned
# block and applies it to the whole rest of the matrix.

def whole_split(A: IntMatrix, limit: int):
    low = A.submatrix(range(A.rows), range(limit))
    K = kernel_basis(low.transpose())
    return A.rows - K.cols, diagonal(K.transpose() * A.submatrix(
        range(A.rows), range(limit, A.cols)))


def test_split_factors_match_whole_matrices():
    for (rows, cols, density), values in CASES:
        for seed in range(3):
            A = random_matrix(rows, cols, density, values, seed)
            for limit in (0, cols // 2, cols):
                label = (rows, cols, values, seed, limit)
                lost, factors = whole_split(A, limit)
                assert matrices.split_factors(matrices._rows_of(A), limit) == \
                    (lost, factors), label
                for p in (2, 3):
                    low = matrices.rank_mod_p(A.submatrix(range(rows), range(limit)), p)
                    assert matrices.split_factors(matrices._rows_of(A, p), limit, p) == \
                        (low, (1,) * (matrices.rank_mod_p(A, p) - low)), (label, p)


def induced_complexes():
    """Every allowable subcomplex of the SPACES at each apex perversity,
    over Z and F2: the chain side, and the blow-up side where n <= 3."""
    for name in sorted(SPACES):
        X = SPACES[name]()
        singular = [st for st in X.strata() if not st.regular]
        for p in range(max(X.n - 1, 1)) if singular else (0,):
            pv = Perversity(X, {st.key: p for st in singular})
            for ring in (ZZ, F2):
                yield f"{name} p={p} {ring} chains", intersection_complex(X, pv, ring)
                if X.n <= 3:
                    yield (f"{name} p={p} {ring} blow-up",
                           GlobalBlowupComplex(X).intersection_complex(pv, ring))


def test_induced_complexes_run_no_transform(monkeypatch):
    transforms = []
    smith_work = matrices._smith_work

    def counted(A, need_U, need_V):
        if need_U or need_V:
            transforms.append(A)
        return smith_work(A, need_U, need_V)
    count = 0
    for label, C in induced_complexes():
        lattice = Lattice(C)    # its kernels may run Smith forms with V
        monkeypatch.setattr(matrices, "_smith_work", counted)
        lattice.complex
        monkeypatch.undo()
        assert not transforms, label
        count += 1
    assert count == 110


def test_solve_hands_smith_the_remainder_only(monkeypatch):
    calls = []

    def recorded(M, need_U=True, need_V=True):
        calls.append(M)
        return smith(M, need_U, need_V)
    remainders = 0
    for (rows, cols, density), values in CASES:
        for seed in range(3):
            A = random_matrix(rows, cols, density, values, seed)
            B = A * random_matrix(cols, 2, 0.5, (-2, -1, 1, 2), seed)
            left = matrices._rows_of(A.hstack(-B))
            pivots = matrices._eliminate_units(left, 0, None, A.cols)[0]
            calls.clear()
            monkeypatch.setattr(matrices, "smith", recorded)
            assert A * solve(A, B) == B
            monkeypatch.undo()
            assert len(calls) == (1 if left else 0), (rows, cols, values, seed)
            if left:
                (M,) = calls
                assert M.rows == len(left) and M.cols == A.cols - pivots
                assert not any(abs(v) == 1 for v in M.entries.values())
                remainders += 1
    assert remainders
