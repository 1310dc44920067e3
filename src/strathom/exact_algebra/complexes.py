"""Chain complexes of free modules with exact homology.

A complex carries its orientation explicitly: ``hom`` complexes lower the
degree, ``coh`` complexes raise it.  ``homology_all`` reads homology from
invariant factors alone: diagonal-only Smith forms over Z and Q, ranks over
F_p.  A ``Subcomplex`` (allowed basis elements with allowed differential:
both intersection engines and the relative complex, a subcomplex of the
cone of an identity) gets them from one fused elimination per ambient
differential, ``matrices.split_factors``, with no lattice basis, no solve
and no product.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Union

from .matrices import IntMatrix, rank_mod_p, smith, split_factors
from .modules import Coefficients, FGModule, GradedModule


class ComplexValidationError(ValueError):
    pass


class ChainComplex:
    """Finitely supported complex of free modules with named bases.

    ``columns[k]``, the differential leaving degree k (to k-1 for ``hom``
    orientation, to k+1 for ``coh``), is one sparse column {row: entry} per
    basis element of degree k, and the only stored form: the ambients are
    made as columns, other callers pass an ``IntMatrix``, converted once;
    ``diff(k)`` makes an ``IntMatrix`` on each read.  The shape, the rows of
    every column and d(d(x)) = 0 on every column (mod ``modulus`` if set)
    are checked on construction."""

    def __init__(self, orientation: str, ranks: Dict[int, int],
                 diffs: Dict[int, Union[IntMatrix, List[Dict[int, int]]]],
                 basis: Optional[Dict[int, list]] = None,
                 check: bool = True, modulus: Optional[int] = None):
        if orientation not in ("hom", "coh"):
            raise ValueError("orientation must be 'hom' or 'coh'")
        self.orientation = orientation
        self.modulus = modulus
        self.ranks = {k: r for k, r in ranks.items() if r}
        self.columns: Dict[int, List[Dict[int, int]]] = {}
        self.basis = basis or {}
        step = -1 if orientation == "hom" else 1
        for k, m in diffs.items():
            rows, cols = ranks.get(k + step, 0), ranks.get(k, 0)
            if isinstance(m, IntMatrix):
                shape, columns = (m.rows, m.cols), [{} for _ in range(m.cols)]
                for (i, j), v in m.entries.items():
                    columns[j][i] = v
            else:
                shape, columns = (rows, len(m)), m
            if not any(columns):
                continue
            if shape != (rows, cols):
                raise ComplexValidationError(
                    f"differential at degree {k} has shape {shape[0]}x{shape[1]}, "
                    f"expected {rows}x{cols}")
            for col in columns:
                if col and not (0 <= min(col) and max(col) < rows):
                    raise ComplexValidationError(
                        f"differential at degree {k} has a row outside 0..{rows - 1}")
            self.columns[k] = columns
        # d o d = 0, each column of d_k carried through d_(k+step)
        for k, columns in self.columns.items() if check else ():
            nxt = self.columns.get(k + step)
            for col in columns if nxt else ():
                acc: Dict[int, int] = {}
                for i, v in col.items():
                    for r, w in nxt[i].items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(w % modulus for w in acc.values()) if modulus else any(acc.values()):
                    raise ComplexValidationError(
                        f"d o d != 0 between degrees {k} and {k + 2 * step}")

    @property
    def step(self) -> int:
        return -1 if self.orientation == "hom" else 1

    def support(self) -> List[int]:
        return sorted(self.ranks)

    def rank(self, k: int) -> int:
        return self.ranks.get(k, 0)

    def diff(self, k: int) -> IntMatrix:
        """d_k as an ``IntMatrix``, made from its columns on each read."""
        return IntMatrix(self.rank(k + self.step), self.rank(k),
                         {(i, j): v for j, col in enumerate(self.columns.get(k, ()))
                          for i, v in col.items()})

    def factors(self, k: int, ring: Coefficients) -> tuple:
        """Invariant factors of the map leaving degree k (over F_p, 1s)."""
        m = self.diff(k)
        if m.is_zero():
            return ()
        if ring.kind == "Fp":
            return (1,) * rank_mod_p(m, ring.p)
        return smith(m, need_U=False, need_V=False).diagonal


def homology_all(C, ring: Coefficients = Coefficients("Z")) -> GradedModule:
    """Every H_k = R^(n_k - r_out - r_in) + sum of Z/d_i, where r_out and
    r_in are the ranks of the maps leaving and entering degree k and the
    d_i > 1 the invariant factors of the entering one (no torsion over a
    field).  ``C`` reads ``support``/``rank``/``factors``/``step``, as a
    ChainComplex and a Subcomplex do; each differential is read once.
    """
    factors: Dict[int, tuple] = {}

    def leaving(k):
        if k not in factors:
            factors[k] = C.factors(k, ring)
        return factors[k]

    groups = {}
    for k in C.support():
        out, into = leaving(k), leaving(k - C.step)
        torsion = [d for d in into if d > 1] if ring.kind == "Z" else []
        groups[k] = FGModule.from_factors(C.rank(k) - len(out) - len(into), torsion)
    return GradedModule(groups)


def homology(C, k: int, ring: Coefficients = Coefficients("Z")) -> FGModule:
    """H_k alone, read from ``homology_all``."""
    return homology_all(C, ring)[k]


class Subcomplex:
    """The lattices I_k of chains on the allowed coordinates A_k of
    ``ambient`` with differential on allowed coordinates (over F_p, subspaces).
    ``split_factors`` of each d transposed, cut to the rows A_k, with the
    banned targets as the columns below the split, reads rank I_k and the
    factors of d on I_k, which are those of the induced differential, as
    I_(k+step) is saturated.  Reading those factors is its one job: no
    basis of I_k is ever built.

    Clearing: degrees are read in the differential's direction, and the
    rows A_(k+step) where phase 2 of degree k pivoted are not fed.  Its pivot
    rows y = d(x), x in I_k, are unit-triangular on their pivots S, so
    I_(k+step) = span(y) (+) (I_(k+step) on A_(k+step) minus S); d(y) = 0, so
    the factors of d, and the rank of the banned block, are those on the
    second summand, and rank I = |A| - phase-1 pivots still holds.
    """

    def __init__(self, ambient: ChainComplex, allowed: Dict[int, List[int]],
                 ring: Coefficients):
        self.ambient = ambient
        self.allowed = allowed
        self.ring = ring
        self.step = ambient.step

    @cached_property
    def _splits(self) -> Dict[int, tuple]:
        """Per degree k: (rank of d on A_k into the banned targets, factors)."""
        p = self.ring.p if self.ring.kind == "Fp" else 0
        out, cleared = {}, {}
        for k in sorted(self.allowed, reverse=self.step < 0):
            # banned target i is column i, allowed target i is column limit + i
            columns, limit = self.ambient.columns.get(k), self.ambient.rank(k + self.step)
            target = list(range(limit))
            for i in self.allowed.get(k + self.step, ()):
                target[i] = limit + i
            rows = {}
            for j in sorted(set(self.allowed[k]).difference(cleared.get(k, ()))
                            if columns else ()):
                row = {target[i]: v % p if p else v for i, v in columns[j].items()
                       if not p or v % p}
                if row:
                    rows[j] = row
            pivots = []
            out[k] = split_factors(rows, limit, p, pivots) if rows else (0, ())
            cleared[k + self.step] = {j - limit for j, _, _ in pivots}
        return out

    def support(self) -> List[int]:
        return [k for k in sorted(self.allowed) if self.rank(k)]

    def rank(self, k: int) -> int:
        return len(self.allowed.get(k, ())) - self._splits.get(k, (0,))[0]

    def factors(self, k: int, ring: Coefficients) -> tuple:
        if ring != self.ring:
            raise ValueError(f"a subcomplex over {self.ring} read over {ring}")
        return self._splits.get(k, (0, ()))[1]

    def dualize(self) -> "DualComplex":
        return DualComplex(self)


class DualComplex:
    """Hom(C, R) read for homology, in the opposite orientation.  A
    transpose keeps invariant factors, so the dual reads those of C one
    degree along; the dual differential d(c) = -(-1)^|c| c(d .) is the
    transpose up to units, which move no group."""

    def __init__(self, C):
        self.C, self.step = C, -C.step
        self.support, self.rank = C.support, C.rank

    def factors(self, k: int, ring: Coefficients) -> tuple:
        return self.C.factors(k + self.step, ring)


class ChainMap:
    """Degree-zero map of complexes; commutes with the differentials."""

    def __init__(self, dom: ChainComplex, cod: ChainComplex,
                 mats: Optional[Dict[int, IntMatrix]] = None):
        self.dom, self.cod = dom, cod
        self.mats = {} if mats is None else mats
        if dom.orientation != cod.orientation:
            raise ComplexValidationError("chain map between mixed orientations")
        step = dom.step
        modulus = dom.modulus or cod.modulus
        for k in set(dom.support()) | set(cod.support()):
            f_k = self.mat(k)
            f_next = self.mat(k + step)
            delta = cod.diff(k) * f_k - f_next * dom.diff(k)
            zero = (all(v % modulus == 0 for v in delta.entries.values())
                    if modulus else delta.is_zero())
            if not zero:
                raise ComplexValidationError(f"chain map fails to commute at degree {k}")

    def mat(self, k: int) -> IntMatrix:
        if k in self.mats:
            return self.mats[k]
        return IntMatrix(self.cod.rank(k), self.dom.rank(k))

    @classmethod
    def identity(cls, C: ChainComplex) -> "ChainMap":
        """The identity of C, which commutes by construction: built without
        the check, which would multiply each differential of C by I."""
        f = cls.__new__(cls)
        f.dom = f.cod = C
        f.mats = {k: IntMatrix.identity(C.rank(k)) for k in C.support()}
        return f


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f: A -> B with differential D(b, a) = (db + f a, -da).

    Cohomological cone in degree j is B^j + A^{j+1}; homological cone in
    degree j is B_j + A_{j-1}.  Either way the long exact sequence with A
    and B holds in homology.
    """
    A, B = f.dom, f.cod
    step = A.step
    da = step      # A sits one degree along the orientation: B^j + A^{j+step}
    ranks = {}
    degrees = set(B.support()) | {k - da for k in A.support()}
    for j in degrees:
        ranks[j] = B.rank(j) + A.rank(j + da)
    diffs = {}
    for j in sorted(degrees):
        # the columns of B_j, then per column of A_(j+step): f a over -da
        bR, aR, bR2 = B.rank(j), A.rank(j + da), B.rank(j + step)
        fa = [{} for _ in range(aR)]
        for (r, c), v in f.mat(j + da).entries.items():
            fa[c][r] = v
        for c, col in enumerate(A.columns.get(j + da, ())):
            fa[c].update((bR2 + r, -v) for r, v in col.items())
        diffs[j] = B.columns.get(j, [{}] * bR) + fa
    return ChainComplex(A.orientation, ranks, diffs,
                        modulus=A.modulus or B.modulus)
