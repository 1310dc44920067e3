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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

from .matrices import IntMatrix, rank_mod_p, smith, split_factors
from .modules import Coefficients, FGModule, GradedModule


class ComplexValidationError(ValueError):
    pass


class ChainComplex:
    """Finitely supported complex of free modules with named bases.

    ``diffs[k]`` is the differential leaving degree k (to k-1 for ``hom``
    orientation, to k+1 for ``coh``).  d(d(x)) = 0 is asserted on
    construction.
    """

    def __init__(self, orientation: str, ranks: Dict[int, int],
                 diffs: Dict[int, IntMatrix], basis: Optional[Dict[int, list]] = None,
                 check: bool = True, modulus: Optional[int] = None):
        if orientation not in ("hom", "coh"):
            raise ValueError("orientation must be 'hom' or 'coh'")
        self.orientation = orientation
        self.modulus = modulus
        self.ranks = {k: r for k, r in ranks.items() if r}
        self.diffs = {}
        self.basis = basis or {}
        step = -1 if orientation == "hom" else 1
        for k, m in diffs.items():
            if m.is_zero():
                continue
            if m.cols != ranks.get(k, 0) or m.rows != ranks.get(k + step, 0):
                raise ComplexValidationError(
                    f"differential at degree {k} has shape {m.rows}x{m.cols}, "
                    f"expected {ranks.get(k + step, 0)}x{ranks.get(k, 0)}")
            self.diffs[k] = m
        if check:
            for k, m in self.diffs.items():
                nxt = self.diffs.get(k + step)
                if nxt is not None and not self._is_zero(nxt * m):
                    raise ComplexValidationError(
                        f"d o d != 0 between degrees {k} and {k + 2 * step}")

    def _is_zero(self, m: IntMatrix) -> bool:
        if self.modulus:
            return all(v % self.modulus == 0 for v in m.entries.values())
        return m.is_zero()

    @property
    def step(self) -> int:
        return -1 if self.orientation == "hom" else 1

    def support(self) -> List[int]:
        return sorted(self.ranks)

    def rank(self, k: int) -> int:
        return self.ranks.get(k, 0)

    def diff(self, k: int) -> IntMatrix:
        if k in self.diffs:
            return self.diffs[k]
        return IntMatrix(self.rank(k + self.step), self.rank(k))

    def factors(self, k: int, ring: Coefficients) -> tuple:
        """Invariant factors of the map leaving degree k (over F_p, 1s)."""
        m = self.diff(k)
        if m.is_zero():
            return ()
        if ring.kind == "Fp":
            return (1,) * rank_mod_p(m, ring.p)
        return smith(m, need_U=False, need_V=False).diagonal

    def dualize(self) -> "ChainComplex":
        """Linear dual: transposed differentials, opposite orientation.

        The sign convention d(c) = -(-1)^|c| c(d .) scales differentials
        by units only, which leaves every (co)homology group unchanged, so
        plain transposes suffice for group-level results.
        """
        new_orient = "coh" if self.orientation == "hom" else "hom"
        diffs = {}
        for k, m in self.diffs.items():
            # d^*: degree (k + step) -> degree k dual; leaving degree k+step
            diffs[k + self.step] = m.transpose()
        return ChainComplex(new_orient, dict(self.ranks), diffs, check=False,
                            modulus=self.modulus)

    @classmethod
    def zero(cls, orientation: str = "hom") -> "ChainComplex":
        return cls(orientation, {}, {})


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
            # banned target i is column i, allowed target i is column rows + i
            d, kept = self.ambient.diff(k), set(self.allowed.get(k + self.step, ()))
            cols, rows = set(self.allowed[k]).difference(cleared.get(k, ())), {}
            for (i, j), v in d.entries.items():
                if j in cols and (not p or v % p):
                    rows.setdefault(j, {})[i + d.rows * (i in kept)] = v % p if p else v
            pivots = []
            out[k] = split_factors(rows, d.rows, p, pivots) if rows else (0, ())
            cleared[k + self.step] = {j - d.rows for j, _, _ in pivots}
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
    degree along; the dual sign convention is units (ChainComplex.dualize)."""

    def __init__(self, C):
        self.C, self.step = C, -C.step
        self.support, self.rank = C.support, C.rank

    def factors(self, k: int, ring: Coefficients) -> tuple:
        return self.C.factors(k + self.step, ring)


@dataclass
class ChainMap:
    """Degree-zero map of complexes; commutes with the differentials."""
    dom: ChainComplex
    cod: ChainComplex
    mats: Dict[int, IntMatrix] = field(default_factory=dict)

    def __post_init__(self):
        if self.dom.orientation != self.cod.orientation:
            raise ComplexValidationError("chain map between mixed orientations")
        step = self.dom.step
        modulus = self.dom.modulus or self.cod.modulus
        for k in set(self.dom.support()) | set(self.cod.support()):
            f_k = self.mat(k)
            f_next = self.mat(k + step)
            delta = self.cod.diff(k) * f_k - f_next * self.dom.diff(k)
            zero = (all(v % modulus == 0 for v in delta.entries.values())
                    if modulus else delta.is_zero())
            if not zero:
                raise ComplexValidationError(f"chain map fails to commute at degree {k}")

    def mat(self, k: int) -> IntMatrix:
        if k in self.mats:
            return self.mats[k]
        return IntMatrix(self.cod.rank(k), self.dom.rank(k))

    @classmethod
    def zero(cls, dom: ChainComplex, cod: ChainComplex) -> "ChainMap":
        return cls(dom, cod, {})

    @classmethod
    def identity(cls, C: ChainComplex) -> "ChainMap":
        return cls(C, C, {k: IntMatrix.identity(C.rank(k)) for k in C.support()})


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
        rows = ranks.get(j + step, 0)
        cols = ranks.get(j, 0)
        if rows == 0 or cols == 0:
            continue
        bR, aR = B.rank(j), A.rank(j + da)
        bR2 = B.rank(j + step)
        ent = {}
        for (r, c), v in B.diff(j).entries.items():
            ent[(r, c)] = v
        fm = f.mat(j + da)
        for (r, c), v in fm.entries.items():
            ent[(r, bR + c)] = v
        for (r, c), v in A.diff(j + da).entries.items():
            ent[(bR2 + r, bR + c)] = -v
        m = IntMatrix(rows, cols, ent)
        if not m.is_zero():
            diffs[j] = m
    return ChainComplex(A.orientation, ranks, diffs,
                        modulus=A.modulus or B.modulus)
