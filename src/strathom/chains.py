"""The intersection chain complex of a filtered complex.

Chains are combinations of regular simplices with the regular-part
boundary; a chain is of p-intersection when it and its boundary are
spanned by allowable simplices.  This module decides which simplices are
allowable; ``exact_algebra.Subcomplex`` reads the homology of the
intersection chains, exactly over Z and mod p for field coefficients, from
one fused elimination of each regular boundary matrix, and the dual
cohomology from the same invariant factors one degree along.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from .exact_algebra import (ChainComplex, Coefficients, GradedModule,
                            IntMatrix, Subcomplex, homology_all)
from .stratified import FilteredComplex, Perversity

NEG_INF = float("-inf")


def perverse_degree(X: FilteredComplex, s) -> Tuple:
    """The (n+1)-tuple ||s||_i = dim of the front face of levels <= n-i,
    with -inf for an empty front face."""
    s = frozenset(s)
    out = []
    for i in range(X.n + 1):
        c = sum(1 for v in s if X.levels[v] <= X.n - i)
        out.append(c - 1 if c else NEG_INF)
    return tuple(out)


def allowable(X: FilteredComplex, s, p: Perversity) -> bool:
    """The Goresky-MacPherson inequality against every stratum met by s.
    Along the stratum of level i, ||s|| (``perverse_degree`` in codimension
    n - i) is the number of vertices of s of level <= i, less one."""
    count = [0] * (X.n + 1)
    for v in s:
        count[X.levels[v]] += 1
    if not count[X.n]:
        return False
    dim, below = len(s) - 1, -1
    for st in X.strata_met_by(s)[:-1]:      # the last one met is regular
        below += count[st.level]
        if below > dim - st.codim + p(st):
            return False
    return True


class RegularComplex:
    """Ambient complex of regular simplices with the regular boundary."""

    def __init__(self, X: FilteredComplex):
        self.X = X
        self.by_degree: Dict[int, List[Tuple]] = {}
        for s in X.simplices:
            if X.is_regular(s):
                self.by_degree.setdefault(len(s) - 1, []).append(X.sorted_vertices(s))
        for k in self.by_degree:
            self.by_degree[k].sort()
        self.index: Dict[int, Dict[Tuple, int]] = {
            k: {s: i for i, s in enumerate(v)} for k, v in self.by_degree.items()}
        self._diffs: Dict[int, IntMatrix] = {}

    def simplices(self, k: int) -> List[Tuple]:
        return self.by_degree.get(k, [])

    def rank(self, k: int) -> int:
        return len(self.by_degree.get(k, ()))

    def boundary_matrix(self, k: int) -> IntMatrix:
        """Regular part of the simplicial boundary, degree k -> k-1."""
        if k in self._diffs:
            return self._diffs[k]
        rows = self.rank(k - 1)
        cols = self.rank(k)
        ent = {}
        idx = self.index.get(k - 1, {})
        for j, s in enumerate(self.simplices(k)):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face and face in idx:
                    ent[(idx[face], j)] = ent.get((idx[face], j), 0) + (-1) ** i
        m = IntMatrix(rows, cols, ent)
        self._diffs[k] = m
        return m

    def chain_complex(self) -> ChainComplex:
        ranks = {k: self.rank(k) for k in self.by_degree}
        diffs = {k: self.boundary_matrix(k) for k in self.by_degree if k > 0}
        return ChainComplex("hom", ranks, diffs, basis=dict(self.by_degree))


def regular_boundary(X: FilteredComplex, chain: Dict[Tuple, int]) -> Dict[Tuple, int]:
    """Regular part of the simplicial boundary of a chain (sparse form)."""
    out: Dict[Tuple, int] = {}
    for s, coeff in chain.items():
        s = X.sorted_vertices(frozenset(s))
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face and X.is_regular(face):
                out[face] = out.get(face, 0) + coeff * (-1) ** i
    return {f: c for f, c in out.items() if c}


def intersection_complex(X: FilteredComplex, p: Perversity,
                         ring: Coefficients = Coefficients("Z")) -> Subcomplex:
    """The p-intersection lattice: the allowable subcomplex of the regular
    chain complex of X."""
    amb = RegularComplex(X).chain_complex()
    allowed = {k: [j for j, s in enumerate(simps) if allowable(X, s, p)]
               for k, simps in amb.basis.items()}
    return Subcomplex(amb, allowed, ring)


def intersection_homology(X: FilteredComplex, p: Perversity,
                          ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return homology_all(intersection_complex(X, p, ring), ring)


def intersection_cohomology(X: FilteredComplex, p: Perversity,
                            ring: Coefficients = Coefficients("Z")) -> GradedModule:
    """Cohomology of Hom(intersection chains, R), read from the transposed
    differentials.  The sign in the dual differential is a unit and does
    not move any homology group."""
    return homology_all(intersection_complex(X, p, ring).dualize(), ring)
