"""The intersection chain complex of a filtered complex.

Chains are combinations of regular simplices with the regular-part
boundary (``regular_complex``, on the basis that the blown-up complex
shares, ``FilteredComplex.regular_simplices``); a chain is of
p-intersection when it and its boundary are spanned by allowable
simplices.  This module decides which simplices are allowable;
``exact_algebra.Subcomplex`` reads the homology of the intersection
chains, exactly over Z and mod p for field coefficients, from one fused
elimination of each regular boundary matrix, and the dual cohomology from
the same invariant factors one degree along.
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


def regular_complex(X: FilteredComplex) -> ChainComplex:
    """Ambient complex of regular simplices with the regular part of the
    simplicial boundary, degree k -> k-1."""
    basis: Dict[int, List[Tuple]] = {}
    for s in X.regular_simplices:
        basis.setdefault(len(s) - 1, []).append(s)
    diffs = {}
    for k, simps in basis.items():
        if k:
            idx = {s: i for i, s in enumerate(basis.get(k - 1, ()))}
            ent = {}
            for j, s in enumerate(simps):
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    if face in idx:
                        ent[(idx[face], j)] = -1 if i & 1 else 1
            diffs[k] = IntMatrix(len(idx), len(simps), ent)
    return ChainComplex("hom", {k: len(v) for k, v in basis.items()}, diffs, basis=basis)


def regular_boundary(X: FilteredComplex, chain: Dict[Tuple, int]) -> Dict[Tuple, int]:
    """Regular part of the simplicial boundary of a chain (sparse form)."""
    out: Dict[Tuple, int] = {}
    for s, coeff in chain.items():
        s = X.sorted_vertices(s)
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face and X.is_regular(face):
                out[face] = out.get(face, 0) + coeff * (-1) ** i
    return {f: c for f, c in out.items() if c}


def intersection_complex(X: FilteredComplex, p: Perversity,
                         ring: Coefficients = Coefficients("Z")) -> Subcomplex:
    """The p-intersection lattice: the allowable subcomplex of the regular
    chain complex of X."""
    amb = regular_complex(X)
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
