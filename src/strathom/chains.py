"""The intersection chain complex of a filtered complex.

Chains are combinations of regular simplices with the regular-part
boundary (``regular_complex``, on the basis that the blown-up complex
shares, ``FilteredComplex.regular_simplices``); a chain is of
p-intersection when it and its boundary are spanned by allowable
simplices.  The regular complex depends on X alone: it is built, and its
d o d = 0 checked, once per X (``stratified.per_space``), and every
perversity and ring carves its intersection chains out of it.  This
module decides which simplices are allowable; ``exact_algebra.Subcomplex``
reads the homology of the intersection chains, exactly over Z and mod p
for field coefficients, from one fused elimination of each regular
boundary matrix, and the dual cohomology from the same invariant factors
one degree along.
"""
from __future__ import annotations

from itertools import combinations
from operator import le
from typing import Dict, List, Tuple

from .exact_algebra import (ChainComplex, Coefficients, GradedModule,
                            IntMatrix, Subcomplex, homology_all)
from .stratified import FilteredComplex, Perversity, per_space

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


def _allowed(X: FilteredComplex, p: Perversity, basis: Dict) -> Dict[int, List[int]]:
    """Positions of the allowable tuples in each degree k of ``basis``, the
    tuples in (level, id) order, from one per-vertex table of codim(S) - p(S)
    (S the stratum of the vertex).  Along S, met by the level block ending
    at position e, ||s|| (``perverse_degree``) is e, so s passes when
    codim S - p(S) <= k - e; within the block the bound only grows, so one
    scan checks every position.  s must end on a top-level vertex."""
    by_number = [st.codim - p(st) for st in X.strata()]
    slack = {v: by_number[i] for v, i in X.stratum_numbers().items()}.__getitem__
    levels, n = X.levels, X.n
    return {k: [j for j, s in enumerate(simps)
                if levels[s[-1]] == n and all(map(le, map(slack, s), range(k, -1, -1)))]
            for k, simps in basis.items()}


def allowable(X: FilteredComplex, s, p: Perversity) -> bool:
    """The Goresky-MacPherson inequality against every stratum met by s."""
    s = X.sorted_vertices(s)
    return bool(s) and any(_allowed(X, p, {len(s) - 1: [s]}).values())


@per_space
def regular_complex(X: FilteredComplex) -> ChainComplex:
    """The ambient complex of X: regular simplices with the regular part of
    the simplicial boundary, degree k -> k-1; one per X, shared."""
    basis: Dict[int, List[Tuple]] = {}
    for s in X.regular_simplices:
        basis.setdefault(len(s) - 1, []).append(s)
    diffs = {}
    for k, simps in basis.items():
        if k:
            idx = {s: i for i, s in enumerate(basis.get(k - 1, ()))}
            # combinations(s, k) leaves out s[k], ..., s[0] in turn; the
            # entries go in by the position left out, as the sign does
            signs = [(i, -1 if i & 1 else 1) for i in range(k + 1)]
            ent = {}
            for j, s in enumerate(simps):
                faces = list(combinations(s, k))
                for i, sign in signs:
                    row = idx.get(faces[k - i])
                    if row is not None:
                        ent[(row, j)] = sign
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
    return Subcomplex(amb, _allowed(X, p, amb.basis), ring)


def intersection_homology(X: FilteredComplex, p: Perversity,
                          ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return homology_all(intersection_complex(X, p, ring), ring)


def intersection_cohomology(X: FilteredComplex, p: Perversity,
                            ring: Coefficients = Coefficients("Z")) -> GradedModule:
    """Cohomology of Hom(intersection chains, R), read from the transposed
    differentials.  The sign in the dual differential is a unit and does
    not move any homology group."""
    return homology_all(intersection_complex(X, p, ring).dualize(), ring)
