"""The intersection chain complex of a filtered complex.

Chains are combinations of regular simplices, the table's tuples of
vertex numbers in ``FilteredComplex.regular_simplices`` (the basis the
blown-up complex shares), with the regular part of the simplicial
boundary; a chain is of p-intersection when it and its boundary are
spanned by allowable simplices.  ``regular_complex`` is built, and its
d o d = 0 checked, once per X (``stratified.per_space``), the allowed
lists once per X and perversity, and ``exact_algebra.Subcomplex`` reads
the homology from them.  ``allowable`` and ``regular_boundary`` take
vertex ids.
"""
from __future__ import annotations

from itertools import combinations
from operator import le
from typing import Dict, List, Tuple

from .exact_algebra import (ChainComplex, Coefficients, GradedModule,
                            Subcomplex, homology_all)
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


def _allowed(X: FilteredComplex, values: Tuple, basis: Dict) -> Dict[int, List[int]]:
    """Positions of the allowable tuples in each degree k of ``basis``, the
    sorted tuples of vertex numbers, from one per-vertex list of codim(S) - p(S)
    (S the stratum of the vertex, p(S) from ``values``, in ``X.strata()``
    order).  Along S, met by the level block ending at position e, ||s||
    (``perverse_degree``) is e, so s passes when codim S - p(S) <= k - e;
    within the block the bound only grows, so one scan checks every
    position.  s must end on a top-level vertex."""
    by_stratum = [st.codim - v for st, v in zip(X.strata(), values)]
    slack = [by_stratum[i] for i in X.vertex_strata()].__getitem__
    levels, n = X.vertex_levels, X.n
    return {k: [j for j, s in enumerate(simps)
                if levels[s[-1]] == n and all(map(le, map(slack, s), range(k, -1, -1)))]
            for k, simps in basis.items()}


def allowable(X: FilteredComplex, s, p: Perversity) -> bool:
    """The Goresky-MacPherson inequality against every stratum met by s."""
    s = tuple(sorted({X.vertex_numbers[v] for v in s}))
    return bool(s) and any(_allowed(X, tuple(map(p, X.strata())), {len(s) - 1: [s]}).values())


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
            idx = {s: i for i, s in enumerate(basis.get(k - 1, ()))}.get
            # combinations(s, k) leaves out s[k], ..., s[0] in turn; the
            # column lists the faces by the position left out, as the sign
            signs = [-1 if i & 1 else 1 for i in range(k + 1)]
            diffs[k] = columns = []
            for s in simps:
                col = {}
                for face, sign in zip([*combinations(s, k)][::-1], signs):
                    row = idx(face)
                    if row is not None:
                        col[row] = sign
                columns.append(col)
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


@per_space
def _allowed_lists(X: FilteredComplex, values: Tuple) -> Dict[int, List[int]]:
    """The allowed lists of the regular complex of X for the perversity
    with these values on the strata of X; one per X and values."""
    return _allowed(X, values, regular_complex(X).basis)


def intersection_complex(X: FilteredComplex, p: Perversity,
                         ring: Coefficients = Coefficients("Z")) -> Subcomplex:
    """The p-intersection lattice: the allowable subcomplex of the regular
    chain complex of X."""
    return Subcomplex(regular_complex(X), _allowed_lists(X, tuple(map(p, X.strata()))), ring)


def intersection_homology(X: FilteredComplex, p: Perversity,
                          ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return homology_all(intersection_complex(X, p, ring), ring)


def intersection_cohomology(X: FilteredComplex, p: Perversity,
                            ring: Coefficients = Coefficients("Z")) -> GradedModule:
    """Cohomology of Hom(intersection chains, R), read from the transposed
    differentials.  The sign in the dual differential is a unit and does
    not move any homology group."""
    return homology_all(intersection_complex(X, p, ring).dualize(), ring)
