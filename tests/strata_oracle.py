"""Simplices, maximal simplices, strata and allowability computed from
the definitions, kept as the oracle for ``FilteredComplex.simplices``,
``maximal_simplices``, ``strata``, ``vertex_strata`` and
``chains.allowable``, with the maximal cofaces of a simplex for the
blow-up oracles.

The simplices are the frozensets of the input and of its listed vertices,
with every nonempty face of each when the complex is closed.  The maximal
simplices are sorted by size descending, then by the vertex tuple sorted
by ``str``, and each is kept when it lies in no maximal simplex found
before it.

A stratum of level l is a connected component of X_l minus X_{l-1}: here,
a class of the simplices whose top vertex level is l under the relation
"is a codimension-one face of", found by a union-find over those
simplices.  Components of one level are numbered by their least member
tuple (vertices sorted by ``str``).  The stratum a simplex meets at level
i is the one holding its front face (its vertices of level <= i), and a
regular simplex is allowable when the Goresky-MacPherson inequality holds
along every singular stratum it meets, with the perverse degree of
``chains.perverse_degree``.  Slow, but it follows the definitions directly.
``k_bar`` and ``all_gm_perversities`` list GM perversities for the tests.
"""
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from strathom.chains import perverse_degree
from strathom.stratified import FilteredComplex, GMPerversity, Perversity


def close_under_faces(simplices):
    out = set()
    for s in simplices:
        s = tuple(s)
        for r in range(1, len(s) + 1):
            for face in itertools.combinations(s, r):
                out.add(frozenset(face))
    return out


def simplex_set(levels, given, close: bool):
    """The simplices of ``FilteredComplex(n, levels, given, close)``."""
    raw = {frozenset(s) for s in given} | {frozenset([v]) for v in levels}
    return close_under_faces(raw) if close else raw


def shortest_list(s: FrozenSet, maximal: List[FrozenSet], by_vertex: Dict) -> List:
    """The shortest list of maximal simplices containing a vertex of s (all
    of ``maximal`` when s is empty): it holds every maximal coface of s."""
    out = maximal
    for v in s:
        listed = by_vertex.get(v, ())
        if len(listed) < len(out):
            out = listed
    return out


def maximal_by_vertex(X: FilteredComplex) -> Dict:
    """Per vertex, the maximal simplices of X containing it, in
    ``maximal_simplices`` order."""
    by_vertex: Dict = {}
    for m in X.maximal_simplices():
        for v in m:
            by_vertex.setdefault(v, []).append(m)
    return by_vertex


def maximal_cofaces(X: FilteredComplex, s, by_vertex: Dict) -> List[FrozenSet]:
    """Maximal simplices containing s, in ``maximal_simplices`` order;
    ``by_vertex`` is ``maximal_by_vertex(X)``."""
    s = frozenset(s)
    return [m for m in shortest_list(s, X.maximal_simplices(), by_vertex) if s <= m]


def index_maximal(X: FilteredComplex):
    """Maximal simplices (size descending, then the str-sorted vertex
    tuple) and, per vertex, the maximal simplices containing it in that
    order.  A proper coface of s is listed under every vertex of s, so s
    is tested against the shortest of its vertices' lists only."""
    by_size = sorted(X.simplices, key=lambda s: (-len(s), tuple(sorted(s, key=str))))
    maximal: List[FrozenSet] = []
    by_vertex: Dict = {}
    for s in by_size:
        for m in shortest_list(s, maximal, by_vertex):
            if s < m:
                break
        else:
            maximal.append(s)
            for v in s:
                by_vertex.setdefault(v, []).append(s)
    return maximal, by_vertex


@dataclass(frozen=True)
class OracleStratum:
    level: int
    index: int
    simplices: FrozenSet
    dim: int
    codim: int
    regular: bool

    @property
    def key(self):
        return (self.level, self.index)


def strata(X: FilteredComplex) -> List[OracleStratum]:
    by_level: Dict[int, List[FrozenSet]] = {}
    for s in X.simplices:
        by_level.setdefault(X.max_level(s), []).append(s)
    out = []
    for level in sorted(by_level):
        members = by_level[level]
        parent = {s: s for s in members}

        def find(x):
            while parent[x] is not x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        member_set = set(members)
        for s in members:
            for face in itertools.combinations(s, len(s) - 1):
                f = frozenset(face)
                if f and f in member_set:
                    ra, rb = find(s), find(f)
                    if ra is not rb:
                        parent[ra] = rb
        groups: Dict[FrozenSet, List[FrozenSet]] = {}
        for s in members:
            groups.setdefault(find(s), []).append(s)
        comps = sorted(groups.values(),
                       key=lambda g: min(tuple(sorted(s, key=str)) for s in g))
        for idx, comp in enumerate(comps):
            out.append(OracleStratum(
                level=level, index=idx, simplices=frozenset(comp),
                dim=max(len(s) - 1 for s in comp), codim=X.n - level,
                regular=(level == X.n)))
    return out


def stratum_of(sts: List[OracleStratum]) -> Dict[FrozenSet, OracleStratum]:
    return {s: st for st in sts for s in st.simplices}


def strata_met_by(X: FilteredComplex, of: Dict, s) -> List[OracleStratum]:
    """One stratum per level present in s: the one holding its front face."""
    s = frozenset(s)
    return [of[frozenset(v for v in s if X.levels[v] <= i)]
            for i in sorted({X.levels[v] for v in s})]


def allowable(X: FilteredComplex, of: Dict, s, p: Perversity) -> bool:
    s = frozenset(s)
    if not X.is_regular(s):
        return False
    dim = len(s) - 1
    pd = perverse_degree(X, s)
    return all(pd[st.codim] <= dim - st.codim + p.values[st.key]
               for st in strata_met_by(X, of, s) if not st.regular)


def k_bar(n: int, k: int) -> GMPerversity:
    """The GM perversity with value k in codimension n, minimal below."""
    if not (0 <= k <= max(n - 2, 0)):
        raise ValueError(f"value {k} outside the GM range 0..{n - 2}")
    return GMPerversity([max(0, k - (n - i)) if i >= 2 else 0 for i in range(n + 1)])


def all_gm_perversities(n: int) -> List[GMPerversity]:
    """Every GM perversity for formal dimension n."""
    if n < 3:
        return [GMPerversity.zero(n)]
    out = []

    def rec(vals):
        if len(vals) == n + 1:
            out.append(GMPerversity(vals))
            return
        rec(vals + [vals[-1]])
        rec(vals + [vals[-1] + 1])
    rec([0, 0, 0])
    return out
