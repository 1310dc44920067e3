"""Filtered simplicial complexes: the combinatorial models of stratified
pseudomanifolds.

The filtration is encoded by a level in 0..n on each vertex; the front
face of a simplex spanned by vertices of level <= i is then exactly its
intersection with the i-th filtration stage, so every simplex is filtered
with a canonical join decomposition.  Constructors build cones,
suspensions and disjoint unions with the conic filtration, from the
maximal simplices of their inputs.

A ``FilteredComplex`` numbers its vertices 0..V-1 in (level, id) order,
the order of ``sorted_vertices``, and keeps one table of simplices: the
set ``table`` of sorted tuples of vertex numbers.  The faces that
``itertools.combinations`` yields of a sorted tuple are sorted, so the
closure under faces builds no frozenset and sorts nothing; the last entry
of a tuple is a vertex of its top level.  Validation, the maximal
simplices, ``strata()`` and ``regular_simplices`` read the table; the
frozensets ``simplices`` (for tests and oracles) and ``maximal_simplices()``
(for the constructors) are built on first read only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple


class StratifiedValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class FilteredComplex:
    """Finite simplicial complex with a vertex-level filtration.

    ``table`` holds every simplex once, as the sorted tuple of its vertex
    numbers (module docstring); ``simplices``, the same simplices as
    frozensets of vertex ids, is built on first read."""

    def __init__(self, dimension: int, levels: Dict, simplices, close: bool = True,
                 name: str = ""):
        self.n = dimension
        self.levels = dict(levels)
        self.name = name
        # vertex numbers in (level, id) order; a vertex with no level comes
        # after all others, in order of appearance, and validate rejects it
        self._ids = ids = sorted(self.levels, key=lambda v: (self.levels[v], v))
        number = {v: i for i, v in enumerate(ids)}
        given = {(i,) for i in range(len(ids))}
        for s in simplices:
            try:
                given.add(tuple(sorted({number[v] for v in s})))
            except KeyError:
                for v in s:
                    if v not in number:
                        number[v] = len(ids)
                        ids.append(v)
                given.add(tuple(sorted({number[v] for v in s})))
        if close:
            # combinations of a sorted tuple are sorted; a simplex already
            # listed as a face has all its faces listed too
            given.discard(())
            faces = set()
            for t in given:
                if t not in faces:
                    for r in range(1, len(t)):
                        faces.update(itertools.combinations(t, r))
            self.table = given | faces
            maximal = given - faces
        else:
            self.table = given
            maximal = _not_a_face(given)
        self._maximal_table = maximal
        self._maximal = None            # the frozenset list, on first read
        self.validate(closed=not close)
        self._strata = None             # and _vertex_stratum, set by strata()

    # -- validation ----------------------------------------------------

    def validate(self, closed: bool = True):
        violations = []
        for v, lv in self.levels.items():
            if not (0 <= lv <= self.n):
                violations.append(f"vertex {v} has level {lv} outside 0..{self.n}")
        known = len(self.levels)
        if len(self._ids) > known:
            for t in self.table:
                for i in t:
                    if i >= known:
                        violations.append(f"simplex {self._by_str(t)} uses unknown vertex "
                                          f"{self._ids[i]}")
        if violations:
            raise StratifiedValidationError(violations)
        if closed:
            for t in self.table:
                if len(t) > 1:
                    for i in range(len(t)):
                        face = t[:i] + t[i + 1:]
                        if face not in self.table:
                            violations.append(
                                f"missing face {self._by_str(face)} of {self._by_str(t)}")
        n, levels, ids = self.n, self.levels, self._ids
        if not any(lv == n for lv in levels.values()):
            violations.append(f"no vertex of level {n}: X_{n - 1} = X")
        # the last vertex number of a tuple is one of its top level
        for m in self._listed(t for t in self._maximal_table
                              if len(t) - 1 != n or not t or levels[ids[t[-1]]] != n):
            m, dim = sorted(m, key=str), len(m) - 1
            violations.append(f"maximal simplex {m} has dimension {dim}, expected {n}"
                              if dim != n else f"maximal simplex {m} has no level-{n} vertex")
        if violations:
            raise StratifiedValidationError(violations)
        return self

    def _by_str(self, t: Tuple) -> List:
        """The vertex ids of a table tuple, sorted by ``str``."""
        return sorted(map(self._ids.__getitem__, t), key=str)

    def _listed(self, tuples) -> List[FrozenSet]:
        """Table tuples as id frozensets, by size descending, then str-sorted ids."""
        ids = self._ids
        return sorted((frozenset(map(ids.__getitem__, t)) for t in tuples),
                      key=lambda s: (-len(s), tuple(sorted(s, key=str))))

    # -- basic structure -------------------------------------------------

    def sorted_vertices(self, s: Iterable) -> Tuple:
        """Vertices ordered by (level, id): the join decomposition order."""
        return tuple(sorted(s, key=lambda v: (self.levels[v], v)))

    @cached_property
    def simplices(self) -> Set[FrozenSet]:
        """Every simplex as a frozenset of vertex ids, built on first read
        from ``table`` (for tests and oracles)."""
        return {frozenset(map(self._ids.__getitem__, t)) for t in self.table}

    @cached_property
    def regular_simplices(self) -> List[Tuple]:
        """The regular simplices as ``sorted_vertices`` tuples, sorted: the
        basis order of both ambient complexes.  A table tuple is regular
        when its last vertex number is one of a top-level vertex."""
        top = sum(1 for lv in self.levels.values() if lv < self.n)
        ids = self._ids
        return sorted(tuple(map(ids.__getitem__, t)) for t in self.table if t and t[-1] >= top)

    def maximal_simplices(self) -> List[FrozenSet]:
        """Maximal simplices, found at construction, listed on first read (do not mutate)."""
        if self._maximal is None:
            self._maximal = self._listed(self._maximal_table)
        return self._maximal

    def max_level(self, s: Iterable) -> int:
        return max(self.levels[v] for v in s)

    def is_regular(self, s: Iterable) -> bool:
        return self.max_level(s) == self.n

    # -- strata ----------------------------------------------------------

    def strata(self) -> List["Stratum"]:
        """Strata of level l: the components of the graph of level-l
        vertices and level-l edges.  A simplex of top level l is joined to
        its level-l vertices through its faces of top level l, so these are
        the components of X_l minus X_{l-1}.  Components of one level are
        numbered by their least member simplex, vertices sorted by str."""
        if self._strata is not None:
            return self._strata
        ids = self._ids
        level_of = [self.levels[v] for v in ids]
        parent = list(range(len(ids)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t in self.table:
            if len(t) == 2 and level_of[t[0]] == level_of[t[1]]:
                parent[find(t[0])] = find(t[1])
        root = [find(i) for i in range(len(ids))]
        comps: Dict[int, List] = {}         # level -> component roots
        for r in set(root):
            comps.setdefault(level_of[r], []).append(r)
        several = {level for level, rs in comps.items() if len(rs) > 1}
        dim, least = {}, {}
        for t in self.table:
            if t:                           # the top vertex of t is its last
                r = root[t[-1]]
                dim[r] = max(dim.get(r, 0), len(t) - 1)
                if level_of[t[-1]] in several:
                    s = tuple(self._by_str(t))
                    least[r] = min(least.get(r, s), s)
        strata, of_root = [], {}
        for level in sorted(comps):
            for idx, r in enumerate(sorted(comps[level], key=least.get)):
                of_root[r] = len(strata)
                strata.append(Stratum(level=level, index=idx, dim=dim[r],
                                      codim=self.n - level, regular=(level == self.n)))
        self._strata = strata
        self._vertex_stratum = {v: of_root[r] for v, r in zip(ids, root)}
        return strata

    def stratum_numbers(self) -> Dict:
        """Vertex id -> the position of its stratum in ``strata()``."""
        self.strata()
        return self._vertex_stratum

    def strata_met_by(self, s: Iterable) -> List["Stratum"]:
        """Strata whose point set the simplex meets, one per level present:
        the stratum of any vertex of s at that level (the edges of s join
        its vertices of one level into one stratum)."""
        strata, number = self.strata(), self.stratum_numbers()
        at = {self.levels[v]: v for v in s}
        return [strata[number[at[i]]] for i in sorted(at)]

    # -- constructors ------------------------------------------------------

    def cone(self, name: str = "") -> "FilteredComplex":
        """Simplicial cone with the conic filtration: apex at level 0,
        all other levels shifted up by one."""
        if not self.levels:
            raise StratifiedValidationError(["cone on the empty complex: links must be non-empty"])
        apex = _fresh_vertex(self.levels)
        levels = {v: lv + 1 for v, lv in self.levels.items()}
        levels[apex] = 0
        return FilteredComplex(self.n + 1, levels,
                               [m | {apex} for m in self.maximal_simplices()],
                               name=name or (f"cone({self.name})" if self.name else "cone"))

    def suspension(self, name: str = "") -> "FilteredComplex":
        if not self.levels:
            raise StratifiedValidationError(["suspension of the empty complex"])
        south = _fresh_vertex(self.levels)
        north = south + 1
        levels = {v: lv + 1 for v, lv in self.levels.items()}
        levels[south] = 0
        levels[north] = 0
        return FilteredComplex(self.n + 1, levels,
                               [m | {pole} for m in self.maximal_simplices()
                                for pole in (south, north)],
                               name=name or (f"susp({self.name})" if self.name else "susp"))

    def disjoint_union(self, other: "FilteredComplex", name: str = "") -> "FilteredComplex":
        if self.n != other.n:
            raise StratifiedValidationError(
                [f"disjoint union of different formal dimensions {self.n} != {other.n}"])
        offset = (max(self.levels) + 1) if self.levels else 0
        levels = dict(self.levels)
        relabel = {v: v + offset for v in other.levels}
        for v, lv in other.levels.items():
            levels[relabel[v]] = lv
        maximal = self.maximal_simplices() + [[relabel[v] for v in m]
                                               for m in other.maximal_simplices()]
        return FilteredComplex(self.n, levels, maximal,
                               name=name or f"({self.name} + {other.name})")

    def __repr__(self):
        return (f"FilteredComplex({self.name or 'X'}, n={self.n}, "
                f"{len(self.levels)} vertices, {len(self.table)} simplices)")


def _not_a_face(table: Set[Tuple]) -> Set[Tuple]:
    """The tuples of ``table`` in no larger one.  When every codimension-one
    face is listed, these are the tuples that are no such face; otherwise
    (a complex that ``validate`` rejects) each pair is tested."""
    faces = {t[:i] + t[i + 1:] for t in table if len(t) > 1 for i in range(len(t))}
    if faces <= table:
        out = table - faces
        if len(table) > 1:
            out.discard(())
        return out
    sets = [set(t) for t in table]
    return {t for t in table if not any(set(t) < u for u in sets)}


def _fresh_vertex(levels: Dict) -> int:
    ints = [v for v in levels if isinstance(v, int)]
    return (max(ints) + 1) if ints else 0


@dataclass(frozen=True)
class Stratum:
    """Connected component of X_i minus X_{i-1}."""
    level: int
    index: int
    dim: int
    codim: int
    regular: bool

    @property
    def key(self) -> Tuple[int, int]:
        return (self.level, self.index)

    def __repr__(self):
        kind = "regular" if self.regular else f"codim {self.codim}"
        return f"Stratum(level={self.level}, index={self.index}, dim={self.dim}, {kind})"


def manifold_complex(dimension: int, simplices, name: str = "") -> FilteredComplex:
    """All vertices at the top level: a single-stratum (per component) model."""
    levels = {}
    for s in simplices:
        for v in s:
            levels[v] = dimension
    return FilteredComplex(dimension, levels, simplices, close=True, name=name)


class GMPerversity:
    """Perversity depending only on codimension, with the GM growth rule."""

    def __init__(self, values: Sequence[int]):
        self.values = tuple(int(v) for v in values)
        n = len(self.values) - 1
        for i, v in enumerate(self.values[:3]):
            if v != 0:
                raise ValueError("GM-perversity must vanish in codimensions 0..2")
        for i in range(2, n):
            lo, hi = self.values[i], self.values[i + 1]
            if not (lo <= hi <= lo + 1):
                raise ValueError(
                    f"GM growth violated between codimensions {i} and {i + 1}: {self.values}")

    def __call__(self, codim: int) -> int:
        if codim < 0:
            raise ValueError("negative codimension")
        if codim >= len(self.values):
            raise ValueError(f"codimension {codim} beyond the stored range")
        return self.values[codim]

    def __eq__(self, other):
        return isinstance(other, GMPerversity) and self.values == other.values

    def __repr__(self):
        return f"GMPerversity{self.values}"

    @property
    def top_codim(self) -> int:
        return len(self.values) - 1

    @classmethod
    def zero(cls, n: int) -> "GMPerversity":
        return cls([0] * (n + 1))

    @classmethod
    def top(cls, n: int) -> "GMPerversity":
        return cls([0 if i < 2 else i - 2 for i in range(n + 1)])

    @classmethod
    def k_bar(cls, n: int, k: int) -> "GMPerversity":
        """The perversity with value k in codimension n, minimal below."""
        if not (0 <= k <= max(n - 2, 0)):
            raise ValueError(f"value {k} outside the GM range 0..{n - 2}")
        return cls([max(0, k - (n - i)) if i >= 2 else 0 for i in range(n + 1)])

    def complementary(self) -> "GMPerversity":
        """D(p) = t - p; the GM constraints survive complementation."""
        n = self.top_codim
        return GMPerversity([(0 if i < 2 else (i - 2) - self.values[i])
                             for i in range(n + 1)])

    @classmethod
    def all_for(cls, n: int):
        """Every GM-perversity for formal dimension n."""
        if n < 3:
            return [cls.zero(n)]
        out = []

        def rec(vals):
            if len(vals) == n + 1:
                out.append(cls(vals))
                return
            i = len(vals) - 1
            if i < 2:
                rec(vals + [0])
            else:
                rec(vals + [vals[-1]])
                rec(vals + [vals[-1] + 1])
        rec([0, 0, 0])
        return out


class Perversity:
    """Stratum-indexed perversity; forced to 0 on regular strata."""

    def __init__(self, X: FilteredComplex, values: Dict[Tuple[int, int], int]):
        self.X = X
        self.values = {}
        for st in X.strata():
            v = values.get(st.key, 0)
            if st.regular and v != 0:
                raise ValueError("perversity must vanish on regular strata")
            self.values[st.key] = 0 if st.regular else v

    @classmethod
    def from_gm(cls, X: FilteredComplex, gm: GMPerversity) -> "Perversity":
        vals = {st.key: (0 if st.regular else gm(st.codim)) for st in X.strata()}
        return cls(X, vals)

    @classmethod
    def from_codim_values(cls, X: FilteredComplex, by_codim: Dict[int, int]) -> "Perversity":
        vals = {st.key: by_codim.get(st.codim, 0) for st in X.strata() if not st.regular}
        return cls(X, vals)

    def __call__(self, stratum: Stratum) -> int:
        return self.values[stratum.key]

    def __le__(self, other: "Perversity") -> bool:
        return all(self.values[k] <= other.values[k] for k in self.values)

    def __eq__(self, other):
        return isinstance(other, Perversity) and self.values == other.values

    def complementary(self) -> "Perversity":
        vals = {}
        for st in self.X.strata():
            if not st.regular:
                vals[st.key] = (st.codim - 2) - self.values[st.key]
        return Perversity(self.X, vals)

    def __repr__(self):
        return f"Perversity({self.values})"
