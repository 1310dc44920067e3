"""The local tensor complexes of the blow-up and the label-walk blown-up
complex built on them, kept as the oracle for the per-carrier tables of
``GlobalBlowupComplex``.

``LocalBlowupComplex`` is the full tensor complex N*(cD0) (x) ... (x)
N*(Dn) of one regular simplex, with blocks D_i from ``join_decomposition``,
``label_coboundary`` its coboundary and ``local_perverse_degree`` the
perverse degree of a local label.

In the label walk, every global basis element is expanded into its full local tensor label, the
label's coboundary is walked term by term with ``label_coboundary``, each
term is mapped back to its carrier, and allowability is read label by
label with ``local_perverse_degree`` along every singular stratum of the
carrier's star.  Slow, but it follows the definitions directly.
"""
import itertools
from typing import Dict, List, Tuple

from strata_oracle import (maximal_by_vertex, maximal_cofaces, strata,
                           strata_met_by, stratum_of)
from strathom.blowup import GlobalLabel
from strathom.exact_algebra import ChainComplex, IntMatrix
from strathom.stratified import FilteredComplex

NEG_INF = float("-inf")


def join_decomposition(X: FilteredComplex, s) -> List[Tuple]:
    """Blocks Delta_0, ..., Delta_n of the filtered simplex (may be empty)."""
    blocks = [[] for _ in range(X.n + 1)]
    for v in X.sorted_vertices(s):
        blocks[X.levels[v]].append(v)
    return [tuple(b) for b in blocks]


def _sort_key(v):
    """Vertex order within a block: ints by value, anything else by str."""
    return (0, v) if isinstance(v, int) else (1, str(v))


class LocalBlowupComplex:
    """Full tensor complex of one regular simplex.

    Labels are tuples with one entry per slot 0..n: for i < n a pair
    (face_tuple, eps) on the cone cD_i (the apex is ((), 1)); for slot n
    a nonempty face tuple of D_n.  Degree of a cone entry is
    dim(face) + eps, of the last entry dim(face).
    """

    def __init__(self, X: FilteredComplex, simplex):
        self.X = X
        self.simplex = X.sorted_vertices(simplex)
        if not X.is_regular(self.simplex):
            raise ValueError("blow-up is defined on regular simplices only")
        self.blocks = join_decomposition(X, self.simplex)
        self.n = X.n
        self.labels: Dict[int, List[Tuple]] = {}
        self.index: Dict[Tuple, Tuple[int, int]] = {}
        for lab in self._all_labels():
            k = label_degree(lab)
            self.labels.setdefault(k, []).append(lab)
        for k in self.labels:
            self.labels[k].sort()
            for i, lab in enumerate(self.labels[k]):
                self.index[lab] = (k, i)

    def _slot_options(self, i: int):
        block = self.blocks[i]
        if i == self.n:
            return [tuple(f) for r in range(1, len(block) + 1)
                    for f in itertools.combinations(block, r)]
        opts = [((), 1)]
        for r in range(1, len(block) + 1):
            for f in itertools.combinations(block, r):
                opts.append((tuple(f), 0))
                opts.append((tuple(f), 1))
        return opts

    def _all_labels(self):
        per_slot = [self._slot_options(i) for i in range(self.n + 1)]
        return [tuple(choice) for choice in itertools.product(*per_slot)]

    def rank(self, k: int) -> int:
        return len(self.labels.get(k, ()))

    def differential(self, k: int) -> IntMatrix:
        rows = self.rank(k + 1)
        cols = self.rank(k)
        ent = {}
        for j, lab in enumerate(self.labels.get(k, ())):
            for coeff, lab2 in label_coboundary(lab, self.blocks, self.n):
                i = self.index[lab2][1]
                ent[(i, j)] = ent.get((i, j), 0) + coeff
        return IntMatrix(rows, cols, {ij: v for ij, v in ent.items() if v})

    def chain_complex(self) -> ChainComplex:
        ranks = {k: self.rank(k) for k in self.labels}
        diffs = {k: self.differential(k) for k in self.labels}
        return ChainComplex("coh", ranks, diffs, basis=dict(self.labels))


def label_degree(lab) -> int:
    deg = 0
    for entry in lab[:-1]:
        f, eps = entry
        deg += len(f) - 1 + eps
    deg += len(lab[-1]) - 1
    return deg


def slot_degree(entry, last: bool) -> int:
    if last:
        return len(entry) - 1
    f, eps = entry
    return len(f) - 1 + eps


def _cone_cofaces(entry, block):
    """Cofaces of a face of the cone c(block), with simplicial signs.

    Faces are (F, 0) for nonempty F and (F, 1) = apex * F; the apex sorts
    first, so adding it carries sign +1 and adding a vertex w carries
    (-1)^(position of w), offset by one when the apex is present.
    """
    f, eps = entry
    fs = set(f)
    out = []
    if eps == 0:
        out.append((1, (f, 1)))
    for w in block:
        if w in fs:
            continue
        nf = tuple(sorted(fs | {w}, key=_sort_key))
        pos = nf.index(w) + eps
        out.append(((-1) ** pos, (nf, eps)))
    return out


def _simplex_cofaces(f, block):
    fs = set(f)
    out = []
    for w in block:
        if w in fs:
            continue
        nf = tuple(sorted(fs | {w}, key=_sort_key))
        pos = nf.index(w)
        out.append(((-1) ** pos, nf))
    return out


def label_coboundary(lab, blocks, n):
    """Terms of d(lab) with Koszul signs across the tensor slots."""
    out = []
    acc = 0
    for i in range(n + 1):
        sign = (-1) ** acc
        if i == n:
            for c, nf in _simplex_cofaces(lab[i], blocks[i]):
                out.append((sign * c, lab[:i] + (nf,)))
        else:
            for c, ne in _cone_cofaces(lab[i], blocks[i]):
                out.append((sign * c, lab[:i] + (ne,) + lab[i + 1:]))
        acc += slot_degree(lab[i], last=(i == n))
    return out


def local_complex(X: FilteredComplex, simplex) -> LocalBlowupComplex:
    return LocalBlowupComplex(X, simplex)


def as_local(g: GlobalLabel, X: FilteredComplex) -> Tuple:
    """The full-support local label of a global basis element."""
    blocks = join_decomposition(X, g.carrier)
    out = []
    for i in range(X.n):
        if blocks[i]:
            out.append((blocks[i], g.eps[i]))
        else:
            out.append(((), 1))
    out.append(blocks[X.n])
    return tuple(out)


def local_perverse_degree(lab, ell: int, n: int):
    """-inf when the cone slot n-ell is collapsed (eps = 1), otherwise the
    accumulated degree of the slots above it."""
    if not (1 <= ell <= n):
        raise ValueError(f"perverse index {ell} outside 1..{n}")
    slot = n - ell
    f, eps = lab[slot]
    if eps == 1:
        return NEG_INF
    total = 0
    for i in range(slot + 1, n + 1):
        total += slot_degree(lab[i], last=(i == n))
    return total



def label_walk_basis(X):
    """Basis by degree: (regular carrier, eps on its nonempty cone slots),
    sorted by (carrier as a tuple of vertex numbers, eps)."""
    n = X.n
    basis = {}
    for tau in sorted(X.sorted_vertices(s) for s in X.simplices if X.is_regular(s)):
        blocks = join_decomposition(X, tau)
        cone_slots = [i for i in range(n) if blocks[i]]
        base_deg = sum(len(blocks[i]) - 1 for i in range(n + 1) if blocks[i])
        for flags in itertools.product((0, 1), repeat=len(cone_slots)):
            eps = [0] * n
            for s_i, fl in zip(cone_slots, flags):
                eps[s_i] = fl
            basis.setdefault(base_deg + sum(flags), []).append(
                GlobalLabel(tau, tuple(eps)))
    for labels in basis.values():
        labels.sort(key=lambda g: (tuple(map(X.vertex_numbers.__getitem__, g.carrier)),
                                   g.eps))
    return basis


def carrier_of_local(X, lab) -> GlobalLabel:
    """The global basis element of a full-support local label."""
    verts = []
    eps = [0] * X.n
    for i in range(X.n):
        f, e = lab[i]
        verts.extend(f)
        if f:
            eps[i] = e
    verts.extend(lab[X.n])
    return GlobalLabel(X.sorted_vertices(frozenset(verts)), tuple(eps))


def positions(G) -> Dict[GlobalLabel, int]:
    """The place of each label of G in the list of its degree."""
    return {g: i for labels in G.basis.values() for i, g in enumerate(labels)}


def differential_matrix(G, k) -> IntMatrix:
    """The columns of G's differential on degree k as a matrix, entries in
    column order."""
    return IntMatrix.from_columns(G.differential(k), G.rank(k + 1))


def label_walk_differential(X, G, k) -> IntMatrix:
    """d in degree k of G, the blown-up complex of X: the label's own
    coboundary (eps flips only, since the label has full support), then one
    term per vertex of the carrier's link in ``X.levels`` order."""
    n = X.n
    ent = {}
    visit_order = {v: i for i, v in enumerate(X.levels)}
    by_vertex, at = maximal_by_vertex(X), positions(G)
    for j, g in enumerate(G.basis.get(k, ())):
        lab = as_local(g, X)
        terms = list(label_coboundary(lab, join_decomposition(X, g.carrier), n))
        carrier_set = frozenset(g.carrier)
        link = set().union(*maximal_cofaces(X, carrier_set, by_vertex)) - carrier_set
        for w in sorted(link, key=visit_order.__getitem__):
            bigger = carrier_set | {w}
            big_lab = list(lab)
            slot = min(X.levels[w], n)
            if slot == n:
                nf = tuple(v for v in X.sorted_vertices(bigger) if X.levels[v] == n)
                pos = nf.index(w)
                acc = sum(slot_degree(lab[i], last=False) for i in range(n))
                big_lab[n] = nf
            else:
                f, e = lab[slot]
                nf = tuple(sorted(set(f) | {w}, key=_sort_key))
                pos = nf.index(w) + e
                acc = sum(slot_degree(lab[i], last=False) for i in range(slot))
                big_lab[slot] = (nf, e)
            terms.append(((-1) ** (pos + acc), tuple(big_lab)))
        for coeff, lab2 in terms:
            i = at[carrier_of_local(X, lab2)]
            ent[(i, j)] = ent.get((i, j), 0) + coeff
    return IntMatrix(G.rank(k + 1), G.rank(k), {ij: v for ij, v in ent.items() if v})


def star_strata(X, tau, by_vertex, of):
    """Singular strata met by a maximal coface of tau (``of``: the
    union-find strata of X by simplex, ``strata_oracle.stratum_of``)."""
    seen = {}
    for m in maximal_cofaces(X, tau, by_vertex):
        for st in strata_met_by(X, of, m):
            if not st.regular:
                seen[st.key] = st
    return list(seen.values())


def is_allowed(X, g, p, by_vertex, of) -> bool:
    lab = as_local(g, X)
    return all(local_perverse_degree(lab, st.codim, X.n) <= p(st)
               for st in star_strata(X, g.carrier, by_vertex, of))


def scanned_allowed_indices(X, G, p):
    """The p-allowable positions of each degree of G, the blown-up complex
    of X, label by label."""
    by_vertex, of = maximal_by_vertex(X), stratum_of(strata(X))
    return {k: [i for i, g in enumerate(labels) if is_allowed(X, g, p, by_vertex, of)]
            for k, labels in G.basis.items()}
