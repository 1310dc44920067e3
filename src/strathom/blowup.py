"""Blown-up intersection cochains on a filtered simplicial complex.

Locally, a regular simplex with join decomposition D0 * ... * Dn carries
the tensor complex N*(cD0) (x) ... (x) N*(cD_{n-1}) (x) N*(Dn).  A global
cochain assigns a local element to every regular simplex compatibly with
restriction to regular faces.

A compatible family is determined by its coefficients on the local basis
elements whose faces exhaust their carrier simplex: every basis label of
a simplex restricts from the unique smaller simplex spanned by its
support, and that support always contains a top-level vertex, hence is a
regular simplex of the complex.  The global complex is therefore free on
pairs (regular simplex, epsilon-flags on its nonempty cone slots), which
keeps the equalizer small without changing its cohomology.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exact_algebra import (ChainComplex, ChainMap, Coefficients, GradedModule,
                            IntMatrix, Subcomplex, homology_all, mapping_cone)
from .stratified import FilteredComplex, Perversity

NEG_INF = float("-inf")


# -- local tensor complexes ---------------------------------------------

class LocalBlowupComplex:
    """Full tensor complex of one regular simplex.

    Labels are tuples with one entry per slot 0..n: for i < n a pair
    (face_tuple, eps) on the cone cD_i (the apex is ((), 1)); for slot n
    a nonempty face tuple of D_n.  Degree of a cone entry is
    dim(face) + eps, of the last entry dim(face).
    """

    def __init__(self, X: FilteredComplex, simplex):
        self.X = X
        self.simplex = X.sorted_vertices(frozenset(simplex))
        if not X.is_regular(self.simplex):
            raise ValueError("blow-up is defined on regular simplices only")
        self.blocks = X.join_decomposition(self.simplex)
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


def _sort_key(v):
    return (0, v) if isinstance(v, int) else (1, str(v))


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


# -- the global complex --------------------------------------------------

@dataclass(frozen=True)
class GlobalLabel:
    """Basis element of the global complex: a carrier simplex together
    with eps-flags on its nonempty cone slots (full-support local label)."""
    carrier: Tuple
    eps: Tuple            # one flag per slot 0..n-1 with nonempty block; () elsewhere

    def as_local(self, X: FilteredComplex) -> Tuple:
        blocks = X.join_decomposition(self.carrier)
        out = []
        for i in range(X.n):
            if blocks[i]:
                out.append((blocks[i], self.eps[i]))
            else:
                out.append(((), 1))
        out.append(blocks[X.n])
        return tuple(out)


class GlobalBlowupComplex:
    """Blown-up cochain complex of the whole complex, with its perverse
    filtration data.

    ``full_complex`` is N~*(X); ``intersection_complex(p)`` carves out the
    p-allowable part with allowable coboundary.
    """

    def __init__(self, X: FilteredComplex, ring: Coefficients = Coefficients("Z")):
        self.X = X
        self.ring = ring
        self.n = X.n
        self.basis: Dict[int, List[GlobalLabel]] = {}
        self.index: Dict[GlobalLabel, Tuple[int, int]] = {}
        self._star_strata_cache: Dict[Tuple, List] = {}
        regulars = [X.sorted_vertices(s) for s in X.simplices if X.is_regular(s)]
        regulars.sort()
        for tau in regulars:
            blocks = X.join_decomposition(tau)
            cone_slots = [i for i in range(self.n) if blocks[i]]
            base_deg = sum(len(blocks[i]) - 1 for i in range(self.n + 1) if blocks[i])
            for flags in itertools.product((0, 1), repeat=len(cone_slots)):
                eps = [0] * self.n
                for s_i, fl in zip(cone_slots, flags):
                    eps[s_i] = fl
                g = GlobalLabel(tau, tuple(eps))
                k = base_deg + sum(flags)
                self.basis.setdefault(k, []).append(g)
        for k in self.basis:
            self.basis[k].sort(key=lambda g: (g.carrier, g.eps))
            for i, g in enumerate(self.basis[k]):
                self.index[g] = (k, i)
        self._diffs: Dict[int, IntMatrix] = {}
        self._complex: Optional[ChainComplex] = None

    def rank(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def _carrier_of_local(self, lab) -> GlobalLabel:
        verts = []
        eps = [0] * self.n
        for i in range(self.n):
            f, e = lab[i]
            verts.extend(f)
            if f:
                eps[i] = e
        verts.extend(lab[self.n])
        carrier = self.X.sorted_vertices(frozenset(verts))
        return GlobalLabel(carrier, tuple(eps))

    def differential(self, k: int) -> IntMatrix:
        if k in self._diffs:
            return self._diffs[k]
        rows = self.rank(k + 1)
        cols = self.rank(k)
        ent = {}
        X = self.X
        visit_order = {v: i for i, v in enumerate(X.levels)}
        for j, g in enumerate(self.basis.get(k, ())):
            lab = g.as_local(X)
            blocks = X.join_decomposition(g.carrier)
            # coboundary terms within the carrier (eps flips only)
            # plus terms that add a vertex of the carrier's link
            terms = list(label_coboundary(lab, blocks, self.n))
            carrier_set = frozenset(g.carrier)
            link = set().union(*X.maximal_cofaces(carrier_set)) - carrier_set
            for w in sorted(link, key=visit_order.__getitem__):
                lw = X.levels[w]
                bigger = carrier_set | {w}
                big_lab = list(lab)
                slot = min(lw, self.n)
                if slot == self.n:
                    nf = tuple(v for v in X.sorted_vertices(bigger)
                               if X.levels[v] == self.n)
                    pos = nf.index(w)
                    acc = sum(slot_degree(lab[i], last=False) for i in range(self.n))
                    big_lab[self.n] = nf
                    terms.append(((-1) ** (pos + acc), tuple(big_lab)))
                else:
                    f, e = lab[slot]
                    nf = tuple(sorted(set(f) | {w}, key=_sort_key))
                    pos = nf.index(w) + e
                    acc = sum(slot_degree(lab[i], last=False) for i in range(slot))
                    big_lab[slot] = (nf, e)
                    terms.append(((-1) ** (pos + acc), tuple(big_lab)))
            for coeff, lab2 in terms:
                g2 = self._carrier_of_local(lab2)
                i = self.index[g2][1]
                ent[(i, j)] = ent.get((i, j), 0) + coeff
        m = IntMatrix(rows, cols, {ij: v for ij, v in ent.items() if v})
        self._diffs[k] = m
        return m

    def full_complex(self) -> ChainComplex:
        if self._complex is None:
            ranks = {k: self.rank(k) for k in self.basis}
            diffs = {k: self.differential(k) for k in self.basis}
            self._complex = ChainComplex("coh", ranks, diffs, basis=dict(self.basis))
        return self._complex

    # -- perversity ------------------------------------------------------

    def _star_strata(self, tau: Tuple) -> List:
        """Singular strata met by the regular star of tau."""
        if tau in self._star_strata_cache:
            return self._star_strata_cache[tau]
        X = self.X
        seen = {}
        for m in X.maximal_cofaces(tau):
            for st in X.strata_met_by(m):
                if not st.regular:
                    seen[st.key] = st
        out = list(seen.values())
        self._star_strata_cache[tau] = out
        return out

    def perverse_degree_along(self, g: GlobalLabel, stratum) -> float:
        lab = g.as_local(self.X)
        return local_perverse_degree(lab, stratum.codim, self.n)

    def is_allowed(self, g: GlobalLabel, p: Perversity) -> bool:
        for st in self._star_strata(g.carrier):
            if self.perverse_degree_along(g, st) > p(st):
                return False
        return True

    def allowed_indices(self, p: Perversity) -> Dict[int, List[int]]:
        return {k: [i for i, g in enumerate(self.basis[k]) if self.is_allowed(g, p)]
                for k in self.basis}

    def intersection_complex(self, p: Perversity) -> "BlowupIntersection":
        return BlowupIntersection(self, p)


class BlowupIntersection(Subcomplex):
    """The subcomplex of p-allowable cochains with p-allowable coboundary,
    cut out of the full blown-up complex."""

    def __init__(self, G: GlobalBlowupComplex, p: Perversity):
        self.global_complex = G
        self.perversity = p
        super().__init__(G.full_complex(), G.allowed_indices(p), G.ring)

    def cohomology(self) -> GradedModule:
        return homology_all(self, self.ring)

    def contains_basis_of(self, other: "BlowupIntersection") -> bool:
        """Lattice inclusion test: every basis vector of ``other`` lies in
        our lattice (used for monotonicity in the perversity)."""
        return all(self.coordinates(k, B) is not None
                   for k, B in other.bases.items() if B.cols)


def blowup_complex(X: FilteredComplex, p: Perversity,
                   ring: Coefficients = Coefficients("Z")) -> BlowupIntersection:
    return GlobalBlowupComplex(X, ring).intersection_complex(p)


def blowup_cohomology(X: FilteredComplex, p: Perversity,
                      ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return blowup_complex(X, p, ring).cohomology()


def relative_complex(X: FilteredComplex, p: Perversity, q: Perversity,
                     ring: Coefficients = Coefficients("Z")) -> ChainComplex:
    """Homotopy cofiber of the inclusion N~_p c N~_q, as a mapping cone."""
    if not (p <= q):
        raise ValueError("relative complex needs p <= q stratum-wise")
    G = GlobalBlowupComplex(X, ring)
    ip = G.intersection_complex(p)
    iq = G.intersection_complex(q)
    mats = {}
    for k, Bp in ip.bases.items():
        if Bp.cols == 0:
            continue
        Y = iq.coordinates(k, Bp)
        if Y is None:
            raise ValueError("inclusion of intersection complexes fails")
        mats[k] = Y
    incl = ChainMap(ip.complex, iq.complex, mats)
    return mapping_cone(incl)


def relative_cohomology(X: FilteredComplex, p: Perversity, q: Perversity,
                        ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return homology_all(relative_complex(X, p, q, ring), ring)
