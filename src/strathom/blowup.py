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

Coboundary of a global label (tau, eps), tau = D_0 * ... * D_n.  Let
e_i = eps_i on a nonempty cone slot and e_i = 1 on an empty one (the apex
alone), deg_i = |D_i| - 1 + e_i the degree of cone slot i (0 when D_i is
empty) and a_i = deg_0 + ... + deg_{i-1}.  Then d(tau, eps) is the sum of

* the eps flips: (-1)^a_i (tau, eps with eps_i = 1) for every nonempty
  cone slot i with eps_i = 0;
* one term per vertex w of the link of tau, in ``X.levels`` order, where
  l is the level of w and pos the position of w in its block of tau * w:
    - l = n: (-1)^(pos + a_n) (tau * w, eps);
    - D_l nonempty: (-1)^(pos + eps_l + a_l) (tau * w, eps);
    - D_l empty: (-1)^(1 + a_l) (tau * w, eps with eps_l = 1).

A full-support label has no coface within its own blocks, because each of
its slots already holds the whole block: the local coboundary on tau is
the eps flips alone, and every other term adds one vertex of the link.
``GlobalBlowupComplex`` builds each carrier in one pass at construction,
from one ``maximal_cofaces`` call: its block sizes, its link extensions
and the singular strata met by its star, all kept for the differential
and the allowability test.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact_algebra import (ChainComplex, ChainMap, Coefficients, GradedModule,
                            IntMatrix, Subcomplex, homology_all, mapping_cone)
from .stratified import FilteredComplex, Perversity


# -- the global complex --------------------------------------------------

class GlobalLabel(NamedTuple):
    """Basis element of the global complex: a carrier simplex together
    with eps-flags on its nonempty cone slots (full-support local label)."""
    carrier: Tuple
    eps: Tuple            # one flag per slot 0..n-1; 0 on slots with an empty block


class _Carrier(NamedTuple):
    """What a regular carrier simplex contributes, computed once."""
    sizes: Tuple          # sizes of the join blocks
    cone_slots: Tuple     # the nonempty cone slots
    links: List           # (slot, pos, tau * w) per link vertex w: see __init__
    star: List            # the singular strata met by the regular star


class GlobalBlowupComplex:
    """Blown-up cochain complex of the whole complex, with its perverse
    filtration data.

    ``full_complex`` is N~*(X); ``intersection_complex(p)`` carves out the
    p-allowable part with allowable coboundary.
    """

    def __init__(self, X: FilteredComplex, ring: Coefficients = Coefficients("Z")):
        self.X = X
        self.ring = ring
        self.n = n = X.n
        self.basis: Dict[int, List[GlobalLabel]] = {}
        self.index: Dict[GlobalLabel, Tuple[int, int]] = {}
        self._carriers: Dict[Tuple, _Carrier] = {}
        self._maximal_strata: Dict = {}
        visit_order = {v: i for i, v in enumerate(X.levels)}
        for tau in X.regular_simplices:
            blocks = X.join_decomposition(tau)
            tset = frozenset(tau)
            cofaces = X.maximal_cofaces(tset)
            # each vertex w of the link of tau, in ``X.levels`` order, lies
            # in block ``slot`` of tau * w, at ``pos``
            links = []
            for w in sorted(set().union(*cofaces) - tset, key=visit_order.__getitem__):
                bigger = X.sorted_vertices(tset | {w})
                slot = X.levels[w]
                pos = [v for v in bigger if X.levels[v] == slot].index(w)
                links.append((slot, pos, bigger))
            star = {}
            for m in cofaces:
                for st in self._singular_strata_of_maximal(m):
                    star[st.key] = st
            c = self._carriers[tau] = _Carrier(
                tuple(len(b) for b in blocks), tuple(i for i in range(n) if blocks[i]),
                links, list(star.values()))
            # carriers come sorted and flags in product order, so each
            # degree's labels are already in (carrier, eps) order
            base_deg = sum(size - 1 for size in c.sizes if size)
            for flags in itertools.product((0, 1), repeat=len(c.cone_slots)):
                eps = [0] * n
                for s_i, fl in zip(c.cone_slots, flags):
                    eps[s_i] = fl
                k = base_deg + sum(flags)
                g = GlobalLabel(tau, tuple(eps))
                labels = self.basis.setdefault(k, [])
                self.index[g] = (k, len(labels))
                labels.append(g)
        self._complex: Optional[ChainComplex] = None

    def rank(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def differential(self, k: int) -> IntMatrix:
        """d of (tau, eps): flip eps 0 -> 1 on a nonempty cone slot, then add
        each link vertex w of tau in ``X.levels`` order (module docstring)."""
        n = self.n
        index = self.index
        ent = {}
        for j, g in enumerate(self.basis.get(k, ())):
            tau, eps = g
            c = self._carriers[tau]
            # acc[i]: degree of the slots before slot i (an empty cone slot,
            # the apex alone, has degree 0)
            acc = [0] * (n + 1)
            for i in range(n):
                acc[i + 1] = acc[i] + (c.sizes[i] - 1 + eps[i] if c.sizes[i] else 0)
            for i in c.cone_slots:
                if not eps[i]:
                    flipped = eps[:i] + (1,) + eps[i + 1:]
                    ent[(index[(tau, flipped)][1], j)] = -1 if acc[i] & 1 else 1
            for slot, pos, bigger in c.links:
                if slot == n:
                    e2, sign_exp = eps, pos + acc[n]
                elif c.sizes[slot]:
                    e2, sign_exp = eps, pos + eps[slot] + acc[slot]
                else:
                    e2, sign_exp = eps[:slot] + (1,) + eps[slot + 1:], 1 + acc[slot]
                ent[(index[(bigger, e2)][1], j)] = -1 if sign_exp & 1 else 1
        return IntMatrix(self.rank(k + 1), self.rank(k), ent)

    def full_complex(self) -> ChainComplex:
        if self._complex is None:
            diffs = {k: self.differential(k) for k in self.basis}
            ranks = {k: self.rank(k) for k in self.basis}
            self._complex = ChainComplex("coh", ranks, diffs, basis=dict(self.basis))
        return self._complex

    # -- perversity ------------------------------------------------------

    def _singular_strata_of_maximal(self, m) -> List:
        out = self._maximal_strata.get(m)
        if out is None:
            out = [st for st in self.X.strata_met_by(m) if not st.regular]
            self._maximal_strata[m] = out
        return out

    def allowed_indices(self, p: Perversity) -> Dict[int, List[int]]:
        """Indices of the p-allowable basis elements: along each singular
        stratum S of the star, the perverse degree of slot n - codim S (-inf
        when that slot is collapsed, else the degree of the slots above it)
        is at most p(S)."""
        n = self.n
        # per carrier: the least p(S) over its star strata, by slot
        bound: Dict[Tuple, Dict[int, int]] = {}
        for tau, c in self._carriers.items():
            b = bound[tau] = {}
            for st in c.star:
                slot, v = n - st.codim, p(st)
                b[slot] = min(b.get(slot, v), v)
        out = {}
        for k, labels in self.basis.items():
            ok = out[k] = []
            for i, (tau, eps) in enumerate(labels):
                b, sizes = bound[tau], self._carriers[tau].sizes
                above = sizes[n] - 1        # degree of the slots above `slot`
                for slot in range(n - 1, -1, -1):
                    if sizes[slot]:
                        if not eps[slot] and above > b.get(slot, above):
                            break
                        above += sizes[slot] - 1 + eps[slot]
                else:
                    ok.append(i)
        return out

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
