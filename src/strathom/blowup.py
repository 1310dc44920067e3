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
``GlobalBlowupComplex`` builds every carrier at construction from
``X.regular_simplices`` alone: its block sizes, its link extensions (each
tau * w is a regular simplex of the list) and the singular strata met by
its star (those of the vertices of tau and of its link), all kept for the
differential and the allowability test.
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
    star: Tuple           # numbers of the singular strata met by the star


class GlobalBlowupComplex:
    """Blown-up cochain complex of the whole complex, with its perverse
    filtration data.

    ``full_complex`` is N~*(X), the same for every perversity and ring;
    ``intersection_complex(p, ring)`` carves out the p-allowable part with
    allowable coboundary.
    """

    def __init__(self, X: FilteredComplex):
        self.X = X
        self.n = n = X.n
        levels = X.levels
        self.basis: Dict[int, List[GlobalLabel]] = {}
        self.index: Dict[GlobalLabel, Tuple[int, int]] = {}
        self._carriers: Dict[Tuple, _Carrier] = {}
        stratum = X.stratum_numbers()
        singular = {i for i, st in enumerate(X.strata()) if not st.regular}
        visit_order = {v: i for i, v in enumerate(levels)}
        # each link extension tau * w of a regular simplex is a regular
        # simplex one dimension up, with w at index i: one pass over the
        # list finds every link
        found = {tau: [] for tau in X.regular_simplices}
        for big in X.regular_simplices:
            for i in range(len(big)):
                ext = found.get(big[:i] + big[i + 1:])
                if ext is not None:
                    ext.append((visit_order[big[i]], i, big))
        # (eps, number of flags set) per pattern of nonempty cone slots
        flag_vectors: Dict[Tuple, List] = {}
        # popping frees each extension list once its links are built
        for tau in X.regular_simplices:
            ext = found.pop(tau)
            sizes = [0] * (n + 1)
            for v in tau:
                sizes[levels[v]] += 1
            start = list(itertools.accumulate(sizes, initial=0))
            # w lies in block ``slot`` of tau * w, at ``pos``, after the
            # vertices of tau below that level
            links = []
            star = {stratum[v] for v in tau}
            for _, i, big in sorted(ext):
                slot = levels[big[i]]
                links.append((slot, i - start[slot], big))
                star.add(stratum[big[i]])
            cone_slots = tuple(i for i in range(n) if sizes[i])
            self._carriers[tau] = _Carrier(tuple(sizes), cone_slots, links,
                                           tuple(sorted(star & singular)))
            if cone_slots not in flag_vectors:
                flag_vectors[cone_slots] = [
                    (tuple(dict(zip(cone_slots, bits)).get(i, 0) for i in range(n)), sum(bits))
                    for bits in itertools.product((0, 1), repeat=len(cone_slots))]
            # carriers come sorted and flags in product order, so each
            # degree's labels are already in (carrier, eps) order
            base_deg = sum(size - 1 for size in sizes if size)
            for eps, up in flag_vectors[cone_slots]:
                g, k = GlobalLabel(tau, eps), base_deg + up
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

    def allowed_indices(self, p: Perversity) -> Dict[int, List[int]]:
        """Indices of the p-allowable basis elements: along each singular
        stratum S of the star, the perverse degree of slot n - codim S (-inf
        when that slot is collapsed, else the degree of the slots above it)
        is at most p(S)."""
        n = self.n
        at = [(n - st.codim, p(st)) for st in self.X.strata()]
        # per star: the least p(S) over its strata, by slot
        bound: Dict[Tuple, Dict[int, int]] = {}
        for star in {c.star for c in self._carriers.values()}:
            b = bound[star] = {}
            for i in star:
                slot, v = at[i]
                b[slot] = min(b.get(slot, v), v)
        out = {}
        for k, labels in self.basis.items():
            ok = out[k] = []
            for i, (tau, eps) in enumerate(labels):
                c = self._carriers[tau]
                b, sizes = bound[c.star], c.sizes
                above = sizes[n] - 1        # degree of the slots above `slot`
                for slot in range(n - 1, -1, -1):
                    if sizes[slot]:
                        if not eps[slot] and above > b.get(slot, above):
                            break
                        above += sizes[slot] - 1 + eps[slot]
                else:
                    ok.append(i)
        return out

    def intersection_complex(self, p: Perversity,
                             ring: Coefficients = Coefficients("Z")) -> BlowupIntersection:
        return BlowupIntersection(self, p, ring)


class BlowupIntersection(Subcomplex):
    """The subcomplex of p-allowable cochains with p-allowable coboundary,
    cut out of the full blown-up complex."""

    def __init__(self, G: GlobalBlowupComplex, p: Perversity, ring: Coefficients):
        self.global_complex = G
        self.perversity = p
        super().__init__(G.full_complex(), G.allowed_indices(p), ring)

    def cohomology(self) -> GradedModule:
        return homology_all(self, self.ring)


def blowup_complex(X: FilteredComplex, p: Perversity,
                   ring: Coefficients = Coefficients("Z")) -> BlowupIntersection:
    return GlobalBlowupComplex(X).intersection_complex(p, ring)


def blowup_cohomology(X: FilteredComplex, p: Perversity,
                      ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return blowup_complex(X, p, ring).cohomology()


def relative_complex(X: FilteredComplex, p: Perversity, q: Perversity,
                     ring: Coefficients = Coefficients("Z")) -> Subcomplex:
    """Homotopy cofiber of the inclusion N~_p c N~_q, as an allowable
    subcomplex of the cone of the identity of A = N~*(X), with
    D(b, a) = (db + a, -da): the allowed coordinates A_q on b and A_p, one
    degree up, on a.  For p <= q, A_p c A_q, so db + a is allowed iff db is,
    and (b, a) is allowable with allowable boundary iff b is in I_q and a in
    I_p.  The subcomplex is thus the mapping cone of I_p -> I_q."""
    if not (p <= q):
        raise ValueError("relative complex needs p <= q stratum-wise")
    G = GlobalBlowupComplex(X)
    A = G.full_complex()
    cone = mapping_cone(ChainMap.identity(A))
    on_p, on_q = G.allowed_indices(p), G.allowed_indices(q)
    allowed = {j: on_q.get(j, []) + [A.rank(j) + i for i in on_p.get(j + 1, ())]
               for j in cone.support()}
    return Subcomplex(cone, allowed, ring)


def relative_cohomology(X: FilteredComplex, p: Perversity, q: Perversity,
                        ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return homology_all(relative_complex(X, p, q, ring), ring)
