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
``X.regular_simplices`` alone, numbered by its place there: its block
sizes, its link extensions (each tau * w a simplex of the list, kept by
number) and the singular strata met by its star (those of the vertices of
tau and of its link).  The differential is built once, as one sparse
column per label, each term found by its integer key.

The global complex depends on X alone: ``global_blowup`` builds it once per
X (``stratified.per_space``), with one d o d = 0 check on its columns, and
every perversity and ring carves its allowable subcomplex out of it, the
allowed lists scanned once per perversity.  It keeps the strata of X, not
X, so X is freed as soon as nothing else holds it.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact_algebra import (ChainComplex, ChainMap, Coefficients, GradedModule,
                            Subcomplex, homology_all, mapping_cone)
from .stratified import FilteredComplex, Perversity, per_space


# -- the global complex --------------------------------------------------

class GlobalLabel(NamedTuple):
    """Basis element of the global complex: a carrier simplex together
    with eps-flags on its nonempty cone slots (full-support local label)."""
    carrier: Tuple
    eps: Tuple            # one flag per slot 0..n-1; 0 on slots with an empty block


class _Carrier(NamedTuple):
    """What a regular carrier simplex contributes, computed once."""
    sizes: Tuple          # sizes of the join blocks
    links: List           # (slot, pos, number of tau * w) per link vertex w
    star: Tuple           # numbers of the singular strata met by the star
    terms: List           # per eps mask, its coboundary terms: ``_shape``


def _shape(sizes: Tuple, n: int) -> Tuple[List, List]:
    """What the carriers with these block sizes share: per eps mask (bit i
    the flag of slot i) the terms of d, the eps flips as (bit, sign) and per
    slot of a link vertex (mask of the term, sign exponent less pos); and
    the labels (eps, mask, degree), in product order of the flags."""
    cone_slots = [i for i in range(n) if sizes[i]]
    base_deg = sum(size - 1 for size in sizes if size)
    table: List = [None] * (1 << n)
    labels = []
    for bits in itertools.product((0, 1), repeat=len(cone_slots)):
        mask = sum(b << i for b, i in zip(bits, cone_slots))
        labels.append((tuple(mask >> i & 1 for i in range(n)), mask, base_deg + sum(bits)))
        # acc[i]: degree of the slots before slot i (an empty cone slot,
        # the apex alone, has degree 0)
        acc = [0] * (n + 1)
        for i in range(n):
            acc[i + 1] = acc[i] + (sizes[i] - 1 + (mask >> i & 1) if sizes[i] else 0)
        flips = [(1 << i, -1 if acc[i] & 1 else 1) for i in cone_slots if not mask >> i & 1]
        slots = [(mask, (mask >> i & 1) + acc[i]) if sizes[i] else (mask | 1 << i, 1 + acc[i])
                 for i in range(n)] + [(mask, acc[n])]
        table[mask] = (flips, slots)
    return table, labels


class GlobalBlowupComplex:
    """Blown-up cochain complex of the whole complex, with its perverse
    filtration data.

    The label (carrier c, eps) has the key c << n | mask, bit i of the mask
    the flag of slot i; ``basis`` lists each degree's labels as
    ``GlobalLabel``s.  ``full_complex`` is N~*(X), the same for every
    perversity and ring; ``intersection_complex(p, ring)`` carves out the
    p-allowable part with allowable coboundary.
    """

    def __init__(self, X: FilteredComplex):
        self.strata = X.strata()
        self.n = n = X.n
        levels = X.levels
        self._position: Dict[int, int] = {}        # label key -> place in its degree
        self._carriers: List[_Carrier] = []
        self._allowed: Dict[Tuple, Dict[int, List[int]]] = {}
        stratum = X.stratum_numbers()
        singular = {i for i, st in enumerate(X.strata()) if not st.regular}
        visit_order = {v: i for i, v in enumerate(levels)}
        regular = X.regular_simplices
        # each link extension tau * w of a regular simplex is a regular
        # simplex one dimension up, with w at index i: one pass over the
        # list finds every link
        found = {tau: [] for tau in regular}
        for b, big in enumerate(regular):
            for i in range(len(big)):
                ext = found.get(big[:i] + big[i + 1:])
                if ext is not None:
                    ext.append((visit_order[big[i]], i, b))
        shapes: Dict[Tuple, Tuple] = {}        # block sizes -> ``_shape``
        degrees: Dict[int, Tuple[List, List]] = {}      # k -> (labels, keys)
        # popping frees each extension list once its links are built
        for c, tau in enumerate(regular):
            ext = found.pop(tau)
            sizes = [0] * (n + 1)
            for v in tau:
                sizes[levels[v]] += 1
            start = list(itertools.accumulate(sizes, initial=0))
            # w lies in block ``slot`` of tau * w, at ``pos``, after the
            # vertices of tau below that level
            links = []
            star = {stratum[v] for v in tau}
            for _, i, b in sorted(ext):
                w = regular[b][i]
                links.append((levels[w], i - start[levels[w]], b))
                star.add(stratum[w])
            sizes = tuple(sizes)
            if sizes not in shapes:
                shapes[sizes] = _shape(sizes, n)
            terms, flags = shapes[sizes]
            self._carriers.append(_Carrier(sizes, links, tuple(sorted(star & singular)), terms))
            # carriers come sorted and flags in product order, so each
            # degree's labels are already in (carrier, eps) order
            for eps, mask, k in flags:
                labels, keys = degrees.get(k) or degrees.setdefault(k, ([], []))
                key = c << n | mask
                self._position[key] = len(labels)
                labels.append(GlobalLabel(tau, eps))
                keys.append(key)
        self.basis: Dict[int, List[GlobalLabel]] = {k: ls for k, (ls, _) in degrees.items()}
        self._keys = {k: keys for k, (_, keys) in degrees.items()}   # per degree
        self._complex: Optional[ChainComplex] = None

    def rank(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def differential(self, k: int) -> List[Dict[int, int]]:
        """The columns {row: sign} of d on degree k, one per label: d of
        (tau, eps) flips eps 0 -> 1 on a nonempty cone slot, then adds each
        link vertex w of tau in ``X.levels`` order (module docstring)."""
        n, full = self.n, (1 << self.n) - 1
        at, carriers = self._position, self._carriers
        columns = []
        for key in self._keys.get(k, ()):
            c = carriers[key >> n]
            flips, slots = c.terms[key & full]
            col = {at[key | bit]: sign for bit, sign in flips}
            for slot, pos, b in c.links:
                mask, sign_exp = slots[slot]
                col[at[b << n | mask]] = -1 if (pos + sign_exp) & 1 else 1
            columns.append(col)
        return columns

    def full_complex(self) -> ChainComplex:
        if self._complex is None:
            diffs = {k: self.differential(k) for k in self.basis}
            ranks = {k: self.rank(k) for k in self.basis}
            self._complex = ChainComplex("coh", ranks, diffs, basis=dict(self.basis))
        return self._complex

    # -- perversity ------------------------------------------------------

    def allowed_indices(self, p: Perversity) -> Dict[int, List[int]]:
        """Indices of the p-allowable basis elements, scanned once per tuple
        of values of p on the strata."""
        values = tuple(map(p, self.strata))
        if values not in self._allowed:
            self._allowed[values] = self._scan_allowed(values)
        return self._allowed[values]

    def _scan_allowed(self, values: Tuple) -> Dict[int, List[int]]:
        """Along each singular stratum S of the star, the perverse degree of
        slot n - codim S (-inf when that slot is collapsed, else the degree
        of the slots above it) is at most p(S)."""
        n, full = self.n, (1 << self.n) - 1
        at = [(n - st.codim, v) for st, v in zip(self.strata, values)]
        verdicts: Dict[Tuple, set] = {}     # (block sizes, star) -> allowed masks
        ok = []
        for c in self._carriers:
            sizes = c.sizes
            if (sizes, c.star) not in verdicts:
                b: Dict[int, int] = {}     # the least p(S) over the star, by slot
                for i in c.star:
                    slot, v = at[i]
                    b[slot] = min(b.get(slot, v), v)
                allowed = verdicts[sizes, c.star] = set()
                for mask in range(full + 1):
                    above = sizes[n] - 1    # degree of the slots above `slot`
                    for slot in range(n - 1, -1, -1):
                        if sizes[slot]:
                            e = mask >> slot & 1
                            if not e and above > b.get(slot, above):
                                break
                            above += sizes[slot] - 1 + e
                    else:
                        allowed.add(mask)
            ok.append(verdicts[sizes, c.star])
        return {k: [i for i, key in enumerate(keys) if key & full in ok[key >> n]]
                for k, keys in self._keys.items()}

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


@per_space
def global_blowup(X: FilteredComplex) -> GlobalBlowupComplex:
    """The one blown-up complex of X, shared by every perversity and ring."""
    return GlobalBlowupComplex(X)


def blowup_complex(X: FilteredComplex, p: Perversity,
                   ring: Coefficients = Coefficients("Z")) -> BlowupIntersection:
    return global_blowup(X).intersection_complex(p, ring)


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
    G = global_blowup(X)
    A = G.full_complex()
    cone = mapping_cone(ChainMap.identity(A))
    on_p, on_q = G.allowed_indices(p), G.allowed_indices(q)
    allowed = {j: on_q.get(j, []) + [A.rank(j) + i for i in on_p.get(j + 1, ())]
               for j in cone.support()}
    return Subcomplex(cone, allowed, ring)


def relative_cohomology(X: FilteredComplex, p: Perversity, q: Perversity,
                        ring: Coefficients = Coefficients("Z")) -> GradedModule:
    return homology_all(relative_complex(X, p, q, ring), ring)
