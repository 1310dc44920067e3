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
``GlobalBlowupComplex`` works on ``X.regular_simplices``, the table's
tuples of vertex numbers (each link extension tau * w is one of them), and
on lists indexed by vertex number, in two passes: the first gives each
carrier its block sizes (a packed sum of vertex weights) and star (a
bitmask of the singular strata of tau and its link) and numbers the
labels, the second emits one sparse column per label.  Vertex ids appear
only in the carriers of ``basis``, built on first read.
"""
from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import or_
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


def _shape(sizes: Tuple, n: int) -> Tuple[List, List]:
    """What the carriers with these block sizes share: per eps mask (bit i
    the flag of slot i) the terms of d, the eps flips as (bit, sign) and, per
    slot of a link vertex w, (mask of the term, sign exponent less the index
    of w in tau * w); and the labels (mask, degree), in product order."""
    cone_slots = [i for i in range(n) if sizes[i]]
    base_deg = sum(size - 1 for size in sizes if size)
    # w lands in tau * w at index start[slot] + pos, pos its place in its block
    start = list(itertools.accumulate(sizes, initial=0))
    table: List = [None] * (1 << n)
    labels = []
    for bits in itertools.product((0, 1), repeat=len(cone_slots)):
        mask = sum(b << i for b, i in zip(bits, cone_slots))
        labels.append((mask, base_deg + sum(bits)))
        # acc[i]: degree of the slots before slot i (an empty cone slot,
        # the apex alone, has degree 0; slot n is never empty)
        acc = [0] * (n + 1)
        for i in range(n):
            acc[i + 1] = acc[i] + (sizes[i] - 1 + (mask >> i & 1) if sizes[i] else 0)
        flips = [(1 << i, -1 if acc[i] & 1 else 1) for i in cone_slots if not mask >> i & 1]
        slots = [(mask, (mask >> i & 1) + acc[i] - start[i]) if sizes[i]
                 else (mask | 1 << i, 1 + acc[i] - start[i]) for i in range(n + 1)]
        table[mask] = (flips, slots)
    return table, labels


class GlobalBlowupComplex:
    """Blown-up cochain complex of the whole complex, with its perverse
    filtration data.

    The label (carrier c, eps) has the key c << n | mask, bit i of the mask
    the flag of slot i; the complex keeps each degree's keys, one interned
    (block sizes, star bitmask) pair per carrier and the columns of d.
    ``full_complex`` is N~*(X), the same for every perversity and ring;
    ``intersection_complex(p, ring)`` carves out the p-allowable part with
    allowable coboundary.
    """

    def __init__(self, X: FilteredComplex):
        self.strata = X.strata()
        self.n = n = X.n
        levels, place = X.vertex_levels, X.vertex_places
        self._allowed: Dict[Tuple, Dict[int, List[int]]] = {}
        self._complex: Optional[ChainComplex] = None
        self._ids = X.vertex_ids
        self._regular = regular = X.regular_simplices
        # per vertex: its stratum's bit when singular, and its weight in the
        # block sizes packed into one int, `width` bits per level
        width = (n + 1).bit_length()
        vbit = [0 if self.strata[i].regular else 1 << i for i in X.vertex_strata()]
        weight = [1 << width * lv for lv in levels]
        # each link extension tau * w is a listed simplex, with w at index
        # i: one pass finds every link and ORs w's bit into the star of tau
        number = {tau: c for c, tau in enumerate(regular)}
        found: List = [[] for _ in regular]
        star = [reduce(or_, map(vbit.__getitem__, tau)) for tau in regular]
        for b, big in enumerate(regular):
            for i in range(len(big)):
                c = number.get(big[:i] + big[i + 1:])
                if c is not None:
                    found[c].append((place[big[i]], i, b))
                    star[c] |= vbit[big[i]]
        del number
        # numbering: each label's place in its degree, the row key of the
        # columns
        shapes: Dict[Tuple, Tuple] = {}        # block sizes -> ``_shape``
        pairs: Dict[Tuple, Tuple] = {}         # (packed sizes, star) -> pair
        at: Dict[int, int] = {}                # label key -> place in its degree
        self._keys: Dict[int, List[int]] = {}  # per degree, in basis order
        self._carriers: List[Tuple] = []       # per carrier, (sizes, star)
        for c, tau in enumerate(regular):
            packed = sum(map(weight.__getitem__, tau))
            pair = pairs.get((packed, star[c]))
            if pair is None:
                sizes = tuple(packed >> width * lv & ((1 << width) - 1) for lv in range(n + 1))
                pair = pairs[packed, star[c]] = (sizes, star[c])
                if sizes not in shapes:
                    shapes[sizes] = _shape(sizes, n)
            self._carriers.append(pair)
            # carriers come sorted and flags in product order, so each
            # degree's labels are already in (carrier, eps) order
            for mask, k in shapes[pair[0]][1]:
                keys, key = self._keys.setdefault(k, []), c << n | mask
                at[key] = len(keys)
                keys.append(key)
        # emission: each link vertex w as (its slot, its index i in tau * w,
        # key of tau * w less the mask)
        self._columns: Dict[int, List[Dict[int, int]]] = {k: [] for k in self._keys}
        for c, (sizes, _) in enumerate(self._carriers):
            links = [(levels[regular[b][i]], i, b << n) for _, i, b in sorted(found[c])]
            found[c] = None
            terms, flags = shapes[sizes]
            for mask, k in flags:
                flips, slots = terms[mask]
                col = {at[c << n | mask | bit]: sign for bit, sign in flips}
                for slot, i, big in links:
                    term, sign_exp = slots[slot]
                    col[at[big | term]] = -1 if (i + sign_exp) & 1 else 1
                self._columns[k].append(col)

    @cached_property
    def basis(self) -> Dict[int, List[GlobalLabel]]:
        """Each degree's labels, carriers as tuples of vertex ids."""
        n, ids = self.n, self._ids
        carriers = [tuple(map(ids.__getitem__, tau)) for tau in self._regular]
        return {k: [GlobalLabel(carriers[key >> n], tuple(key >> i & 1 for i in range(n)))
                    for key in keys] for k, keys in self._keys.items()}

    def rank(self, k: int) -> int:
        return len(self._keys.get(k, ()))

    def differential(self, k: int) -> List[Dict[int, int]]:
        """The columns {row: sign} of d on degree k, one per label, emitted
        at construction (module docstring)."""
        return self._columns.get(k, [])

    def full_complex(self) -> ChainComplex:
        if self._complex is None:
            self._complex = ChainComplex("coh", {k: self.rank(k) for k in self._keys},
                                         {k: self.differential(k) for k in self._keys})
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
        for sizes, star in dict.fromkeys(self._carriers):
            b: Dict[int, int] = {}     # the least p(S) over the star, by slot
            for i, (slot, v) in enumerate(at):
                if star >> i & 1:
                    b[slot] = min(b.get(slot, v), v)
            allowed = verdicts[sizes, star] = set()
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
        ok = [verdicts[pair] for pair in self._carriers]
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
        super().__init__(G.full_complex(), G.allowed_indices(p), ring)

    def cohomology(self) -> GradedModule:
        return homology_all(self, self.ring)


def label_count(X: FilteredComplex) -> int:
    """The basis size of the blown-up complex of X, without building it: a
    regular simplex carries 2^c labels, c the levels below n among its
    vertices (level n is always among them)."""
    levels = X.vertex_levels
    return sum(1 << (len({levels[v] for v in tau}) - 1) for tau in X.regular_simplices)


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
