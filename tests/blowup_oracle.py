"""The label-walk blown-up complex, kept as the oracle for the per-carrier
tables of ``GlobalBlowupComplex``.

Every basis element is expanded into its full local tensor label, the
label's coboundary is walked term by term with ``label_coboundary``, each
term is mapped back to its carrier, and allowability is read label by
label with ``local_perverse_degree`` along every singular stratum of the
carrier's star.  Slow, but it follows the definitions directly.
"""
import itertools

from strathom.blowup import (GlobalLabel, _sort_key, label_coboundary,
                             local_perverse_degree, slot_degree)
from strathom.exact_algebra import IntMatrix


def label_walk_basis(X):
    """Basis by degree: (regular carrier, eps on its nonempty cone slots),
    sorted by (carrier, eps)."""
    n = X.n
    basis = {}
    for tau in sorted(X.sorted_vertices(s) for s in X.simplices if X.is_regular(s)):
        blocks = X.join_decomposition(tau)
        cone_slots = [i for i in range(n) if blocks[i]]
        base_deg = sum(len(blocks[i]) - 1 for i in range(n + 1) if blocks[i])
        for flags in itertools.product((0, 1), repeat=len(cone_slots)):
            eps = [0] * n
            for s_i, fl in zip(cone_slots, flags):
                eps[s_i] = fl
            basis.setdefault(base_deg + sum(flags), []).append(
                GlobalLabel(tau, tuple(eps)))
    for labels in basis.values():
        labels.sort(key=lambda g: (g.carrier, g.eps))
    return basis


def carrier_of_local(G, lab) -> GlobalLabel:
    """The global basis element of a full-support local label."""
    verts = []
    eps = [0] * G.n
    for i in range(G.n):
        f, e = lab[i]
        verts.extend(f)
        if f:
            eps[i] = e
    verts.extend(lab[G.n])
    return GlobalLabel(G.X.sorted_vertices(frozenset(verts)), tuple(eps))


def label_walk_differential(G, k) -> IntMatrix:
    """d in degree k: the label's own coboundary (eps flips only, since the
    label has full support), then one term per vertex of the carrier's
    link in ``X.levels`` order."""
    X, n = G.X, G.n
    ent = {}
    visit_order = {v: i for i, v in enumerate(X.levels)}
    for j, g in enumerate(G.basis.get(k, ())):
        lab = g.as_local(X)
        terms = list(label_coboundary(lab, X.join_decomposition(g.carrier), n))
        carrier_set = frozenset(g.carrier)
        link = set().union(*X.maximal_cofaces(carrier_set)) - carrier_set
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
            i = G.index[carrier_of_local(G, lab2)][1]
            ent[(i, j)] = ent.get((i, j), 0) + coeff
    return IntMatrix(G.rank(k + 1), G.rank(k), {ij: v for ij, v in ent.items() if v})


def star_strata(X, tau):
    """Singular strata met by a maximal coface of tau."""
    seen = {}
    for m in X.maximal_cofaces(tau):
        for st in X.strata_met_by(m):
            if not st.regular:
                seen[st.key] = st
    return list(seen.values())


def is_allowed(G, g, p) -> bool:
    lab = g.as_local(G.X)
    return all(local_perverse_degree(lab, st.codim, G.n) <= p(st)
               for st in star_strata(G.X, g.carrier))


def scanned_allowed_indices(G, p):
    return {k: [i for i, g in enumerate(labels) if is_allowed(G, g, p)]
            for k, labels in G.basis.items()}
