"""Maximal simplices and their vertex index, against the all-pairs scan.

The oracles below are the straightforward versions: every maximal
simplex found so far is tested as a coface, every maximal simplex is
scanned for the star of a carrier, and every vertex of X is tried as an
extension of a carrier in the blown-up differential.  The indexed code
must give the same lists in the same order, the same star strata and the
same differential matrices, entry order included (it fixes the SNF pivot
path and so every reported basis).
"""
import random

import pytest

from blowup_oracle import (_sort_key, as_local, carrier_of_local, differential_matrix,
                           join_decomposition, label_coboundary, positions,
                           slot_degree)
from strata_oracle import (maximal_by_vertex, maximal_cofaces, strata, strata_met_by,
                           stratum_of)
from strathom.blowup import GlobalBlowupComplex
from strathom.exact_algebra import IntMatrix
from strathom.stratified import FilteredComplex, StratifiedValidationError
from strathom.triangulations import (circle, projective_plane,
                                     projective_space_3, sphere, torus)


def all_pairs_maximal(simplices):
    by_size = sorted(simplices, key=lambda s: (-len(s), tuple(sorted(s, key=str))))
    maximal = []
    for s in by_size:
        if not any(s < m for m in maximal):
            maximal.append(s)
    return maximal


def scanned_star_strata(X, of, maximal, tau):
    tset = frozenset(tau)
    seen = {}
    for m in maximal:
        if tset <= m:
            for st in strata_met_by(X, of, m):
                if not st.regular:
                    seen[st.key] = st
    return list(seen.values())


def vertex_scan_differential(X, G, k):
    n = X.n
    ent, at = {}, positions(G)
    for j, g in enumerate(G.basis.get(k, ())):
        lab = as_local(g, X)
        terms = list(label_coboundary(lab, join_decomposition(X, g.carrier), n))
        carrier_set = frozenset(g.carrier)
        for w, lw in X.levels.items():
            if w in carrier_set:
                continue
            bigger = carrier_set | {w}
            if bigger not in X.simplices:
                continue
            big_lab = list(lab)
            slot = min(lw, n)
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


def reverse_listed(X):
    """The same complex with ``X.levels`` in reverse order: the link walk
    must follow that order, not the order of vertex ids."""
    return FilteredComplex(X.n, dict(reversed(list(X.levels.items()))), X.simplices,
                           close=False, name=X.name)


REGISTERED = [("S1", circle), ("S2", sphere), ("S3", lambda: sphere(3)),
              ("T2", torus), ("RP2", projective_plane), ("RP3", projective_space_3)]

SPACES = ([(name, make) for name, make in REGISTERED]
          + [(f"cone({name})", lambda make=make: make().cone())
             for name, make in REGISTERED]
          + [(f"susp({name})", lambda make=make: make().suspension())
             for name, make in REGISTERED]
          + [("cone(RP2) + cone(T2)",
              lambda: projective_plane().cone().disjoint_union(torus().cone())),
             ("susp(susp(RP2))", lambda: projective_plane().suspension().suspension()),
             ("susp(RP2), vertices listed in reverse", lambda: reverse_listed(
                 projective_plane().suspension()))])

@pytest.mark.parametrize("name, make", SPACES, ids=[s[0] for s in SPACES])
def test_maximal_list_and_order(name, make):
    X = make()
    assert X.maximal_simplices() == all_pairs_maximal(X.simplices)


@pytest.mark.parametrize("name, make", SPACES, ids=[s[0] for s in SPACES])
def test_maximal_cofaces_match_scan(name, make):
    X = make()
    maximal = all_pairs_maximal(X.simplices)
    by_vertex = maximal_by_vertex(X)
    for s in X.simplices:
        assert maximal_cofaces(X, s, by_vertex) == [m for m in maximal if s <= m]


@pytest.mark.parametrize("name, make", SPACES, ids=[s[0] for s in SPACES])
def test_star_strata_match_scan(name, make):
    X = make()
    G = GlobalBlowupComplex(X)
    maximal = all_pairs_maximal(X.simplices)
    of = stratum_of(strata(X))
    number = {tau: c for c, tau in enumerate(X.regular_simplex_ids)}
    for s in X.simplices:
        if X.is_regular(s):
            tau = X.sorted_vertices(s)
            _, got = G._carriers[number[tau]]      # (block sizes, star bitmask)
            want = scanned_star_strata(X, of, maximal, tau)
            assert [st.key for i, st in enumerate(X.strata()) if got >> i & 1] == \
                sorted(st.key for st in want)


@pytest.mark.parametrize("name, make", SPACES, ids=[s[0] for s in SPACES])
def test_link_walk_differential_matches_vertex_scan(name, make):
    X = make()
    G = GlobalBlowupComplex(X)
    for k in sorted(G.basis):
        got, want = differential_matrix(G, k), vertex_scan_differential(X, G, k)
        assert got == want, (name, k)
        assert list(got.entries) == list(want.entries), (name, k)


def oracle_message(ctor, monkeypatch):
    """Validation message of ``ctor()`` with the all-pairs scan answering
    ``maximal_simplices``."""
    with monkeypatch.context() as m:
        m.setattr(FilteredComplex, "maximal_simplices",
                  lambda self: all_pairs_maximal(self.simplices))
        with pytest.raises(StratifiedValidationError) as e:
            ctor()
    return str(e.value)


def test_non_closed_input_rejected_with_same_message(monkeypatch):
    def ctor():
        return FilteredComplex(2, {0: 2, 1: 2, 2: 2, 3: 2, 9: 2},
                               [(0, 1, 2), (0, 1), (2, 3), (9,)], close=False)
    with pytest.raises(StratifiedValidationError) as e:
        ctor()
    assert "missing face" in str(e.value) and "maximal simplex" in str(e.value)
    assert str(e.value) == oracle_message(ctor, monkeypatch)


def test_random_inputs_same_maximal_or_same_message(monkeypatch):
    # the empty simplex and faces missing from close=False inputs included
    rng = random.Random(20261017)
    rejected = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        pool = range(n + 4)
        simplices = [tuple(rng.sample(pool, n + 1 if rng.random() < 0.8
                                      else rng.randint(0, n + 1)))
                     for _ in range(rng.randint(1, 6))]
        used = sorted({v for s in simplices for v in s})
        if rng.random() < 0.2:
            used.append(n + 4)          # a vertex outside every simplex
        levels = {v: n if rng.random() < 0.8 else rng.randint(0, n) for v in used}
        close = rng.random() < 0.5

        def ctor():
            return FilteredComplex(n, levels, simplices, close=close)
        try:
            X = ctor()
        except StratifiedValidationError as e:
            rejected += 1
            assert str(e) == oracle_message(ctor, monkeypatch)
        else:
            assert X.maximal_simplices() == all_pairs_maximal(X.simplices)
    assert 50 < rejected < 150
