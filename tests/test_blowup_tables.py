"""The blown-up complex assembled from per-carrier tables, against the
label-walk oracle (``blowup_oracle``).

The tables must give the same basis in the same order, the same
differential matrices with the same entry order (it fixes the SNF pivot
path and so every reported basis) and the same allowed lists for every
perversity.  Count guards keep the per-carrier data computed once, from
``X.regular_simplices`` and the vertex-to-stratum list, with no ``Stratum``
hashed, and every row of a column is an eps flip or a listed simplex
one vertex up.
"""
import pytest

from blowup_oracle import (differential_matrix, label_walk_basis,
                           label_walk_differential, scanned_allowed_indices)
from strathom.blowup import GlobalBlowupComplex
from strathom.stratified import FilteredComplex, GMPerversity, Perversity, Stratum
from strathom.triangulations import (_REGISTRY, projective_plane, projective_space_3,
                                     torus, triangulation_of)
from test_maximal import SPACES

IDS = [s[0] for s in SPACES]
SUSP2 = {"susp2(RP2)": lambda: projective_plane().suspension().suspension(),
         "susp2(T2)": lambda: torus().suspension().suspension()}
GM_VALUES = ((0, 0), (0, 1), (1, 1), (1, 2))


def apex_perversities(X):
    """The constant perversities 0..n-1 on the singular strata (one beyond
    the top GM value); the zero perversity on a manifold."""
    singular = [st.key for st in X.strata() if not st.regular]
    if not singular:
        return [Perversity(X, {})]
    return [Perversity(X, {key: k for key in singular}) for k in range(X.n)]


@pytest.mark.parametrize("name, make", SPACES, ids=IDS)
def test_basis_matches_label_walk(name, make):
    X = make()
    G = GlobalBlowupComplex(X)
    assert G.basis == label_walk_basis(X)
    # label (carrier c, eps) has the key c << n | eps mask, listed at its place
    number = {tau: c for c, tau in enumerate(X.regular_simplex_ids)}
    for k, labels in G.basis.items():
        for i, g in enumerate(labels):
            key = number[g.carrier] << X.n | sum(e << s for s, e in enumerate(g.eps))
            assert G._keys[k][i] == key


@pytest.mark.parametrize("name, make", SPACES, ids=IDS)
def test_differentials_match_label_walk(name, make):
    X = make()
    G = GlobalBlowupComplex(X)
    alone = GlobalBlowupComplex(X)      # each degree alone, without full_complex
    for k in sorted(G.basis):
        got, want = G.full_complex().diff(k), label_walk_differential(X, G, k)
        assert got == want, (name, k)
        assert list(got.entries) == list(want.entries), (name, k)
        assert list(differential_matrix(alone, k).entries.items()) == list(got.entries.items())


@pytest.mark.parametrize("name, make", SPACES, ids=IDS)
def test_allowed_indices_match_scan(name, make):
    X = make()
    G = GlobalBlowupComplex(X)
    for p in apex_perversities(X):
        assert G.allowed_indices(p) == scanned_allowed_indices(X, G, p), (name, p)


@pytest.mark.parametrize("name", sorted(SUSP2))
def test_gm_allowed_indices_match_scan(name):
    X = SUSP2[name]()
    G = GlobalBlowupComplex(X)
    for a, b in GM_VALUES:
        p = Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))
        assert G.allowed_indices(p) == scanned_allowed_indices(X, G, p), (name, a, b)


def test_carrier_data_computed_once(monkeypatch):
    X = SUSP2["susp2(T2)"]()
    perversities = [Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))
                    for a, b in ((0, 0), (1, 2))]
    calls = {"vertex_strata": 0, "sorted_vertices": 0}
    for attr in calls:
        orig = getattr(FilteredComplex, attr)

        def counted(self, *args, orig=orig, attr=attr):
            calls[attr] += 1
            return orig(self, *args)
        monkeypatch.setattr(FilteredComplex, attr, counted)
    G = GlobalBlowupComplex(X)
    G.full_complex()
    for p in perversities:
        G.allowed_indices(p)
    # the carriers read their star strata from the vertex-to-stratum list,
    # read once
    assert calls["vertex_strata"] == 1
    assert calls["sorted_vertices"] == 0


@pytest.mark.parametrize("name, make", SPACES, ids=IDS)
def test_link_extensions_are_the_listed_simplices(name, make):
    # every row of the column of (tau, eps) is a label on tau itself (an
    # eps flip) or on a listed simplex one vertex up, its carrier tau * w
    X = make()
    G = GlobalBlowupComplex(X)
    regular = set(X.regular_simplex_ids)
    for k, labels in G.basis.items():
        for g, col in zip(labels, G.differential(k)):
            for row in col:
                bigger = G.basis[k + 1][row].carrier
                assert bigger in regular
                assert bigger == g.carrier or (len(bigger) == len(g.carrier) + 1
                                               and set(g.carrier) < set(bigger))


def test_carriers_hash_no_stratum(monkeypatch):
    # the stars are sets of stratum numbers; the counts repeat exactly
    X = projective_space_3().cone()
    hashes = []
    orig = Stratum.__hash__

    def counted(self):
        hashes.append(self)
        return orig(self)
    monkeypatch.setattr(Stratum, "__hash__", counted)
    assert hash(X.strata()[0]) and len(hashes) == 1
    for _ in range(2):
        hashes.clear()
        G = GlobalBlowupComplex(X)
        G.allowed_indices(Perversity(X, {st.key: 1 for st in X.strata() if not st.regular}))
        assert hashes == []


def carrier_pairs_by_sets(X):
    """Per regular simplex tau, in basis order: its block sizes and the
    sorted positions of the singular strata met by tau and by the vertices
    w with tau + w a simplex, from frozensets and vertex ids."""
    strata = X.strata()
    of = dict(zip(X.vertex_ids, X.vertex_strata()))
    out = []
    for tau in X.regular_simplex_ids:
        t = frozenset(tau)
        sizes = tuple(sum(1 for v in tau if X.levels[v] == lv) for lv in range(X.n + 1))
        star = {of[v] for v in tau} | {of[w] for w in X.levels
                                        if w not in t and t | {w} in X.simplices}
        out.append((sizes, sorted(i for i in star if not strata[i].regular)))
    return out


@pytest.mark.parametrize("name", sorted(_REGISTRY))
@pytest.mark.parametrize("op", ["atom", "cone", "suspension"])
def test_carrier_pairs_match_the_set_oracle(name, op):
    # the packed block sizes and the star bitmasks against sets; on S3 and
    # RP3 one level holds all n + 1 = 4 vertices of a simplex
    X = triangulation_of(name)
    X = X if op == "atom" else getattr(X, op)()
    G = GlobalBlowupComplex(X)
    got = [(sizes, [i for i in range(len(X.strata())) if star >> i & 1])
           for sizes, star in G._carriers]
    assert got == carrier_pairs_by_sets(X)
