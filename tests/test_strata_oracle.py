"""Strata read from the vertex graph against the simplex union-find.

``FilteredComplex.strata`` unions level-l vertices along level-l edges;
``strata_oracle`` unions every simplex of top level l with its faces.  The
two must give the same strata with the same (level, index) numbering, and
the vertex-to-stratum list (``vertex_strata``) and ``chains.allowable``
must agree with their definitions on every simplex, at every apex value and GM perversity, and
``intersection_complex`` must allow exactly the regular simplices that the
definition allows.  The spaces are those of ``test_smith``, copies of them
with vertex ids permuted (which moves the index order), susp^2(T2), and
disjoint unions, which have several strata on every level.
"""
import random

import pytest

import strata_oracle as oracle
from strathom.chains import allowable, intersection_complex, regular_complex
from strathom.stratified import FilteredComplex, Perversity
from strathom.triangulations import torus
from test_smith import SPACES

UNIONS = {
    "susp(RP2)+cone(T2)+susp(T2)": lambda: SPACES["susp(RP2)"]().disjoint_union(
        SPACES["cone(T2)"]()).disjoint_union(SPACES["susp(T2)"]()),
    "susp2(RP2)+susp2(T2)": lambda: SPACES["susp2(RP2)"]().disjoint_union(
        torus().suspension().suspension()),
    "T2+RP2+S2": lambda: SPACES["T2"]().disjoint_union(
        SPACES["RP2"]()).disjoint_union(SPACES["S2"]()),
}
CASES = {**SPACES, "susp2(T2)": lambda: torus().suspension().suspension(), **UNIONS}


def vertex_permuted(X: FilteredComplex, seed: int) -> FilteredComplex:
    """X with its vertex ids permuted at random, levels carried along."""
    ids = sorted(X.levels)
    image = list(ids)
    random.Random(seed).shuffle(image)
    relabel = dict(zip(ids, image))
    return FilteredComplex(X.n, {relabel[v]: lv for v, lv in X.levels.items()},
                           [[relabel[v] for v in s] for s in X.simplices],
                           close=False, name=X.name)


def perversities(X: FilteredComplex):
    singular = [st for st in X.strata() if not st.regular]
    for k in range(max(X.n - 1, 1)):
        yield Perversity(X, {st.key: k for st in singular})
    for gm in oracle.all_gm_perversities(X.n):
        yield Perversity.from_gm(X, gm)


SEEDED = [(name, 0) for name in sorted(CASES)] + \
    [(name, seed) for name in sorted(SPACES) for seed in (1, 2, 3)]


@pytest.mark.parametrize("name,seed", SEEDED)
def test_strata_and_allowability_match_the_union_find(name, seed):
    X = CASES[name]()
    if seed:
        X = vertex_permuted(X, seed)
    want = oracle.strata(X)
    got = X.strata()
    fields = ("key", "level", "index", "dim", "codim", "regular")
    assert [[getattr(st, f) for f in fields] for st in got] == \
        [[getattr(st, f) for f in fields] for st in want]
    of = oracle.stratum_of(want)
    stratum, number = X.vertex_strata(), X.vertex_numbers
    for s in X.simplices:
        at = {X.levels[v]: v for v in s}       # one vertex per level of s
        assert [got[stratum[number[at[i]]]].key for i in sorted(at)] == \
            [st.key for st in oracle.strata_met_by(X, of, s)], sorted(s)
    for p in perversities(X):
        for s in X.simplices:
            assert allowable(X, s, p) == oracle.allowable(X, of, s, p), (sorted(s), p)


@pytest.mark.parametrize("name,seed", SEEDED)
def test_intersection_complex_allows_what_the_oracle_allows(name, seed):
    # the batch scan of intersection_complex, not the public allowable
    X = CASES[name]()
    if seed:
        X = vertex_permuted(X, seed)
    of = oracle.stratum_of(oracle.strata(X))
    basis = regular_complex(X).basis        # tuples of vertex numbers
    ids = X.vertex_ids.__getitem__
    for p in perversities(X):
        want = {k: [j for j, s in enumerate(simps)
                    if oracle.allowable(X, of, map(ids, s), p)]
                for k, simps in basis.items()}
        assert intersection_complex(X, p).allowed == want, p
