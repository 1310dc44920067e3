"""The integer simplex table of ``FilteredComplex`` against the frozenset
definitions of ``strata_oracle``.

Each complex is rebuilt from raw input twice, from its facets with
``close=True`` and from all of its simplices with ``close=False``, and
the table must give the oracle's simplices, the oracle's maximal simplices
and vertex index (list and order), and the regular simplices read from
the frozensets.  The inputs are the ``test_strata_oracle`` cases, their
vertex-permuted copies, the spaces of ``test_maximal`` that are not among
them (like the cases, their cones, suspensions and unions are built with
``close=False``; one lists its vertex levels in reverse) and seeded random
inputs like those of ``test_maximal``, with empty simplices and vertices
in no simplex, that validate accepts.
"""
import random

import pytest

import strata_oracle as oracle
from strathom.chains import intersection_homology
from strathom.stratified import (FilteredComplex, Perversity,
                                 StratifiedValidationError)
from strathom.triangulations import projective_space_3
from test_maximal import SPACES as MAXIMAL_SPACES
from test_strata_oracle import CASES, vertex_permuted

COMPLEXES = ([(name, CASES[name]) for name in sorted(CASES)]
             + [(f"{name}, permuted {seed}",
                 lambda name=name, seed=seed: vertex_permuted(CASES[name](), seed))
                for name in sorted(CASES) for seed in (1, 2)]
             + [(name, make) for name, make in MAXIMAL_SPACES if name not in CASES])


def assert_table_matches_oracle(X, levels, given, close):
    assert X.simplices == oracle.simplex_set(levels, given, close)
    assert len(X.table) == len(X.simplices)
    maximal, by_vertex = oracle.index_maximal(X)
    assert X.maximal_simplices() == maximal
    assert oracle.maximal_by_vertex(X) == by_vertex
    # the empty simplex, kept from close=False input, is not regular
    assert X.regular_simplices == sorted(
        X.sorted_vertices(s) for s in X.simplices if s and X.is_regular(s))


@pytest.mark.parametrize("name, make", COMPLEXES, ids=[c[0] for c in COMPLEXES])
def test_table_matches_the_frozenset_definitions(name, make):
    X = make()
    maximal, _ = oracle.index_maximal(X)
    assert X.maximal_simplices() == maximal
    facets = [sorted(s) for s in X.simplices if len(s) == X.n + 1]
    everything = [sorted(s, reverse=True) for s in X.simplices]
    random.Random(len(everything)).shuffle(everything)
    for given, close in ((facets, True), (everything, False)):
        Y = FilteredComplex(X.n, X.levels, given, close=close)
        assert_table_matches_oracle(Y, X.levels, given, close)
        assert Y.simplices == X.simplices


def test_random_inputs_match_the_frozenset_definitions():
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        pool = range(n + 4)
        given = [tuple(rng.sample(pool, n + 1 if rng.random() < 0.8
                                  else rng.randint(0, n + 1)))
                 for _ in range(rng.randint(1, 6))]
        used = sorted({v for s in given for v in s})
        if rng.random() < 0.2:
            used.append(n + 4)          # a vertex outside every simplex
        levels = {v: n if rng.random() < 0.8 else rng.randint(0, n) for v in used}
        close = rng.random() < 0.5
        try:
            X = FilteredComplex(n, levels, given, close=close)
        except StratifiedValidationError:
            continue
        accepted += 1
        assert_table_matches_oracle(X, levels, given, close)
    assert accepted > 50


def apex(X, k):
    return Perversity(X, {st.key: k for st in X.strata() if not st.regular})


def test_homology_path_sorts_no_simplex(monkeypatch):
    """Construction, strata, allowability and the regular basis read the
    table: no simplex goes through ``sorted_vertices``."""
    S = projective_space_3().suspension()
    want = intersection_homology(S, apex(S, 1))
    facets = [sorted(s) for s in S.simplices if len(s) == S.n + 1]
    calls = []
    sorted_vertices = FilteredComplex.sorted_vertices
    monkeypatch.setattr(FilteredComplex, "sorted_vertices",
                        lambda self, s: calls.append(s) or sorted_vertices(self, s))
    X = FilteredComplex(S.n, S.levels, facets, name="susp(RP3)")
    got = intersection_homology(X, apex(X, 1))
    assert calls == []
    assert [(got[k].rank, got[k].torsion) for k in range(5)] == \
        [(want[k].rank, want[k].torsion) for k in range(5)]
