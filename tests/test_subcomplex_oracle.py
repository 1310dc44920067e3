"""The fused elimination of ``Subcomplex`` against the basis-and-product
route of ``subcomplex_oracle``.

``subcomplex_oracle`` builds saturated lattice bases, multiplies the
ambient differentials by them and reads Smith forms of the products;
``Subcomplex`` reads the groups from one fused elimination per ambient
differential.  They must agree over Z, Q, F2 and F3, for homology and for
the dual cohomology, on the chain side everywhere and on the blow-up side
where n <= 3: the spaces of ``test_smith`` at every apex value, copies of
them with vertex ids permuted, and susp^2(RP2) and susp^2(T2) at four GM
perversities.  On susp(RP3) the elimination leaves rows with non-unit
entries in banned columns, which sends it to its fallback: a kernel of
that block over Z and Q.
"""
import pytest

import strathom.exact_algebra.matrices as matrices
import subcomplex_oracle as oracle
from strathom.blowup import GlobalBlowupComplex
from strathom.chains import intersection_complex
from strathom.exact_algebra import Coefficients, homology_all
from strathom.stratified import GMPerversity, Perversity
from strathom.triangulations import projective_plane, torus
from test_smith import SPACES
from test_strata_oracle import vertex_permuted

RINGS = (Coefficients("Z"), Coefficients("Q"), Coefficients("Fp", 2),
         Coefficients("Fp", 3))
GM_PAIRS = ((0, 0), (0, 1), (1, 1), (1, 2))
SUSP2 = {"susp2(RP2)": lambda: projective_plane().suspension().suspension(),
         "susp2(T2)": lambda: torus().suspension().suspension()}


def apex_perversities(X):
    singular = [st for st in X.strata() if not st.regular]
    for k in range(max(X.n - 1, 1)) if singular else (0,):
        yield k, Perversity(X, {st.key: k for st in singular})


def gm_perversities(X):
    for a, b in GM_PAIRS:
        yield (a, b), Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))


def assert_matches_oracle(X, perversities):
    for label, p in perversities:
        for ring in RINGS:
            subs = [intersection_complex(X, p, ring)]
            if X.n <= 3:
                subs.append(GlobalBlowupComplex(X).intersection_complex(p, ring))
            for sub in subs:
                where = (label, str(ring), type(sub).__name__)
                assert homology_all(sub, ring) == oracle.homology(sub, ring), where
                assert (homology_all(sub.dualize(), ring)
                        == oracle.homology(sub, ring, dual=True)), where


@pytest.mark.parametrize("name,seed", [(name, seed) for name in sorted(SPACES)
                                       for seed in (0, 1, 2, 3)])
def test_spaces_match_the_product_route(name, seed):
    X = SPACES[name]()
    if seed:
        X = vertex_permuted(X, seed)
    assert_matches_oracle(X, apex_perversities(X))


SPLIT_SPACES = [f"{c}({a})" for c in ("cone", "susp")
                for a in ("S1", "S2", "T2", "RP2", "RP3")] + ["susp2(RP2)"]


@pytest.mark.parametrize("name", SPLIT_SPACES)
def test_ranks_and_factors_match_the_product_route(name):
    """Clearing drops pivoted sources from the elimination of each degree,
    never a rank or a factor: both are the oracle's in every degree, on the
    chain side and the blow-up side, at every apex value."""
    X = SPACES[name]()
    G = GlobalBlowupComplex(X)
    for k, p in apex_perversities(X):
        for ring in RINGS:
            for side, sub in (("chain", intersection_complex(X, p, ring)),
                              ("blow-up", G.intersection_complex(p, ring))):
                got = {j: (sub.rank(j), sub.factors(j, ring))
                       for j in sub.ambient.support()}
                assert got == oracle.ranks_and_factors(sub, ring), (k, str(ring), side)


@pytest.mark.parametrize("name", sorted(SUSP2))
def test_double_suspensions_match_the_product_route(name):
    X = SUSP2[name]()
    assert_matches_oracle(X, gm_perversities(X))


def test_susp_rp3_takes_the_unit_free_fallback(monkeypatch):
    """The fallback is the only caller of ``kernel_basis`` in ``matrices``."""
    X = SPACES["susp(RP3)"]()
    for ring in (Coefficients("Z"), Coefficients("Q")):
        calls = []
        kernel_basis = matrices.kernel_basis

        def counted(A):
            calls.append(A)
            return kernel_basis(A)
        for k, p in apex_perversities(X):
            ic = intersection_complex(X, p, ring)
            monkeypatch.setattr(matrices, "kernel_basis", counted)
            H = homology_all(ic, ring)
            monkeypatch.undo()
            assert H == oracle.homology(ic, ring), (k, str(ring))
        assert calls, str(ring)
