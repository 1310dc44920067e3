"""The allowable subcomplex read by invariant factors against its induced
complex.

Both engines compute (co)homology from the ambient products d.B_k.  The
reference is the induced differential D_k, solved for in the lattice
bases and run through the same ``homology_all``: the groups must agree on
both sides, for the dual cohomology too, over every coefficient ring.
"""
import pytest

from strathom.blowup import GlobalBlowupComplex
from strathom.chains import intersection_complex
from strathom.exact_algebra import Coefficients, homology_all
from strathom.stratified import Perversity
from strathom.triangulations import projective_plane, torus

RINGS = (Coefficients("Z"), Coefficients("Q"), Coefficients("Fp", 2),
         Coefficients("Fp", 3))
SPACES = {
    "cone(RP2)": lambda: projective_plane().cone(),
    "susp(RP2)": lambda: projective_plane().suspension(),
    "susp(T2)": lambda: torus().suspension(),
    "susp2(RP2)": lambda: projective_plane().suspension().suspension(),
}


def apex_perversity(X, k):
    return Perversity(X, {st.key: k for st in X.strata() if not st.regular})


@pytest.fixture(scope="module", params=sorted(SPACES))
def space(request):
    return SPACES[request.param]()


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_products_match_induced_complex(space, ring):
    G = GlobalBlowupComplex(space, ring)
    for k in (0, 1):
        p = apex_perversity(space, k)
        ic = intersection_complex(space, p, ring)
        assert homology_all(ic, ring) == homology_all(ic.complex, ring), k
        assert (homology_all(ic.dualize(), ring)
                == homology_all(ic.complex.dualize(), ring)), k
        bi = G.intersection_complex(p)
        assert homology_all(bi, ring) == homology_all(bi.complex, ring), k
