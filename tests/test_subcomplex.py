"""The allowable subcomplex read by invariant factors against its induced
complex, and what the homology paths leave out.

Both engines and the relative complex read (co)homology from one fused
elimination per ambient differential.  The reference is the induced
differential D_k, solved for in the lattice bases of ``subcomplex_oracle``
and run through the same ``homology_all``: the groups must agree on both
sides, for the dual cohomology too, over every coefficient ring.  The entry
points that compute groups run no kernel over F_p and multiply no ambient
differential by anything but another one (the d o d = 0 check of the
ambient complex); that no module of the package names a kernel or a solve
outside the module-map layer is checked in ``test_dead_code``.  No degree
feeds its elimination a source row that the previous degree's phase 2
pivoted on (clearing).
"""
import contextlib
import io
from pathlib import Path

import pytest

import strathom.exact_algebra.complexes as complexes
import strathom.exact_algebra.matrices as matrices
from strathom.blowup import (GlobalBlowupComplex, blowup_cohomology,
                             relative_cohomology)
from strathom.chains import (intersection_cohomology, intersection_complex,
                             intersection_homology)
from strathom.cli import main
from strathom.exact_algebra import (ChainComplex, Coefficients, IntMatrix,
                                    homology_all)
from strathom.stratified import Perversity
from strathom.triangulations import projective_plane, projective_space_3, torus
from subcomplex_oracle import Lattice

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
    G = GlobalBlowupComplex(space)
    for k in (0, 1):
        p = apex_perversity(space, k)
        ic = intersection_complex(space, p, ring)
        induced = Lattice(ic).complex
        assert homology_all(ic, ring) == homology_all(induced, ring), k
        assert (homology_all(ic.dualize(), ring)
                == homology_all(induced.dualize(), ring)), k
        bi = G.intersection_complex(p, ring)
        assert homology_all(bi, ring) == homology_all(Lattice(bi).complex, ring), k


JOBS = Path(__file__).resolve().parent / "golden" / "jobs"


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def entry_points(ring):
    """The public routes to groups over ``ring``, on susp(RP2) at p = 1
    (the relative one from p = 0)."""
    X = SPACES["susp(RP2)"]()
    p = apex_perversity(X, 1)
    yield lambda: intersection_homology(X, p, ring)
    yield lambda: intersection_cohomology(X, p, ring)
    yield lambda: blowup_cohomology(X, p, ring)
    yield lambda: relative_cohomology(X, apex_perversity(X, 0), p, ring)
    yield lambda: run_cli("profile", str(JOBS / "complex-susp-rp2.json"),
                          "--perversity", "1", "--ring", str(ring))


def crosscheck():
    run_cli("crosscheck", str(JOBS / "susp-t2.json"))


def recording(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("ring", RINGS[2:], ids=str)
def test_no_kernel_over_a_prime_field(ring, monkeypatch):
    calls = recording(monkeypatch, matrices, "_kernel")
    for run in entry_points(ring):
        run()
    assert not calls


def test_no_product_with_an_ambient_differential(monkeypatch):
    products, subcomplexes = [], []
    mul, init = IntMatrix.__mul__, complexes.Subcomplex.__init__

    def recorded_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def recorded_init(self, *args):
        subcomplexes.append(self)
        init(self, *args)
    monkeypatch.setattr(IntMatrix, "__mul__", recorded_mul)
    monkeypatch.setattr(complexes.Subcomplex, "__init__", recorded_init)
    for run in entry_points(Coefficients("Z")):
        run()
    crosscheck()
    monkeypatch.undo()
    ambient = {id(d) for s in subcomplexes for d in s.ambient.diffs.values()}
    assert subcomplexes and ambient
    # a product of two ambient differentials is the d o d = 0 check
    assert all((id(a) in ambient) == (id(b) in ambient) for a, b in products)


def test_a_subcomplex_is_read_over_its_own_ring_only():
    X = SPACES["susp(RP2)"]()
    ic = intersection_complex(X, apex_perversity(X, 1), Coefficients("Z"))
    with pytest.raises(ValueError):
        homology_all(ic, Coefficients("Fp", 2))


def recording_splits(monkeypatch):
    """Per call of ``split_factors``: (degree, the source rows fed, the
    allowed targets its phase 2 pivoted on); the degree is that of the
    ambient differential read last."""
    calls, degrees = [], []
    diff, split = ChainComplex.diff, complexes.split_factors

    def recorded_diff(self, k):
        degrees.append(k)
        return diff(self, k)

    def recorded_split(rows, limit, p=0, pivots=None):
        fed = set(rows)
        out = split(rows, limit, p, pivots)
        calls.append((degrees[-1], fed, {j - limit for j, _, _ in pivots or ()}))
        return out
    monkeypatch.setattr(ChainComplex, "diff", recorded_diff)
    monkeypatch.setattr(complexes, "split_factors", recorded_split)
    return calls


@pytest.mark.parametrize("side", ["chain", "blow-up"])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_no_degree_feeds_a_source_pivoted_before(side, ring, monkeypatch):
    """Clearing: the sources of degree k + step that the elimination of
    degree k pivoted on in its phase 2 are not fed again, so on susp(RP3)
    fewer rows are fed than the allowed coordinates that d moves."""
    X = projective_space_3().suspension()
    p = apex_perversity(X, 0)
    sub = (intersection_complex(X, p, ring) if side == "chain"
           else GlobalBlowupComplex(X).intersection_complex(p, ring))
    calls = recording_splits(monkeypatch)
    sub.rank(0)
    monkeypatch.undo()
    pivoted = {k + sub.step: targets for k, _, targets in calls}
    assert any(pivoted.values())
    for k, fed, _ in calls:
        assert not fed & pivoted.get(k, set()), k
    q, moved = ring.p if ring.kind == "Fp" else 0, 0
    for k, _, _ in calls:
        d = sub.ambient.diff(k)
        moved += len(set(sub.allowed[k])
                     & {j for (_, j), v in d.entries.items() if not q or v % q})
    assert sum(len(fed) for _, fed, _ in calls) < moved
