"""The allowable subcomplex read by invariant factors against its induced
complex, and what the homology paths leave out.

Both engines and the relative complex read (co)homology from one fused
elimination per ambient differential.  The reference is the induced
differential D_k, solved for in the lattice bases of ``subcomplex_oracle``
and run through the same ``homology_all``: the groups must agree on both
sides, for the dual cohomology too, over every coefficient ring.  The entry
points that compute groups run no kernel over F_p and multiply no ambient
differential by anything (the d o d = 0 check of an ambient complex runs
on its columns); that no module of the package names a kernel or a solve
outside the module-map layer is checked in ``test_dead_code``.  No degree
feeds its elimination a source row that the previous degree's phase 2
pivoted on (clearing).
"""
import contextlib
import io
from pathlib import Path

import pytest

from algebra_oracle import dualize
import strathom.exact_algebra.complexes as complexes
import strathom.exact_algebra.matrices as matrices
from strathom.blowup import (GlobalBlowupComplex, blowup_cohomology,
                             relative_cohomology)
from strathom.chains import (intersection_cohomology, intersection_complex,
                             intersection_homology)
from strathom.cli import main
from strathom.exact_algebra import Coefficients, IntMatrix, homology_all
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
                == homology_all(dualize(induced), ring)), k
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
    # the d o d = 0 check of an ambient runs on its columns, with no product
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
    ambient = [s.ambient.diff(k) for s in subcomplexes for k in s.ambient.columns]
    assert subcomplexes and ambient
    assert not [m for pair in products for m in pair if m in ambient]


def test_a_subcomplex_is_read_over_its_own_ring_only():
    X = SPACES["susp(RP2)"]()
    ic = intersection_complex(X, apex_perversity(X, 1), Coefficients("Z"))
    with pytest.raises(ValueError):
        homology_all(ic, Coefficients("Fp", 2))


def recording_splits(monkeypatch, sub):
    """Per call of ``split_factors`` on ``sub``: (degree, the source rows fed,
    the allowed targets its phase 2 pivoted on); the degree is that of the
    ambient columns read last."""
    calls, degrees = [], []
    split = complexes.split_factors

    class ReadColumns(dict):
        def get(self, k, default=None):
            degrees.append(k)
            return super().get(k, default)

    def recorded_split(rows, limit, p=0, pivots=None):
        fed = set(rows)
        out = split(rows, limit, p, pivots)
        calls.append((degrees[-1], fed, {j - limit for j, _, _ in pivots or ()}))
        return out
    monkeypatch.setattr(sub.ambient, "columns", ReadColumns(sub.ambient.columns))
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
    calls = recording_splits(monkeypatch, sub)
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
