"""One ambient complex per space.

The regular chain complex and the global blown-up complex of X depend on
X alone: each is built, and its d o d = 0 checked, once per X, and every
perversity and ring carves its subcomplex out of it.  The memo is keyed
weakly on X and no ambient refers to X, so the ambients go with X, freed
by reference counting alone.  The allowed lists of a perversity are
computed once per X, for every ring.  Each ambient is stored as sparse
columns, built, checked and read with no ``IntMatrix`` made or multiplied
on the way, and the blown-up one keeps no per-label or per-link object
beside its columns.  Each test builds its own X: the module fixtures of
other files share theirs across tests.
"""
import contextlib
import gc
import io
import json
import sys
import tracemalloc
import weakref
from pathlib import Path

import strathom.blowup as blowup
import strathom.chains as chains
from strathom.blowup import blowup_cohomology, blowup_complex, global_blowup
from strathom.chains import (intersection_cohomology, intersection_complex,
                             intersection_homology, regular_complex)
from strathom.cli import main
from strathom.exact_algebra import ChainComplex, Coefficients, IntMatrix, Subcomplex
from strathom.exact_algebra.matrices import split_factors
from strathom.stratified import AMBIENTS, FilteredComplex, Perversity
from strathom.triangulations import projective_plane, projective_space_3

JOBS = Path(__file__).resolve().parent / "golden" / "jobs"


def apex_perversity(X, k):
    return Perversity(X, {st.key: k for st in X.strata() if not st.regular})


def test_one_crosscheck_builds_each_ambient_once(tmp_path, monkeypatch):
    built, checked = [], []
    init, complex_init = blowup.GlobalBlowupComplex.__init__, ChainComplex.__init__

    def recorded_init(self, X):
        built.append(X)
        init(self, X)

    def recorded_complex(self, orientation, *args, **kwargs):
        if kwargs.get("check", True):
            checked.append(orientation)
        complex_init(self, orientation, *args, **kwargs)
    monkeypatch.setattr(blowup.GlobalBlowupComplex, "__init__", recorded_init)
    monkeypatch.setattr(ChainComplex, "__init__", recorded_complex)
    job = tmp_path / "susp-rp2.json"
    job.write_text(json.dumps({"space": {"type": "suspension",
                                         "of": {"type": "atom", "name": "RP2"}}}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["crosscheck", str(job)]) == 0
    assert out.getvalue().endswith("crosscheck: pass\n")
    # one blown-up complex, one regular complex ("hom"), one check each
    assert len(built) == 1
    assert sorted(checked) == ["coh", "hom"]


def test_every_perversity_and_ring_shares_the_ambients():
    X = projective_plane().suspension()
    G, R = global_blowup(X), regular_complex(X)
    for k in (0, 1):
        p = apex_perversity(X, k)
        for ring in (Coefficients("Z"), Coefficients("Fp", 2)):
            assert intersection_complex(X, p, ring).ambient is R
            assert blowup_complex(X, p, ring).ambient is G.full_complex()
            assert blowup_complex(X, p, ring).global_complex is G
    assert global_blowup(X) is G and regular_complex(X) is R
    # a new space with the same simplices is a new X, with its own ambients
    Y = projective_plane().suspension()
    assert global_blowup(Y) is not G and regular_complex(Y) is not R


def test_an_ambient_lives_exactly_as_long_as_its_space():
    others = list(AMBIENTS)         # held, so that no other entry goes meanwhile
    enabled = gc.isenabled()
    gc.disable()                    # freed by reference counting alone
    try:
        X = projective_plane().suspension()
        assert X not in AMBIENTS
        G, R = global_blowup(X), regular_complex(X)
        G.full_complex()
        assert sorted(AMBIENTS[X].values(), key=id) == sorted([G, R], key=id)
        space = weakref.ref(X)
        ambients = [weakref.ref(G), weakref.ref(R)]
        del G, R
        assert space() is X         # the memo alone keeps X's ambients, not X
        del X
        assert space() is None
        assert all(a() is None for a in ambients)
        assert len(AMBIENTS) == len(others)
    finally:
        if enabled:
            gc.enable()


def test_one_crosscheck_scans_each_perversity_once(monkeypatch):
    # 3 perversities over 4 rings: 3 scans on each side (12 before the
    # allowed lists were kept with the ambient)
    scans = {"chain": 0, "blow-up": 0}
    scan_chain, scan_blowup = chains._allowed, blowup.GlobalBlowupComplex._scan_allowed

    def chain(*args):
        scans["chain"] += 1
        return scan_chain(*args)

    def blown_up(*args):
        scans["blow-up"] += 1
        return scan_blowup(*args)
    monkeypatch.setattr(chains, "_allowed", chain)
    monkeypatch.setattr(blowup.GlobalBlowupComplex, "_scan_allowed", blown_up)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["crosscheck", str(JOBS / "susp-rp3.json")]) == 0
    assert out.getvalue().endswith("crosscheck: pass\n")
    assert scans == {"chain": 3, "blow-up": 3}


def _codes(*functions):
    return {f.__code__ for f in functions}


def test_ambients_are_built_checked_and_read_as_columns(monkeypatch):
    # no IntMatrix is made while building or checking an ambient or feeding
    # its columns to the elimination (the stalled-row kernel inside
    # split_factors aside), and the d o d = 0 check multiplies no matrices
    guarded = _codes(regular_complex.__wrapped__, ChainComplex.__init__,
                     Subcomplex._splits.func,
                     *[f for f in vars(blowup.GlobalBlowupComplex).values()
                       if callable(f)])
    exempt = _codes(split_factors)
    made, products = [], []
    init, mul = IntMatrix.__init__, IntMatrix.__mul__

    def stack():
        frame, codes = sys._getframe(2), []
        while frame is not None:
            codes.append(frame.f_code)
            frame = frame.f_back
        return codes

    def recorded_init(self, *args, **kwargs):
        codes = stack()
        if not exempt.intersection(codes):
            made.extend(c.co_name for c in guarded.intersection(codes))
        init(self, *args, **kwargs)

    def recorded_mul(self, other):
        if ChainComplex.__init__.__code__ in stack():
            products.append(other)
        return mul(self, other)
    monkeypatch.setattr(IntMatrix, "__init__", recorded_init)
    monkeypatch.setattr(IntMatrix, "__mul__", recorded_mul)
    S = projective_space_3().suspension()
    X = FilteredComplex(S.n, S.levels, [sorted(s) for s in S.simplices if len(s) == S.n + 1])
    p = Perversity(X, {st.key: 1 for st in X.strata() if not st.regular})
    intersection_homology(X, p)
    intersection_cohomology(X, p)
    Y = projective_space_3().cone()
    blowup_cohomology(Y, Perversity(Y, {st.key: 1 for st in Y.strata() if not st.regular}))
    monkeypatch.undo()
    assert made == [] and products == []


def test_blown_up_ambient_keeps_few_bytes_per_label():
    # susp2(RP3), 21 200 labels: the columns of d with their row ints, the
    # label keys and one shared pair per carrier hold about 340 B a label
    # (about 400 at the peak of building); with a GlobalLabel and a position
    # entry per label and the link lists per carrier beside them, 660 B
    X = projective_space_3().suspension().suspension()
    X.regular_simplices, X.vertex_strata(), X.vertex_places     # X's own, read before
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = blowup.GlobalBlowupComplex(X)
        G.full_complex()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    labels = sum(map(G.rank, G.full_complex().support()))
    assert labels == 21200
    assert (held - before) / labels < 500 and (peak - before) / labels < 500


def test_regular_ambient_shares_the_table_tuples():
    # susp(RP3), 2544 regular simplices: the regular-simplex list and the
    # basis of the regular complex hold the table's own tuples of vertex
    # numbers, 8 B a simplex in the list (a second tuple of vertex ids was
    # about 76 B); with the regular complex, about 260 B a regular simplex
    # held and at the peak of building (330 and 345 B with the id tuples)
    S = projective_space_3().suspension()
    X = FilteredComplex(S.n, S.levels, [sorted(s) for s in S.simplices if len(s) == S.n + 1])
    X.strata()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        regular = X.regular_simplices
        gc.collect()
        listed = tracemalloc.get_traced_memory()[0]
        C = regular_complex(X)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = {t: t for t in X.table}
    assert len(regular) == 2544 and all(own[t] is t for t in regular)
    assert all(own[t] is t for simps in C.basis.values() for t in simps)
    assert (listed - before) / len(regular) < 16
    assert (held - before) / len(regular) < 300 and (peak - before) / len(regular) < 300
