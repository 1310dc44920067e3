"""One ambient complex per space.

The regular chain complex and the global blown-up complex of X depend on
X alone: each is built, and its d o d = 0 checked, once per X, and every
perversity and ring carves its subcomplex out of it.  The memo is keyed
weakly on X and no ambient refers to X, so the ambients go with X, freed
by reference counting alone.  Each test builds its own X: the module
fixtures of other files share theirs across tests.
"""
import contextlib
import gc
import io
import json
import weakref

import strathom.blowup as blowup
from strathom.blowup import blowup_complex, global_blowup
from strathom.chains import intersection_complex, regular_complex
from strathom.cli import main
from strathom.exact_algebra import ChainComplex, Coefficients
from strathom.stratified import AMBIENTS, Perversity
from strathom.triangulations import projective_plane


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
