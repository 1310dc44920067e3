"""Expected groups for every benchmark job, written by hand.

Nothing here calls strathom.  The simplicial expectations come from the
cone and suspension formulas applied to the known (co)homology of the
link; the closed-form expectations are the values the acceptance criteria
assert, plus the suspension formula for GH_*.

A graded group is a dict {degree: (rank, torsion tuple)} without zero
entries.  Over a field only the rank (the dimension) is kept.
"""
from __future__ import annotations

from typing import Dict, Tuple

Group = Tuple[int, Tuple[int, ...]]
Graded = Dict[int, Group]

# Integral homology and cohomology of the links.
H_Z = {
    "RP3": {0: (1, ()), 1: (0, (2,)), 3: (1, ())},
    "RP2": {0: (1, ()), 1: (0, (2,))},
    "T2": {0: (1, ()), 1: (2, ()), 2: (1, ())},
    # Kunneth: H(S1 x S1) = Z, Z^2, Z is free, so no Tor terms
    "S1xS1xRP3": {0: (1, ()), 1: (2, (2,)), 2: (1, (2, 2)), 3: (1, (2,)),
                  4: (2, ()), 5: (1, ())},
    # Kunneth with H(S2) = Z, 0, Z
    "RP3xS2": {0: (1, ()), 1: (0, (2,)), 2: (1, ()), 3: (1, (2,)),
               5: (1, ())},
}
COH_Z = {
    "RP3": {0: (1, ()), 2: (0, (2,)), 3: (1, ())},
}

# Field (co)homology dimensions of the links, by characteristic.
DIM_F = {
    ("RP2", 0): {0: 1}, ("RP2", 2): {0: 1, 1: 1, 2: 1}, ("RP2", 3): {0: 1},
    ("T2", 0): {0: 1, 1: 2, 2: 1}, ("T2", 2): {0: 1, 1: 2, 2: 1},
    ("T2", 3): {0: 1, 1: 2, 2: 1},
}


def _sum(a: Group, b: Group) -> Group:
    return (a[0] + b[0], tuple(sorted(a[1] + b[1])))


def _add(out: Graded, j: int, g: Group):
    out[j] = _sum(out[j], g) if j in out else g


def cone_lower(h: Graded, n: int, k: int) -> Graded:
    """GH_* of an open cone of formal dimension n at apex perversity k:
    the link's homology through degree n - 2 - k."""
    return {j: g for j, g in h.items() if j <= n - 2 - k}


def susp_lower(h: Graded, n: int, k: int) -> Graded:
    """GH_* of a suspension: the link through n - 2 - k, then the link
    shifted up by one from degree n - k on."""
    out = dict(cone_lower(h, n, k))
    for j, g in h.items():
        if j + 1 >= n - k:
            _add(out, j + 1, g)
    return out


def cone_upper(c: Graded, k: int) -> Graded:
    """Blown-up H~^* of a cone: the link's cohomology through degree k."""
    return {j: g for j, g in c.items() if j <= k}


def susp_upper(c: Graded, k: int) -> Graded:
    """Blown-up H~^* of a suspension: through k, then shifted from k + 2."""
    out = dict(cone_upper(c, k))
    for j, g in c.items():
        if j + 1 >= k + 2:
            _add(out, j + 1, g)
    return out


def uct(h: Graded) -> Graded:
    """Cohomology from homology: H^j = free(H_j) + torsion(H_(j-1))."""
    out: Graded = {}
    for j, (rank, tors) in h.items():
        if rank:
            _add(out, j, (rank, ()))
        if tors:
            _add(out, j + 1, (0, tors))
    return out


def dims(c: Dict[int, int]) -> Graded:
    return {j: (d, ()) for j, d in c.items() if d}


def chains_susp_rp3(k: int) -> Dict[str, Graded]:
    """susp(RP3), n = 4, apex perversity k: GH_* and its dual GH^*."""
    gh = susp_lower(H_Z["RP3"], 4, k)
    return {"homology": gh, "cohomology": uct(gh)}


def profile_cone_rp3(p: int = 1) -> Dict[str, Graded]:
    """cone(RP3) over Z, n = 4: GH_*^p, GH^*_Dp with Dp = 2 - p, H~^*_p."""
    dp = 2 - p
    return {"groups": cone_lower(H_Z["RP3"], 4, p),
            "dual_cohomology": uct(cone_lower(H_Z["RP3"], 4, dp)),
            "blowup_cohomology": cone_upper(COH_Z["RP3"], p)}


def field_duality(link: str, a: int, b: int, char: int) -> Dict[str, Graded]:
    """susp(susp(link)) with GM values a (codim 3) and b (codim 4).

    H~^*_p comes from the iterated suspension formula in cohomology.
    GH^*_Dp over a field has the dimensions of GH_*^Dp, the iterated
    formula in homology at the complementary values 1 - a and 2 - b.
    """
    d = dims(DIM_F[(link, char)])
    return {"blowup": susp_upper(susp_upper(d, a), b),
            "dual": susp_lower(susp_lower(d, 3, 1 - a), 4, 2 - b)}


def _tors(*factors):
    return (0, tuple(factors))


# closed-form jobs: the space, the perversity, and the expected report
# fields (acceptance criteria 1-6 and 11; GH_* of the suspensions from
# susp_lower).  Every job runs with --strict, so every check must pass.
CLOSED_FORM = [
    ("susp-rp3", {"type": "suspension", "of": {"type": "atom", "name": "RP3"}}, 1, {
        "groups": susp_lower(H_Z["RP3"], 4, 1),
        "components": {"F": {}, "T_K": {3: _tors(2)}, "T_C": {2: _tors(2)}},
        "verdicts": {"torsion_free_pairing": "non-singular",
                     "torsion_pairing": "degenerate"},
    }),
    ("susp-s1s1rp3", {"type": "suspension",
                      "of": {"type": "product", "factors": ["S1", "S1", "RP3"]}}, 2, {
        "groups": susp_lower(H_Z["S1xS1xRP3"], 6, 2),
        "components": {"T_K": {4: _tors(2, 2)}, "T_C": {3: _tors(2, 2)}},
    }),
    ("susp-rp3s2", {"type": "suspension",
                    "of": {"type": "product", "factors": ["RP3", "S2"]}}, 1, {
        "groups": susp_lower(H_Z["RP3xS2"], 6, 1),
    }),
    ("thom-s2", {"type": "thom_circle", "base": {"type": "atom", "name": "S2"},
                 "euler": {"s2": 2}}, 1, {
        "peripheral": {2: _tors(2)},
        "components": {"F": {2: _tors(2)}, "T_K": {}, "T_C": {}},
        "verdicts": {"torsion_free_pairing": "singular",
                     "torsion_pairing": "non-singular"},
    }),
    ("thom-rp3cp2s1", {"type": "thom_circle",
                       "base": {"type": "product", "factors": ["RP3", "CP2", "S1"]},
                       "euler": {"a": 1, "w": 3}}, 4, {
        "peripheral": {5: _tors(3, 3)},
        "components": {"F": {5: _tors(3, 3)}},
    }),
    ("thom-s2rp3s3", {"type": "thom_circle",
                      "base": {"type": "product", "factors": ["S2", "RP3", "S3"]},
                      "euler": {"s2": 3, "a": 1}}, 4, {
        "peripheral_order": {5: 36},
        "components": {"F": {5: _tors(3, 3)}, "T_K": {6: _tors(2)},
                       "T_C": {5: _tors(2)}},
        "verdicts": {"torsion_free_pairing": "singular",
                     "torsion_pairing": "degenerate"},
    }),
    ("mapping-torus", {"type": "mapping_torus",
                       "of": {"type": "suspension",
                              "of": {"type": "product", "factors": ["S1", "S1", "RP3"]}},
                       "action": {"3": [[1, -1, 0, 0], [1, 0, 0, 0],
                                        [0, 0, 1, -1], [0, 0, 1, 0]]}}, 2, {
        "peripheral": {},
        "verdicts": {"poincare_duality": True, "locally_torsion_free": False},
    }),
    ("susp-t2", {"type": "suspension", "of": {"type": "atom", "name": "T2"}}, 0, {
        "groups": susp_lower(H_Z["T2"], 3, 0),
    }),
]
