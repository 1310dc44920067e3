"""Registered triangulations of the manifold atoms.

These feed the simplicial engine: cross-checks run cones and suspensions
of these complexes against the closed-form evaluators.  All lists are
verified by the test suite (homology, pseudomanifold conditions).
"""
from __future__ import annotations

import itertools
from typing import Dict, List

from .stratified import FilteredComplex, manifold_complex


def circle(m: int = 3) -> FilteredComplex:
    if m < 3:
        raise ValueError("a triangulated circle needs at least 3 vertices")
    simplices = [(i, (i + 1) % m) for i in range(m)]
    return manifold_complex(1, simplices, name=f"S1({m})")


def sphere(n: int = 2) -> FilteredComplex:
    """Boundary of the (n+1)-simplex."""
    verts = range(n + 2)
    simplices = list(itertools.combinations(verts, n + 1))
    return manifold_complex(n, simplices, name=f"S{n}")


# Moebius-Kuehnel 7-vertex torus: facets (i, i+1, i+3) and (i, i+2, i+3) mod 7
def torus() -> FilteredComplex:
    simplices = []
    for i in range(7):
        simplices.append((i, (i + 1) % 7, (i + 3) % 7))
        simplices.append((i, (i + 2) % 7, (i + 3) % 7))
    return manifold_complex(2, simplices, name="T2(7)")


# Hemi-icosahedron: the 6-vertex projective plane, 10 triangles
_RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def projective_plane() -> FilteredComplex:
    return manifold_complex(2, [tuple(v - 1 for v in f) for f in _RP2_FACETS],
                            name="RP2(6)")


def projective_space_3() -> FilteredComplex:
    """RP^3 as the antipodal quotient of the barycentric subdivision of the
    16-cell boundary (40 vertices, 192 tetrahedra).

    The subdivision is fine enough for the quotient to stay simplicial: no
    face of the cross-polytope boundary is fixed by the antipode, and a
    flag and its negative are never equal.
    """
    # vertices of the 16-cell boundary: +-e_i coded as i and i+4
    def neg(v):
        return (v + 4) % 8

    facets = []
    for signs in itertools.product((0, 1), repeat=4):
        facets.append(frozenset((i + 4 * s) for i, s in enumerate(signs)))
    faces = set()
    for f in facets:
        for r in range(1, 5):
            for c in itertools.combinations(sorted(f), r):
                faces.add(frozenset(c))
    # flags of faces = simplices of the barycentric subdivision
    by_face: Dict[frozenset, List[frozenset]] = {}
    flags = []

    def extend(chain):
        top = chain[-1]
        if len(chain) == 4:
            flags.append(tuple(chain))
            return
        for f in faces:
            if len(f) == len(top) + 1 and top < f:
                extend(chain + [f])

    for f in faces:
        if len(f) == 1:
            extend([f])
    # antipodal orbit representatives
    def face_neg(f):
        return frozenset(neg(v) for v in f)

    orbit: Dict[frozenset, int] = {}
    next_id = 0
    for f in sorted(faces, key=lambda f: tuple(sorted(f))):
        if f not in orbit:
            orbit[f] = next_id
            orbit[face_neg(f)] = next_id
            next_id += 1
    simplices = {tuple(sorted({orbit[f] for f in flag})) for flag in flags}
    assert all(len(s) == 4 for s in simplices)
    return manifold_complex(3, sorted(simplices), name="RP3(40)")


# the simplex count of each registered triangulation, known before it is built
SIMPLEX_COUNTS = {"S1": 6, "S2": 14, "S3": 30, "T2": 42, "RP2": 31, "RP3": 848}

_REGISTRY = {
    "S1": circle,
    "S2": sphere,
    "S3": lambda: sphere(3),
    "T2": torus,
    "RP2": projective_plane,
    "RP3": projective_space_3,
}


def triangulation_of(name: str) -> FilteredComplex:
    if name not in _REGISTRY:
        raise ValueError(f"no registered triangulation for atom {name!r}")
    return _REGISTRY[name]()

