"""The homology of an allowable subcomplex by the basis-and-product route,
kept as the oracle for the fused elimination of ``Subcomplex``.

In each degree k: a saturated basis B_k of the lattice of allowed chains
with allowed differential (``allowable_bases``, a kernel over Z or mod p),
the ambient product d.B_k, which has the invariant factors of the induced
differential because B_(k+step) is saturated, and a diagonal-only Smith
form (over F_p, a rank) of each product.  H_k is then free of rank
n_k - r_out - r_in with the factors above 1 of the entering map as
torsion.  Slow, but every step is plain linear algebra on whole matrices.

``Lattice`` keeps the bases of one subcomplex with coordinates in them and
the induced complex solved for in them; ``relative_complex`` is the
relative blown-up complex by that route: the cone of the inclusion of
induced complexes I_p -> I_q, its matrices solved for in the bases of I_q.
"""
from typing import Dict, List, Optional

from strathom.blowup import GlobalBlowupComplex
from strathom.exact_algebra import (ChainComplex, ChainMap,
                                    ComplexValidationError, FGModule,
                                    GradedModule, IntMatrix, mapping_cone,
                                    rank_mod_p, smith)
from strathom.exact_algebra.matrices import (kernel_basis, kernel_basis_mod_p,
                                             solve, solve_mod_p)


def allowable_bases(ambient: ChainComplex, allowed: Dict[int, List[int]],
                    ring) -> Dict[int, IntMatrix]:
    """Saturated lattice bases of the allowable subcomplex, per degree and
    in ambient coordinates: on the allowed coordinates of degree k, the
    kernel (over F_p, mod p) of d followed by projection to the banned ones."""
    bases = {}
    for k in ambient.support():
        cols = allowed.get(k, [])
        nxt = set(allowed.get(k + ambient.step, []))
        banned = [i for i in range(ambient.rank(k + ambient.step)) if i not in nxt]
        M = ambient.diff(k).submatrix(banned, cols)
        K = kernel_basis_mod_p(M, ring.p) if ring.kind == "Fp" else kernel_basis(M)
        bases[k] = IntMatrix(ambient.rank(k), K.cols,
                             {(cols[i], j): v for (i, j), v in K.entries.items()})
    return bases


def _factors(m, ring) -> tuple:
    if m.is_zero():
        return ()
    if ring.kind == "Fp":
        return (1,) * rank_mod_p(m, ring.p)
    return smith(m, need_U=False, need_V=False).diagonal


def ranks_and_factors(sub, ring) -> Dict[int, tuple]:
    """Per degree k of the ambient complex: (rank of the lattice I_k,
    invariant factors of d on it, read from the product d.B_k)."""
    bases = allowable_bases(sub.ambient, sub.allowed, ring)
    return {k: (B.cols, _factors(sub.ambient.diff(k) * B, ring))
            for k, B in bases.items()}


def homology(sub, ring, dual: bool = False) -> GradedModule:
    """Homology of the allowable subcomplex ``sub`` over ``ring`` or, with
    ``dual``, the cohomology of Hom(sub, ring): a transpose keeps invariant
    factors, so the dual swaps the maps leaving and entering each degree."""
    split = ranks_and_factors(sub, ring)
    groups = {}
    for k, (rank, out) in split.items():
        into = split.get(k - sub.ambient.step, (0, ()))[1]
        if dual:
            out, into = into, out
        torsion = [d for d in into if d > 1] if ring.kind == "Z" else []
        groups[k] = FGModule.from_factors(rank - len(out) - len(into), torsion)
    return GradedModule(groups)


class Lattice:
    """The saturated bases B_k of the lattices I_k of ``sub`` over its own
    ring, coordinates in them and the induced complex."""

    def __init__(self, sub):
        self.sub = sub
        self.ring = sub.ring
        self.bases = allowable_bases(sub.ambient, sub.allowed, sub.ring)

    def diff(self, k: int) -> IntMatrix:
        """The ambient product d.B_k = B_(k+step).D_k."""
        return self.sub.ambient.diff(k) * self.bases[k]

    def basis_chain(self, k: int, j: int) -> dict:
        """Column j of B_k as {ambient basis label: coefficient}."""
        labels = self.sub.ambient.basis[k]
        return {labels[i]: v for i, v in self.bases[k].column(j).items()}

    def coordinates(self, k: int, vectors: IntMatrix) -> Optional[IntMatrix]:
        """Y with B_k Y = vectors, or None when a column leaves the lattice."""
        B = self.bases.get(k, IntMatrix(vectors.rows, 0))
        if self.ring.kind == "Fp":
            return solve_mod_p(B, vectors, self.ring.p)
        return solve(B, vectors)

    @property
    def complex(self) -> ChainComplex:
        """The induced differentials D_k with d.B_k = B_(k+step).D_k."""
        amb = self.sub.ambient
        ranks = {k: B.cols for k, B in self.bases.items() if B.cols}
        diffs = {}
        for k in ranks:
            Y = self.coordinates(k + amb.step, self.diff(k))
            if Y is None:
                raise ComplexValidationError(
                    f"differential at degree {k} escapes the allowable lattice")
            if not Y.is_zero():
                diffs[k] = Y
        return ChainComplex(amb.orientation, ranks, diffs,
                            modulus=(self.ring.p if self.ring.kind == "Fp" else None))


def relative_complex(X, p, q, ring) -> ChainComplex:
    """The cone of I_p -> I_q on the induced complexes: the inclusion is the
    coordinates of the basis of I_p in that of I_q, checked as a chain map."""
    G = GlobalBlowupComplex(X)
    lp = Lattice(G.intersection_complex(p, ring))
    lq = Lattice(G.intersection_complex(q, ring))
    mats = {}
    for k, Bp in lp.bases.items():
        if Bp.cols == 0:
            continue
        Y = lq.coordinates(k, Bp)
        if Y is None:
            raise ValueError("inclusion of intersection complexes fails")
        mats[k] = Y
    return mapping_cone(ChainMap(lp.complex, lq.complex, mats))
