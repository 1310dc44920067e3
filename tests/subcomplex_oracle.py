"""The homology of an allowable subcomplex by the basis-and-product route,
kept as the oracle for the fused elimination of ``Subcomplex``.

In each degree k: a saturated basis B_k of the lattice of allowed chains
with allowed differential (``allowable_subcomplex``, a kernel over Z or
mod p), the ambient product d.B_k, which has the invariant factors of the
induced differential because B_(k+step) is saturated, and a diagonal-only
Smith form (over F_p, a rank) of each product.  H_k is then free of rank
n_k - r_out - r_in with the factors above 1 of the entering map as
torsion.  Slow, but every step is plain linear algebra on whole matrices.
"""
from strathom.exact_algebra import (FGModule, GradedModule, allowable_subcomplex,
                                    rank_mod_p, smith)


def _factors(m, ring) -> tuple:
    if m.is_zero():
        return ()
    if ring.kind == "Fp":
        return (1,) * rank_mod_p(m, ring.p)
    return smith(m, need_U=False, need_V=False).diagonal


def homology(sub, ring, dual: bool = False) -> GradedModule:
    """Homology of the allowable subcomplex ``sub`` over ``ring`` or, with
    ``dual``, the cohomology of Hom(sub, ring): a transpose keeps invariant
    factors, so the dual swaps the maps leaving and entering each degree."""
    amb = sub.ambient
    bases = allowable_subcomplex(amb, sub.allowed, ring)
    leaving = {k: _factors(amb.diff(k) * B, ring) for k, B in bases.items()}
    groups = {}
    for k, B in bases.items():
        out, into = leaving[k], leaving.get(k - amb.step, ())
        if dual:
            out, into = into, out
        torsion = [d for d in into if d > 1] if ring.kind == "Z" else []
        groups[k] = FGModule.from_factors(B.cols - len(out) - len(into), torsion)
    return GradedModule(groups)
