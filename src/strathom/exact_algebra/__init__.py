"""Exact linear algebra over Z, Q and prime fields.

Smith normal form, finitely generated module arithmetic, Hom/Ext duals,
Künneth products, chain complexes and mapping cones, and the allowable
subcomplexes whose homology one fused elimination reads from invariant
factors.  Saturated kernels and solves stay in ``matrices``, for the
module maps of ``maps`` and ``modules``: no complex needs a lattice basis.
"""
from .matrices import (IntMatrix, SmithDecomposition, random_sparse,
                       rank_mod_p, smith)
from .modules import (Coefficients, ExtensionOutcome, FGModule, GradedModule,
                      QQ, ZZ, ext_dual, hom_dual, kunneth,
                      module_from_relations, tensor_fg, tor_fg,
                      verdier_dual_cohomology, verdier_dual_homology)
from .maps import (CanonicalModule, GradedModuleMap, MapComponents,
                   MapValidationError, ModuleMap, Presentation,
                   canonical_matrix, canonicalize, ker_coker,
                   split_components)
from .complexes import (ChainComplex, ChainMap, ComplexValidationError,
                        Subcomplex, homology, homology_all, mapping_cone)

__all__ = [
    "IntMatrix", "SmithDecomposition", "smith", "rank_mod_p", "random_sparse",
    "Coefficients", "ZZ", "QQ", "FGModule", "GradedModule",
    "ExtensionOutcome", "hom_dual", "ext_dual", "verdier_dual_homology",
    "verdier_dual_cohomology", "kunneth", "tensor_fg", "tor_fg",
    "module_from_relations",
    "Presentation", "ModuleMap", "GradedModuleMap", "MapComponents",
    "MapValidationError", "CanonicalModule", "canonicalize",
    "canonical_matrix", "split_components", "ker_coker",
    "ChainComplex", "ChainMap", "ComplexValidationError", "homology",
    "homology_all", "mapping_cone", "Subcomplex",
]
