"""strathom: exact intersection (co)homology for stratified pseudomanifolds.

Two engines over Z, Q, and prime fields:

* a simplicial engine on filtered complexes (intersection chains, the
  blown-up cochain complex, relative complexes), and
* a closed-form engine for cones, suspensions, isolated singularities,
  mapping tori, and Thom spaces of circle bundles,

meeting in Poincare-duality verdicts: pairing components, the peripheral
cohomology, and the locally-torsion-free condition.
"""

__version__ = "0.1.0"

from . import exact_algebra
from .exact_algebra import (ChainComplex, Coefficients, FGModule,
                            GradedModule, IntMatrix, smith)
from .stratified import (FilteredComplex, GMPerversity, Perversity, Stratum,
                         StratifiedValidationError, manifold_complex)
from .chains import (allowable, intersection_cohomology, intersection_complex,
                     intersection_homology, perverse_degree, regular_boundary)
from .blowup import (blowup_cohomology, blowup_complex, relative_cohomology,
                     relative_complex)
from .spaces import (AtomSpace, DisjointUnion, IntersectionProfile,
                     IsolatedSing, ManifoldAtom, MappingTorus, OpenCone,
                     Suspension, ThomCircle, atom, atom_renamed,
                     circle_bundle_cohomology, eval_cone, eval_expression,
                     eval_isolated, eval_manifold, eval_mapping_torus,
                     eval_suspension, eval_thom_circle, product_atom,
                     relative_suspension)
from .peripheral import (CheckResult, DualityReport, components, peripheral,
                         verdicts)
from .triangulations import triangulation_of

__all__ = [
    "__version__", "exact_algebra",
    "ChainComplex", "Coefficients", "FGModule", "GradedModule", "IntMatrix",
    "smith",
    "FilteredComplex", "GMPerversity", "Perversity", "Stratum",
    "StratifiedValidationError", "manifold_complex",
    "allowable", "intersection_cohomology", "intersection_complex",
    "intersection_homology", "perverse_degree", "regular_boundary",
    "blowup_cohomology", "blowup_complex", "relative_cohomology",
    "relative_complex",
    "AtomSpace", "DisjointUnion", "IntersectionProfile", "IsolatedSing",
    "ManifoldAtom", "MappingTorus", "OpenCone", "Suspension", "ThomCircle",
    "atom", "atom_renamed", "circle_bundle_cohomology", "eval_cone",
    "eval_expression", "eval_isolated", "eval_manifold", "eval_mapping_torus",
    "eval_suspension", "eval_thom_circle", "product_atom",
    "relative_suspension",
    "CheckResult", "DualityReport", "components", "peripheral", "verdicts",
    "triangulation_of",
]
