"""Maps of finitely presented modules: kernels, cokernels, components.

A module is presented as Z^g / (column span of a relation matrix); a map
is an integer matrix on generators compatible with relations.  The
canonicalisation below (via Smith form) is what lets us split a map into
its torsion and free parts exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .matrices import IntMatrix, kernel_basis, smith, solve
from .modules import FGModule, GradedModule, module_from_relations


@dataclass(frozen=True)
class Presentation:
    gens: int
    rels: IntMatrix

    def __post_init__(self):
        if self.rels.rows != self.gens:
            raise ValueError("relation matrix must have one row per generator")

    @classmethod
    def free(cls, n: int) -> "Presentation":
        return cls(n, IntMatrix(n, 0))

    @classmethod
    def of(cls, m: FGModule) -> "Presentation":
        g, rels = m.presentation()
        return cls(g, rels)

    def module(self) -> FGModule:
        return module_from_relations(self.gens, self.rels)


class MapValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ModuleMap:
    """Map between presented modules, given by a matrix on generators."""
    dom: Presentation
    cod: Presentation
    mat: IntMatrix

    def __post_init__(self):
        if self.mat.rows != self.cod.gens or self.mat.cols != self.dom.gens:
            raise ValueError("map matrix shape does not match presentations")
        if self.dom.rels.cols:
            img = self.mat * self.dom.rels
            if solve(self.cod.rels, img) is None:
                raise MapValidationError(
                    "matrix does not send domain relations into codomain relations")

    @classmethod
    def between(cls, dom: FGModule, cod: FGModule, mat) -> "ModuleMap":
        if not isinstance(mat, IntMatrix):
            mat = IntMatrix.from_rows(mat)
        return cls(Presentation.of(dom), Presentation.of(cod), mat)

    @classmethod
    def zero(cls, dom: FGModule, cod: FGModule) -> "ModuleMap":
        d, c = Presentation.of(dom), Presentation.of(cod)
        return cls(d, c, IntMatrix(c.gens, d.gens))

    @classmethod
    def identity(cls, m: FGModule) -> "ModuleMap":
        p = Presentation.of(m)
        return cls(p, p, IntMatrix.identity(p.gens))

    def cokernel(self) -> FGModule:
        return module_from_relations(self.cod.gens, self.mat.hstack(self.cod.rels))

    def kernel(self) -> FGModule:
        """Kernel as an abstract module, by the stacked-presentation trick."""
        K = self.kernel_lattice()
        if K.cols == 0:
            return FGModule.zero()
        if self.dom.rels.cols == 0:
            return FGModule.free(K.cols)
        rel = solve(K, self.dom.rels)
        if rel is None:
            raise MapValidationError("domain relations escape the kernel lattice")
        return module_from_relations(K.cols, rel)

    def kernel_lattice(self) -> IntMatrix:
        """Basis (columns) of {x : mat*x = 0 modulo codomain relations}."""
        stacked = self.mat.hstack(self.cod.rels)
        N = kernel_basis(stacked)
        cols, seen = [], set()
        for j in range(N.cols):
            col = {i: v for i, v in N.column(j).items() if i < self.dom.gens}
            key = tuple(sorted(col.items()))
            if col and key not in seen:
                seen.add(key)
                cols.append(col)
        gen_mat = IntMatrix.from_columns(cols, self.dom.gens)
        return _column_span_basis(gen_mat)

    def ker_coker(self) -> Tuple[FGModule, FGModule]:
        return self.kernel(), self.cokernel()

    def is_iso(self) -> bool:
        k, c = self.ker_coker()
        return k.is_zero and c.is_zero


def ker_coker(f: ModuleMap) -> Tuple[FGModule, FGModule]:
    return f.ker_coker()


def _column_span_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the lattice spanned by the columns of ``m``: the first rank
    columns of m*V, which are U^-1*D for the Smith form U*m*V = D."""
    if m.cols == 0:
        return m
    sd = smith(m, need_U=False, need_V=True)
    return (m * sd.V).submatrix(range(m.rows), range(sd.rank))


@dataclass(frozen=True)
class CanonicalModule:
    """Canonical coordinates of a presented module.

    ``orders[i]`` is the annihilator of canonical generator i (0 = free);
    ``proj`` maps old generator coordinates to canonical ones.
    """
    module: FGModule
    orders: Tuple[int, ...]
    proj: IntMatrix
    lift: IntMatrix    # canonical -> old coordinates (proj * lift = id mod orders)


def canonicalize(pres: Presentation) -> CanonicalModule:
    sd = smith(pres.rels, need_U=True, need_V=False)
    diag = sd.diagonal
    keep = [i for i, d in enumerate(diag) if d > 1]
    free = list(range(len(diag), pres.gens))
    rows = keep + free
    orders = tuple([diag[i] for i in keep] + [0] * len(free))
    proj = sd.U.submatrix(rows, range(pres.gens))
    Uinv = solve(sd.U, IntMatrix.identity(pres.gens))
    lift = Uinv.submatrix(range(pres.gens), rows)
    factors = [diag[i] for i in keep]
    module = FGModule.from_factors(len(free), factors)
    return CanonicalModule(module, orders, proj, lift)


def canonical_matrix(f: ModuleMap) -> Tuple[CanonicalModule, CanonicalModule, IntMatrix]:
    """The matrix of f in canonical coordinates of domain and codomain."""
    cd = canonicalize(f.dom)
    cc = canonicalize(f.cod)
    mat = cc.proj * f.mat * cd.lift
    # reduce torsion rows modulo their annihilators for readability
    ent = {}
    for (i, j), v in mat.entries.items():
        d = cc.orders[i]
        vv = v % d if d else v
        if vv:
            ent[(i, j)] = vv
    return cd, cc, IntMatrix(mat.rows, mat.cols, ent)


@dataclass(frozen=True)
class MapComponents:
    """Torsion/free split of a map of f.g. modules."""
    kernel: FGModule
    cokernel: FGModule
    ker_T: FGModule        # Ker of the torsion restriction
    coker_T: FGModule      # Coker of the torsion restriction
    coker_F: FGModule      # Coker of the induced map on free quotients
    free_matrix: IntMatrix  # induced map on free quotients


def split_components(f: ModuleMap) -> MapComponents:
    """Restrict to torsion submodules and project to free quotients.

    The free-part map of any map that becomes an isomorphism over the
    fraction field is injective, forcing its cokernel to be torsion; the
    caller is expected to check injectivity where the theory demands it.
    """
    cd, cc, A = canonical_matrix(f)
    td = [i for i, d in enumerate(cd.orders) if d]
    fd = [i for i, d in enumerate(cd.orders) if not d]
    tc = [i for i, d in enumerate(cc.orders) if d]
    fc = [i for i, d in enumerate(cc.orders) if not d]
    # torsion generators must land in torsion: integral free rows vanish
    for (i, j), v in A.entries.items():
        if j in set(td) and i in set(fc) and v:
            raise MapValidationError("torsion generator maps to a free coordinate")
    A_T = A.submatrix(tc, td)
    A_F = A.submatrix(fc, fd)
    dom_T = Presentation(len(td), IntMatrix(len(td), len(td),
                                            {(i, i): cd.orders[t] for i, t in enumerate(td)}))
    cod_T = Presentation(len(tc), IntMatrix(len(tc), len(tc),
                                            {(i, i): cc.orders[t] for i, t in enumerate(tc)}))
    f_T = ModuleMap(dom_T, cod_T, A_T)
    ker_T, coker_T = f_T.ker_coker()
    coker_F = module_from_relations(len(fc), A_F)
    kern, coker = f.ker_coker()
    return MapComponents(kern, coker, ker_T, coker_T, coker_F, A_F)


def subgroup_presentation(ambient: Presentation, gens: IntMatrix
                          ) -> Tuple[Presentation, ModuleMap]:
    """The subgroup of the presented module generated by the given columns
    (in ambient generator coordinates), with its inclusion map.

    Relations of the subgroup are the kernel lattice of gens as a map from
    a free module: the x with gens*x inside the ambient relation lattice.
    """
    if gens.rows != ambient.gens:
        raise ValueError("generator columns must live in ambient coordinates")
    rels = ModuleMap(Presentation.free(gens.cols), ambient, gens).kernel_lattice()
    pres = Presentation(gens.cols, rels)
    return pres, ModuleMap(pres, ambient, gens)


def connecting_map(sub_small: IntMatrix, sub_big: IntMatrix,
                   ambient: Presentation) -> IntMatrix:
    """Matrix expressing generators of one subgroup in terms of a subgroup
    containing it, modulo the ambient relations."""
    stacked = sub_big.hstack(ambient.rels)
    sol = solve(stacked, sub_small)
    if sol is None:
        raise MapValidationError("claimed subgroup containment fails")
    return sol.submatrix(range(sub_big.cols), range(sub_small.cols))


@dataclass
class GradedModuleMap:
    """Degree-wise family of module maps with a fixed degree shift."""
    maps: Dict[int, ModuleMap] = field(default_factory=dict)
    shift: int = 0
    domain: Optional[GradedModule] = None
    codomain: Optional[GradedModule] = None

    def __post_init__(self):
        if self.domain is None:
            self.domain = GradedModule({k: m.dom.module() for k, m in self.maps.items()})
        if self.codomain is None:
            self.codomain = GradedModule(
                {k + self.shift: m.cod.module() for k, m in self.maps.items()})

    def map_at(self, k: int) -> ModuleMap:
        if k in self.maps:
            return self.maps[k]
        return ModuleMap.zero(self.domain[k], self.codomain[k + self.shift])

    def degrees(self):
        ds = set(self.maps) | set(self.domain.support())
        ds |= {k - self.shift for k in self.codomain.support()}
        return sorted(ds)
