"""Pairing verdicts and duality checks from comparison-map data.

The comparison map between blown-up cohomology and the dual of chains
splits into torsion and free parts; its kernel and the two cokernels
decide whether the torsion-free and torsion pairings of a compact
oriented perverse pseudomanifold are non-singular.  The peripheral
cohomology collects the same data as a mapping cone; its vanishing is
equivalent to integral Poincare duality.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .exact_algebra import (ExtensionOutcome, FGModule, GradedModule,
                            GradedModuleMap)
from .exact_algebra.maps import split_components
from .spaces import IntersectionProfile

NON_SINGULAR = "non-singular"
SINGULAR = "singular"
DEGENERATE = "degenerate"
INSUFFICIENT = "insufficient data"


def components(chi: GradedModuleMap) -> Tuple[GradedModule, GradedModule, GradedModule]:
    """(F, T_K, T_C): cokernel on free parts, kernel and cokernel on
    torsion parts, degreewise.  The free-part map of a rational
    isomorphism is injective, which forces F to be torsion; a free rank in
    F therefore flags inconsistent input."""
    F, TK, TC = {}, {}, {}
    for k in chi.degrees():
        comp = split_components(chi.map_at(k))
        if comp.coker_F.rank:
            raise ValueError(
                f"free comparison cokernel has rank in degree {k}: "
                "the map cannot be a rational isomorphism")
        if not comp.coker_F.is_zero:
            F[k] = comp.coker_F
        if not comp.ker_T.is_zero:
            TK[k] = comp.ker_T
        if not comp.coker_T.is_zero:
            TC[k] = comp.coker_T
    return GradedModule(F), GradedModule(TK), GradedModule(TC)


def peripheral(chi: GradedModuleMap) -> Dict[int, ExtensionOutcome]:
    """Degreewise extension 0 -> Coker chi^k -> R^k -> Ker chi^{k+1} -> 0."""
    cokers, kers = {}, {}
    for k in chi.degrees():
        kk, cc = chi.map_at(k).ker_coker()
        if not kk.is_zero:
            kers[k] = kk
        if not cc.is_zero:
            cokers[k] = cc
    out = {}
    for k in sorted(set(cokers) | {d - 1 for d in kers}):
        e = ExtensionOutcome.of(cokers.get(k, FGModule.zero()),
                                kers.get(k + 1, FGModule.zero()))
        if not e.is_zero():
            out[k] = e
    return out


@dataclass
class CheckResult:
    name: str
    status: str            # "pass" | "fail" | "skipped"
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class DualityReport:
    """Everything the engine can say about one perverse space."""
    space: str
    n: int
    ring: str
    perversity: str
    gh_lower: Optional[GradedModule]
    gh_dual: Optional[GradedModule]
    h_blowup: Optional[GradedModule]
    comp_F: Optional[GradedModule]
    comp_TK: Optional[GradedModule]
    comp_TC: Optional[GradedModule]
    peripheral: Optional[Dict[int, ExtensionOutcome]]   # None: not computed
    torsion_free_pairing: str
    torsion_pairing: str
    poincare_duality: Optional[bool]
    locally_torsion_free: Optional[bool]
    checks: List[CheckResult] = field(default_factory=list)
    annotations: List[str] = field(default_factory=list)
    ltf_details: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _order(m: Optional[FGModule]) -> Optional[int]:
    if m is None:
        return None
    return m.order()


def verdicts(profile: IntersectionProfile,
             dual_profile: Optional[IntersectionProfile] = None,
             no_dual: str = "complementary profile not supplied") -> DualityReport:
    """Fill the pairing verdicts and run the duality check suite.

    ``dual_profile`` is the same space evaluated at the complementary
    perversity; without it the cross-perversity checks are skipped, with
    ``no_dual`` as the reason.
    """
    periph = dict(profile.peripheral)
    pd = all(e.is_zero() or (e.order() == 1) for e in periph.values())
    # verdicts from the components, where present
    if profile.comp_F is not None:
        tf = NON_SINGULAR if profile.comp_F.is_zero() else SINGULAR
    elif pd:
        tf = NON_SINGULAR
    else:
        tf = INSUFFICIENT
    if profile.comp_TK is not None and profile.comp_TC is not None:
        tors = NON_SINGULAR if (profile.comp_TK.is_zero()
                                and profile.comp_TC.is_zero()) else DEGENERATE
    elif profile.comp_TC is not None and not profile.comp_TC.is_zero():
        tors = DEGENERATE
    elif pd:
        tors = NON_SINGULAR
    else:
        tors = INSUFFICIENT
    report = DualityReport(
        space=profile.name, n=profile.n, ring=str(profile.ring),
        perversity=profile.perversity_desc,
        gh_lower=profile.gh_lower, gh_dual=profile.gh_dual,
        h_blowup=profile.h_blowup,
        comp_F=profile.comp_F, comp_TK=profile.comp_TK, comp_TC=profile.comp_TC,
        peripheral=periph,
        torsion_free_pairing=tf, torsion_pairing=tors,
        poincare_duality=pd,
        locally_torsion_free=profile.locally_torsion_free(),
        annotations=list(profile.annotations),
        ltf_details=list(profile.ltf or []),
    )
    checks = report.checks

    # order bookkeeping: |R^k| = |Coker chi^k| * |Ker chi^{k+1}|
    if profile.coker_chi is not None and profile.ker_chi is not None:
        ok = True
        detail = []
        zero = ExtensionOutcome.of(FGModule.zero(), FGModule.zero())
        degrees = set(periph) | set(profile.coker_chi.support()) \
            | {d - 1 for d in profile.ker_chi.support()}
        for k in sorted(degrees):
            e = periph.get(k, zero)
            lhs = e.order()
            rhs_c = _order(profile.coker_chi[k])
            rhs_k = _order(profile.ker_chi[k + 1])
            if lhs is None or rhs_c is None or rhs_k is None:
                ok = False
                detail.append(f"degree {k}: non-torsion entry")
                continue
            if lhs != rhs_c * rhs_k:
                ok = False
                detail.append(f"degree {k}: |R|={lhs} != {rhs_c}*{rhs_k}")
        checks.append(CheckResult("peripheral order bookkeeping",
                                  "pass" if ok else "fail", "; ".join(detail)))
    else:
        checks.append(CheckResult("peripheral order bookkeeping", "skipped",
                                  "kernel/cokernel data unavailable"))

    # exact-sequence balance: |R^k| / |TC^k| = |F^k| * |TK^{k+1}|
    if profile.has_components and profile.comp_TK is not None:
        ok = True
        detail = []
        degrees = set(periph) | set(profile.comp_TC.support()) \
            | set(profile.comp_F.support()) \
            | {d - 1 for d in profile.comp_TK.support()}
        for k in sorted(degrees):
            r = periph.get(k)
            r_ord = r.order() if r else 1
            tc = _order(profile.comp_TC[k]) or 1
            f = _order(profile.comp_F[k]) or 1
            tk = _order(profile.comp_TK[k + 1]) or 1
            if r_ord is None or r_ord % tc != 0 or r_ord // tc != f * tk:
                ok = False
                detail.append(f"degree {k}: |R|/|TC| = {r_ord}/{tc} != {f}*{tk}")
        checks.append(CheckResult("component sequence balance",
                                  "pass" if ok else "fail", "; ".join(detail)))
    else:
        checks.append(CheckResult("component sequence balance", "skipped",
                                  "components unavailable"))

    # coherence: duality <=> both pairings non-singular <=> R = 0
    if tf != INSUFFICIENT and tors != INSUFFICIENT:
        coherent = (pd == (tf == NON_SINGULAR and tors == NON_SINGULAR))
        checks.append(CheckResult("verdict coherence",
                                  "pass" if coherent else "fail",
                                  f"duality={pd}, torsion-free={tf}, torsion={tors}"))
    else:
        checks.append(CheckResult("verdict coherence", "skipped",
                                  "pairing verdicts undetermined"))

    # locally torsion free is sufficient for duality, never necessary; the
    # implication needs Poincare duality of the links, so an orientation
    if report.locally_torsion_free is None:
        checks.append(CheckResult("locally-torsion-free implies duality", "skipped",
                                  "no link data"))
    elif not profile.oriented:
        checks.append(CheckResult("locally-torsion-free implies duality", "skipped",
                                  "space not oriented"))
    elif report.locally_torsion_free and not pd:
        checks.append(CheckResult("locally-torsion-free implies duality", "fail",
                                  "locally torsion free but peripheral nonzero"))
    else:
        note = ("converse not asserted: duality holds without the local "
                "condition" if pd and report.locally_torsion_free is False else "")
        checks.append(CheckResult("locally-torsion-free implies duality",
                                  "pass", note))

    if dual_profile is not None:
        _cross_perversity_checks(report, profile, dual_profile)
    else:
        for name in ("torsion component duality", "peripheral self-duality",
                     "free/torsion cohomology duality"):
            checks.append(CheckResult(name, "skipped", no_dual))
    return report


def _outcomes_match(a: ExtensionOutcome, b: ExtensionOutcome) -> bool:
    if a.order() != b.order() or a.rank != b.rank:
        return False
    if a.resolved is not None and b.resolved is not None:
        return a.resolved == b.resolved
    if a.resolved is not None:
        return b.consistent_with(a.resolved)
    if b.resolved is not None:
        return a.consistent_with(b.resolved)
    return True     # both ambiguous: orders and ranks agree


def _cross_perversity_checks(report: DualityReport, prof: IntersectionProfile,
                             dual: IntersectionProfile):
    checks = report.checks
    n = prof.n
    if prof.n != dual.n:
        raise ValueError("profiles of different dimensions")
    if not prof.oriented:
        for name in ("torsion component duality", "peripheral self-duality",
                     "free/torsion cohomology duality"):
            checks.append(CheckResult(name, "skipped", "space not oriented"))
        return

    # T_K^k(p) vs T_C^{n+1-k}(Dp)
    if prof.comp_TK is not None and dual.comp_TC is not None:
        ok = True
        detail = []
        degrees = set(prof.comp_TK.support()) | {n + 1 - d
                                                 for d in dual.comp_TC.support()}
        for k in sorted(degrees):
            a = prof.comp_TK[k]
            b = dual.comp_TC[n + 1 - k]
            if a != b:
                ok = False
                detail.append(f"T_K^{k} = {a} vs T_C^{n + 1 - k}(Dp) = {b}")
        checks.append(CheckResult("torsion component duality",
                                  "pass" if ok else "fail", "; ".join(detail)))
    else:
        checks.append(CheckResult("torsion component duality", "skipped",
                                  "components unavailable"))

    # R^k(p) vs R^{n-k}(Dp), modulo recorded extension ambiguity
    ok = True
    detail = []
    degrees = set(prof.peripheral) | {n - d for d in dual.peripheral}
    for k in sorted(degrees):
        a = prof.peripheral_group(k)
        b = dual.peripheral_group(n - k)
        if not _outcomes_match(a, b):
            ok = False
            detail.append(f"R^{k}(p) = {a} vs R^{n - k}(Dp) = {b}")
    checks.append(CheckResult("peripheral self-duality",
                              "pass" if ok else "fail", "; ".join(detail)))

    # Theorem-A consequence: F GH^k_p = F H~^{n-k}_p, T GH^k_p = T H~^{n-k+1}_p.
    # GH^*_p is the dual profile's linear-dual cohomology (at D(Dp) = p).
    gh_p = dual.gh_dual
    hb_p = prof.h_blowup
    if gh_p is None or hb_p is None or not (prof.graded_complete
                                            and dual.graded_complete):
        checks.append(CheckResult("free/torsion cohomology duality", "skipped",
                                  "graded groups unavailable or partial"))
    else:
        ok = True
        detail = []
        degrees = set(gh_p.support()) | {n - d for d in hb_p.support()} \
            | {n + 1 - d for d in hb_p.support()}
        for k in sorted(degrees):
            if gh_p[k].rank != hb_p[n - k].rank:
                ok = False
                detail.append(f"free rank GH^{k} = {gh_p[k].rank} vs "
                              f"H~^{n - k} = {hb_p[n - k].rank}")
            if gh_p[k].torsion != hb_p[n - k + 1].torsion:
                ok = False
                detail.append(f"torsion GH^{k} = {gh_p[k].torsion_part()} vs "
                              f"H~^{n - k + 1} = {hb_p[n - k + 1].torsion_part()}")
        checks.append(CheckResult("free/torsion cohomology duality",
                                  "pass" if ok else "fail", "; ".join(detail)))
