"""Command-line front end.

    strathom profile <file> [--perversity K ...] [--ring Z|Q|Fp] [--engine E] [--json]
    strathom crosscheck <file>
    strathom bench-snf <file ...> | --random R C DENSITY | --builtin susp-rp3
    strathom validate <file>

Input files are JSON: either a constructor expression under "space" or a
raw filtered complex.  Reports are deterministic: identical inputs give
byte-identical JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import __version__
from .exact_algebra import (Coefficients, GradedModule, IntMatrix,
                            homology_all, random_sparse, smith,
                            verdier_dual_cohomology)
from .stratified import (FilteredComplex, GMPerversity, Perversity,
                         StratifiedValidationError)
from .triangulations import has_triangulation, triangulation_of
from .chains import (intersection_cohomology, intersection_complex,
                     regular_complex)
from .blowup import blowup_cohomology
from .spaces import (AtomSpace, DisjointUnion, IsolatedSing, MappingTorus,
                     OpenCone, SpaceExpr, Suspension, ThomCircle, atom,
                     atom_renamed, eval_expression, product_atom)
from .peripheral import CheckResult, DualityReport, verdicts


class InputError(ValueError):
    pass


ENGINES = ("symbolic", "simplicial", "both")


# what a malformed input raises: exit 2 with one line, never a traceback
BAD_INPUT = (KeyError, ValueError)   # InputError and StratifiedValidationError too


# -- input parsing --------------------------------------------------------

_KINDS = {dict: "an object", list: "an array", str: "a string",
          (int, str): "an integer or a string"}


class _Node(dict):
    """A JSON object whose missing field is an input error naming it."""

    def __missing__(self, key):
        raise InputError(f"{self.what} has no field {key!r}")


def _typed(value, kind, what: str):
    """value, which must be of the JSON kind ``kind`` (a key of _KINDS); an
    object is named by its "type" (a space node), else by ``what``."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be {_KINDS[kind]}, not {value!r}")
    if kind is dict:
        value = _Node(value)
        value.what = f"a space node of type {value['type']!r}" if "type" in value else what
    return value


def _int(value, what: str) -> int:
    """An integer field; a numeral string is read, a fraction is refused."""
    if not isinstance(value, bool):
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                return int(value)
    raise InputError(f"{what} must be an integer, not {value!r}")


@dataclass
class Space:
    """A space expression, read once: ``expr`` is its closed form, or None
    and ``no_expr`` says why; ``build`` makes its triangulation, or is None
    and ``no_complex`` says why."""
    expr: Optional[SpaceExpr]
    no_expr: str
    build: Optional[Callable[[], FilteredComplex]]
    no_complex: str

    @functools.cached_property
    def complex(self) -> FilteredComplex:
        """The triangulation, built on first read."""
        return self.build()

    def route(self, engine: str) -> Tuple[bool, bool]:
        """Whether the closed form and the simplicial engine run when
        ``engine`` is asked for: the closed form where there is one and it
        was asked for; the simplicial engine where it was asked for or where
        there is no closed form, and there is a triangulation."""
        if self.expr is None and self.build is None:
            raise InputError(f"{self.no_complex}, and {self.no_expr}")
        return (self.expr is not None and engine in ("symbolic", "both"),
                self.build is not None
                and (engine in ("simplicial", "both") or self.expr is None))


def _closed(node: Space, manifold: str = "") -> SpaceExpr:
    """The closed form of a node under a node that has only a closed form;
    ``manifold`` is the error when it must be a manifold atom or product."""
    if node.expr is None:
        raise InputError(node.no_expr)
    if manifold and not isinstance(node.expr, AtomSpace):
        raise InputError(manifold)
    return node.expr


def read_space(data) -> Space:
    """One pass over a space expression that checks every field of every
    node: a malformed field is an input error at once, a space that one
    engine cannot read is not."""
    data = _typed(data, dict, "a space expression")
    t = data.get("type")
    if t == "complex":
        # relabel to consecutive integers: keeps vertex ordering deterministic
        # and lets the constructors allocate fresh vertices
        vertices = [_typed(v, dict, "a vertex")
                    for v in _typed(data["vertices"], list, "'vertices'")]
        ids = sorted({_typed(v["id"], (int, str), "a vertex id") for v in vertices},
                     key=str)
        relabel = {vid: i for i, vid in enumerate(ids)}
        levels = {relabel[v["id"]]: _int(v["level"], "a level") for v in vertices}

        def number(v, s):
            if _typed(v, (int, str), "a vertex id") not in relabel:
                raise InputError(f"simplex {s} names vertex {v!r}, which is not in 'vertices'")
            return relabel[v]
        simplices = [[number(v, s) for v in _typed(s, list, "a simplex")]
                     for s in _typed(data["simplices"], list, "'simplices'")]
        n = _int(data["dimension"], "'dimension'")
        name = _typed(data.get("name", "complex"), str, "'name'")
        return Space(None, "the raw complex has no closed form",
                     lambda: FilteredComplex(n, levels, simplices, close=True, name=name),
                     "")
    if t == "atom":
        name = _typed(data["name"], str, "an atom name")
        expr = AtomSpace(atom(name))
        if has_triangulation(name):
            return Space(expr, "", functools.partial(triangulation_of, name), "")
        return Space(expr, "", None, f"atom {name!r} has no triangulation")
    if t in ("cone", "suspension"):
        inner = read_space(data["of"])
        expr, no_expr = None, inner.no_expr
        if isinstance(inner.expr, AtomSpace):
            expr = (OpenCone if t == "cone" else Suspension)(inner.expr)
        elif inner.expr is not None:
            no_expr = f"{t} supports manifold links only"
        over = FilteredComplex.cone if t == "cone" else FilteredComplex.suspension
        return Space(expr, no_expr, inner.build and (lambda: over(inner.build())),
                     inner.no_complex)
    if t == "disjoint_union":
        parts = [read_space(p) for p in _typed(data["parts"], list, "'parts'")]
        if not parts:
            raise InputError("'parts' must not be empty")
        no_expr = next((p.no_expr for p in parts if p.expr is None), "")
        no_complex = next((p.no_complex for p in parts if p.build is None), "")

        def build():
            return functools.reduce(FilteredComplex.disjoint_union,
                                    [p.build() for p in parts])
        return Space(None if no_expr else DisjointUnion(tuple(p.expr for p in parts)),
                     no_expr, None if no_complex else build, no_complex)
    # the types below have a closed form only
    if t == "product":
        factors = []
        seen = set()
        for i, f in enumerate(_typed(data["factors"], list, "'factors'")):
            a = atom(_typed(_typed(f, dict, "a product factor")["name"]
                            if isinstance(f, dict) else f, str, "an atom name"))
            if a.name in seen:
                a = atom_renamed(a, chr(ord("b") + i))
            seen.add(a.name)
            factors.append(a)
        expr = AtomSpace(product_atom(*factors))
    elif t == "isolated":
        links = [_closed(read_space(l), "isolated-singularity links must be manifolds").atom
                 for l in _typed(data["links"], list, "'links'")]
        expr = IsolatedSing(_int(data["dimension"], "'dimension'"), tuple(links))
    elif t == "mapping_torus":
        inner = _closed(read_space(data["of"]))
        action = tuple(sorted(
            (_int(deg, "a degree"),
             tuple(tuple(_int(v, "a matrix entry")
                         for v in _typed(row, list, "a matrix row"))
                   for row in _typed(mat, list, "an action matrix")))
            for deg, mat in _typed(data["action"], dict, "'action'").items()))
        expr = MappingTorus(inner, action)
    elif t == "thom_circle":
        base = _closed(read_space(data["base"]),
                       "thom_circle base must be a manifold atom or product")
        euler = tuple(sorted((k, _int(v, "an Euler coefficient"))
                             for k, v in _typed(data["euler"], dict, "'euler'").items()))
        expr = ThomCircle(base.atom, euler)
    else:
        raise InputError(f"unknown space type {data.get('type')!r}")
    return Space(expr, "", None, f"a space node of type {t!r} has no triangulation")


def load_job(path: str) -> Tuple[dict, str]:
    """The job object of a JSON file and the SHA-256 digest of its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: top-level JSON value must be an object")
    if not isinstance(data.get("space", {}), dict):
        raise InputError(f"{path}: \"space\" must be an object")
    return data, hashlib.sha256(raw).hexdigest()


def apex_value(spec) -> int:
    """The closed-form engine's perversity: one apex value."""
    if isinstance(spec, (dict, list)):
        raise InputError(f"cannot parse perversity {spec!r}")
    return _int(spec, "a perversity value")


def perversity_for(X: FilteredComplex, spec) -> Perversity:
    if not isinstance(spec, dict):
        k = apex_value(spec)
        return Perversity(X, {st.key: k for st in X.strata() if not st.regular})
    if "codim" in spec:
        return Perversity.from_codim_values(
            X, {_int(c, "a codimension"): _int(v, "a perversity value")
                for c, v in _typed(spec["codim"], dict, "'codim'").items()})
    if "gm" in spec:
        return Perversity.from_gm(
            X, GMPerversity([_int(v, "a perversity value")
                             for v in _typed(spec["gm"], list, "'gm'")]))
    raise InputError(f"cannot parse perversity {spec!r}")


# -- serialization ---------------------------------------------------------

def graded_to_json(g: Optional[GradedModule]):
    if g is None:
        return None
    return {str(k): {"rank": g[k].rank, "torsion": list(g[k].torsion)}
            for k in g.support()}


def graded_str(g: Optional[GradedModule]) -> str:
    return "-" if g is None else str(g)


def report_to_json(rep: DualityReport, digest: str) -> dict:
    periph = {}
    for k, e in sorted((rep.peripheral or {}).items()):
        entry = {"order": e.order(), "rank": e.rank,
                 "sub": {"rank": e.sub.rank, "torsion": list(e.sub.torsion)},
                 "quot": {"rank": e.quot.rank, "torsion": list(e.quot.torsion)}}
        if e.resolved is not None:
            entry["group"] = {"rank": e.resolved.rank,
                              "torsion": list(e.resolved.torsion)}
        else:
            entry["group"] = None
            entry["note"] = e.note
        periph[str(k)] = entry
    return {
        "tool": "strathom",
        "version": __version__,
        "input_digest": digest,
        "space": rep.space,
        "coefficients": rep.ring,
        "perversity": rep.perversity,
        "groups": graded_to_json(rep.gh_lower) or {},
        "dual_cohomology": graded_to_json(rep.gh_dual),
        "blowup_cohomology": graded_to_json(rep.h_blowup),
        "peripheral": periph,
        "components": {
            "F": graded_to_json(rep.comp_F),
            "T_K": graded_to_json(rep.comp_TK),
            "T_C": graded_to_json(rep.comp_TC),
        },
        "verdicts": {
            "torsion_free_pairing": rep.torsion_free_pairing,
            "torsion_pairing": rep.torsion_pairing,
            "poincare_duality": rep.poincare_duality,
            "locally_torsion_free": rep.locally_torsion_free,
        },
        "checks": [c.as_dict() for c in rep.checks],
        "annotations": rep.annotations,
    }


def print_report_text(rep: DualityReport, out):
    w = out.write
    w(f"space: {rep.space}   (n = {rep.n}, ring {rep.ring})\n")
    w(f"perversity: {rep.perversity}\n")
    if rep.gh_lower is not None:
        w(f"  GH_* : {graded_str(rep.gh_lower)}\n")
    if rep.gh_dual is not None:
        w(f"  GH^*_(Dp) : {graded_str(rep.gh_dual)}\n")
    if rep.h_blowup is not None:
        w(f"  H~^*_p : {graded_str(rep.h_blowup)}\n")
    if rep.peripheral is None:
        w("  peripheral R^*: not computed (simplicial engine)\n")
    elif rep.peripheral:
        w("  peripheral R^*:\n")
        for k, e in sorted(rep.peripheral.items()):
            w(f"    [{k}] {e}\n")
    else:
        w("  peripheral R^* = 0\n")
    for nm, g in (("F", rep.comp_F), ("T_K", rep.comp_TK), ("T_C", rep.comp_TC)):
        if g is not None:
            w(f"  {nm}: {graded_str(g)}\n")
    w("verdicts:\n")
    w(f"  torsion-free pairing: {rep.torsion_free_pairing}\n")
    w(f"  torsion pairing:      {rep.torsion_pairing}\n")
    w(f"  poincare duality:     {rep.poincare_duality}\n")
    w(f"  locally torsion free: {rep.locally_torsion_free}\n")
    for r in rep.ltf_details:
        t = r.torsion if r.torsion is not None else f"order {r.torsion_order}"
        w(f"    {r.stratum}: T GH_{r.critical_degree} = {t}\n")
    w("checks:\n")
    for c in rep.checks:
        w(f"  [{c.status:>7}] {c.name}" + (f" -- {c.detail}" if c.detail else "") + "\n")
    for a in rep.annotations:
        w(f"note: {a}\n")


# -- engines ----------------------------------------------------------------

def symbolic_report(expr: SpaceExpr, k: int, ring: Coefficients) -> DualityReport:
    prof = eval_expression(expr, k, ring)
    dk = prof.n - 2 - k
    try:
        dual_prof = eval_expression(expr, dk, ring) if 0 <= dk <= prof.n - 2 else None
    except ValueError as e:
        return verdicts(prof, no_dual=f"no complementary profile: {e}")
    return verdicts(prof, dual_prof)


def simplicial_report(X: FilteredComplex, pspec, ring: Coefficients,
                      space_name: str) -> DualityReport:
    p = perversity_for(X, pspec)
    ic = intersection_complex(X, p, ring)
    gh = homology_all(ic, ring)
    # Dp = p for the middle perversity of an isolated singularity in even
    # dimension; GH^*_Dp then reads the factors that GH_* already found
    dp = p.complementary()
    ic_dual = ic if dp == p else intersection_complex(X, dp, ring)
    ghd = homology_all(ic_dual.dualize(), ring)
    hb = blowup_cohomology(X, p, ring)
    rep = DualityReport(
        space=space_name, n=X.n, ring=str(ring),
        perversity=str(pspec),
        gh_lower=gh, gh_dual=ghd, h_blowup=hb,
        comp_F=None, comp_TK=None, comp_TC=None,
        peripheral=None,
        torsion_free_pairing="insufficient data",
        torsion_pairing="insufficient data",
        poincare_duality=None, locally_torsion_free=None,
        annotations=["simplicial engine: comparison-map data is symbolic-only"],
    )
    if ring.kind == "Z":
        uct = verdier_dual_cohomology(
            gh if ic_dual is ic else homology_all(ic_dual, ring))
        status = "pass" if uct == ghd else "fail"
        rep.checks.append(CheckResult("universal coefficients on GH^*", status,
                                      "" if status == "pass" else
                                      f"{uct} != {ghd}"))
    return rep


def cmd_profile(args, data: dict, digest: str) -> int:
    space_data = data.get("space", data)
    reports: List[Tuple[str, DualityReport]] = []
    try:
        ring = Coefficients.parse(str(args.ring or data.get("ring", "Z")))
        pspecs = [data.get("perversity", 0)]
        if args.perversity is not None:
            pspecs = [_int(v, "a perversity value")
                      for v in str(args.perversity).split(",")]
        engine = args.engine or data.get("engine", "symbolic")
        if engine not in ENGINES:
            raise InputError(f"'engine' must be 'symbolic', 'simplicial' or 'both', "
                             f"not {engine!r}")
        space = read_space(space_data)
        closed, simplicial = space.route(engine)
        if engine == "simplicial" and not simplicial:
            print("symbolic-only: no simplicial realization", file=sys.stderr)
            return 2
        for pspec in pspecs:
            per_perversity: List[Tuple[str, DualityReport]] = []
            if closed:
                rep = symbolic_report(space.expr, apex_value(pspec), ring)
                if engine == "both" and not simplicial:
                    rep.annotations.append(f"simplicial engine skipped: {space.no_complex}")
                per_perversity.append(("symbolic", rep))
            if simplicial:
                X = space.complex
                name = _typed(space_data.get("name", X.name), str, "'name'")
                per_perversity.append(
                    ("simplicial", simplicial_report(X, pspec, ring, name)))
            if len(per_perversity) == 2:
                _engine_agreement_check(per_perversity[0][1], per_perversity[1][1])
            reports.extend(per_perversity)
    except BAD_INPUT as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failed = any(not rep.passed() for _, rep in reports)
    if args.json:
        payload = [dict(report_to_json(rep, digest), engine=eng)
                   for eng, rep in reports]
        out = payload[0] if len(payload) == 1 else payload
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for eng, rep in reports:
            sys.stdout.write(f"== engine: {eng} ==\n")
            print_report_text(rep, sys.stdout)
    if failed and args.strict:
        return 3
    return 0


def _engine_agreement_check(sym: DualityReport, simp: DualityReport):
    problems = []
    for field, label in (("gh_lower", "GH_*"), ("gh_dual", "GH^*_(Dp)"),
                         ("h_blowup", "H~^*_p")):
        a, b = getattr(sym, field), getattr(simp, field)
        if a is not None and b is not None and a != b:
            problems.append(f"{label}: symbolic {a} vs simplicial {b}")
    status = "fail" if problems else "pass"
    simp.checks.append(CheckResult("engine agreement", status, "; ".join(problems)))


def cmd_validate(args, data: dict, digest: str) -> int:
    try:
        space = read_space(data.get("space", data))
        if not space.route("simplicial")[1]:
            print("symbolic-only expression: nothing to validate simplicially")
            print(f"parsed: {space.expr.name}")
            return 0
        X = space.complex
        X.validate()
    except BAD_INPUT as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    print(f"valid: {X.name}: n={X.n}, {len(X.levels)} vertices, "
          f"{len(X.table)} simplices")
    for st in X.strata():
        print(f"  {st}")
    return 0


def _crosscheck_one(expr: Optional[SpaceExpr], X: FilteredComplex, k: int,
                    out_rows: list) -> bool:
    ok_all = True
    ring = Coefficients("Z")
    gh = hb = None
    if expr is not None:
        prof = eval_expression(expr, k, ring)
        gh, hb = prof.gh_lower, prof.h_blowup
    p = perversity_for(X, k)
    ic = intersection_complex(X, p, ring)
    pairs = [
        ("GH_*", gh, lambda: homology_all(ic, ring)),
        ("GH^*", None if gh is None else verdier_dual_cohomology(gh),
         lambda: homology_all(ic.dualize(), ring)),
        ("H~^*", hb, lambda: blowup_cohomology(X, p, ring)),
    ]
    for name, sym, simplicial in pairs:
        if sym is None:
            out_rows.append((k, name, "skipped", "no symbolic prediction"))
            continue
        simp = simplicial()
        ok = sym == simp
        ok_all &= ok
        out_rows.append((k, name, "pass" if ok else "fail",
                         "" if ok else f"symbolic {sym} vs simplicial {simp}"))
    dp = p.complementary()
    for F in (Coefficients("Q"), Coefficients("Fp", 2), Coefficients("Fp", 3)):
        hb = blowup_cohomology(X, p, F)
        gh = intersection_cohomology(X, dp, F)
        ok = all(hb[j].rank == gh[j].rank
                 for j in set(hb.support()) | set(gh.support()))
        ok_all &= ok
        out_rows.append((k, f"dim H~^*_p(F)=dim GH^*_Dp(F), F={F}",
                         "pass" if ok else "fail",
                         "" if ok else f"{hb} vs {gh}"))
    return ok_all


def cmd_crosscheck(args, data: dict, digest: str) -> int:
    rows: list = []
    ok = True
    try:
        space = read_space(data.get("space", data))
        if not space.route("both")[1]:
            print("symbolic-only: expression has no simplicial realization")
            return 0
        X = space.complex
        ks = ([_int(v, "a perversity value") for v in args.perversity.split(",")]
              if args.perversity else range(max(X.n - 1, 1)))
        for k in ks:
            ok &= _crosscheck_one(space.expr, X, k, rows)
    except BAD_INPUT as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    width = max(len(r[1]) for r in rows)
    for k, name, status, detail in rows:
        line = f"k={k}  {name:<{width}}  {status}"
        if detail:
            line += f"  {detail}"
        print(line)
    print("crosscheck:", "pass" if ok else "FAIL")
    return 0 if ok else 3


def cmd_bench_snf(args) -> int:
    jobs: List[Tuple[str, IntMatrix]] = []
    if args.random:
        r, c, dens = int(args.random[0]), int(args.random[1]), float(args.random[2])
        jobs.append((f"random {r}x{c} d={dens}",
                     random_sparse(r, c, dens, seed=args.seed)))
    if args.builtin:
        if args.builtin == "susp-rp3":
            X = triangulation_of("RP3").suspension()
            for k, m in sorted(regular_complex(X).diffs.items()):
                jobs.append((f"susp(RP3) boundary d_{k}", m))
        else:
            print(f"unknown builtin {args.builtin!r}", file=sys.stderr)
            return 2
    for path in args.files or []:
        try:
            with open(path) as fh:
                jobs.append((path, IntMatrix.parse_triplets(fh.read())))
        except (OSError, ValueError) as e:
            print(f"error reading {path}: {e}", file=sys.stderr)
            return 2
    if not jobs:
        print("nothing to do: give files, --random, or --builtin", file=sys.stderr)
        return 2
    print(f"{'matrix':<28} {'shape':>12} {'nnz':>8} {'rank':>6} "
          f"{'factors>1':>10} {'peak bits':>10} {'time (s)':>9}")
    for name, m in jobs:
        t0 = time.perf_counter()
        sd = smith(m, need_U=False, need_V=False)
        dt = time.perf_counter() - t0
        for a, b in zip(sd.diagonal, sd.diagonal[1:]):
            if b % a:
                print(f"error: {name}: divisibility chain violated: "
                      f"{a} does not divide {b}", file=sys.stderr)
                return 1
        nontriv = [d for d in sd.diagonal if d > 1]
        print(f"{name:<28} {f'{m.rows}x{m.cols}':>12} {m.nnz():>8} "
              f"{sd.rank:>6} {len(nontriv):>10} {sd.peak_bits:>10} {dt:>9.3f}"
              + (f"   {nontriv}" if nontriv else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="strathom",
        description="intersection (co)homology and Poincare-duality verdicts "
                    "for stratified pseudomanifolds, in exact arithmetic")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="full duality report for a space")
    p.add_argument("file")
    p.add_argument("--perversity", default=None,
                   help="apex perversity value(s), comma-separated "
                        "(overrides the input file)")
    p.add_argument("--ring", default=None, help="Z, Q, or Fp (e.g. F2)")
    p.add_argument("--engine", choices=ENGINES,
                   default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when a consistency check fails")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("crosscheck",
                       help="compare symbolic and simplicial engines")
    p.add_argument("file")
    p.add_argument("--perversity", default=None,
                   help="comma-separated apex values (default: all admissible)")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("bench-snf", help="benchmark the diagonal-only Smith form")
    p.add_argument("files", nargs="*")
    p.add_argument("--random", nargs=3, metavar=("ROWS", "COLS", "DENSITY"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--builtin", default=None, help="susp-rp3")
    p.set_defaults(func=cmd_bench_snf)

    p = sub.add_parser("validate", help="validate a filtered complex input")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.func is cmd_bench_snf:
        return cmd_bench_snf(args)
    try:
        job = load_job(args.file)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return args.func(args, *job)
