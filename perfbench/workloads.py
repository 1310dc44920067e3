"""The four benchmark workloads: seeded inputs, jobs and result checks.

A workload is built in two steps.  ``make(name, seed, workdir)`` is the
set-up: it generates the inputs from the seed (plain data, or job files
under ``workdir``) and returns the job list.  Each job is
``(label, run, read, expected)``; ``run()`` does what a user pays for one
job, building the complex from the raw input included, and returns its raw
result; ``read(result)``, outside the timed region, turns that into the
observed groups in the form of ``expected``.

The seed permutes vertex ids within each filtration level of the
simplicial inputs (seed 0 keeps them), which moves basis order and the
Smith-normal-form pivot path but not the answer.  For the closed-form
profiles it shuffles the job order (seed 0 is the listed order).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Any, Callable, Dict, List, Tuple

import strathom.cli
from strathom.blowup import blowup_cohomology
from strathom.chains import intersection_cohomology, intersection_homology
from strathom.exact_algebra import Coefficients
from strathom.stratified import FilteredComplex, GMPerversity, Perversity
from strathom.triangulations import (projective_plane, projective_space_3,
                                     torus)

import expected as E

Job = Tuple[str, Callable[[], Any], Callable[[Any], dict], dict]
ZZ = Coefficients("Z")
FIELDS = ((Coefficients("Q"), 0), (Coefficients("Fp", 2), 2),
          (Coefficients("Fp", 3), 3))
GM_VALUES = ((0, 0), (0, 1), (1, 1), (1, 2))


def graded(g) -> dict:
    """GradedModule -> {degree: (rank, torsion)} without zero entries."""
    return {k: (g[k].rank, tuple(g[k].torsion)) for k in g.support()
            if g[k].rank or g[k].torsion}


def field_dims(g) -> dict:
    return {k: (g[k].rank, ()) for k in g.support() if g[k].rank}


def graded_json(d) -> dict:
    """The report's JSON form of a graded group -> the form above."""
    return {int(k): (v["rank"], tuple(v["torsion"])) for k, v in (d or {}).items()
            if v["rank"] or v["torsion"]}


def permuted(X: FilteredComplex, seed: int):
    """Levels and facets of X with vertex ids permuted within each level."""
    rng = random.Random(seed)
    by_level: Dict[int, List[int]] = {}
    for v in sorted(X.levels):
        by_level.setdefault(X.levels[v], []).append(v)
    relabel = {}
    for vs in by_level.values():
        image = list(vs)
        if seed:
            rng.shuffle(image)
        relabel.update(zip(vs, image))
    levels = {relabel[v]: lv for v, lv in X.levels.items()}
    facets = sorted(sorted(relabel[v] for v in s)
                    for s in X.simplices if len(s) == X.n + 1)
    return levels, facets


def apex_perversity(X: FilteredComplex, k: int) -> Perversity:
    return Perversity(X, {st.key: k for st in X.strata() if not st.regular})


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """strathom.cli.main in process; looked up at call time so a traced
    run sees the wrapped entry point."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = strathom.cli.main(argv)
    return code, out.getvalue()


def profile_fields(result: Tuple[int, str], keys) -> dict:
    """The report fields named in ``keys``, in the form of expected.py."""
    code, text = result
    if code != 0:
        return {"exit_code": code}
    data = json.loads(text)
    obs = {"failed_checks": sorted(c["name"] for c in data["checks"]
                                   if c["status"] == "fail")}
    for key in keys:
        if key in ("groups", "dual_cohomology", "blowup_cohomology"):
            obs[key] = graded_json(data[key])
        elif key == "components":
            obs[key] = {nm: graded_json(g) for nm, g in data["components"].items()}
        elif key == "peripheral":
            obs[key] = {int(k): (e["group"]["rank"], tuple(e["group"]["torsion"]))
                        if e["group"] else None
                        for k, e in data["peripheral"].items()}
        elif key == "peripheral_order":
            obs[key] = {int(k): e["order"] for k, e in data["peripheral"].items()}
        elif key == "verdicts":
            obs[key] = data["verdicts"]
    return obs


def check(observed: dict, want: dict) -> List[str]:
    """Mismatches of the observed result against the expected one."""
    bad = []
    for key, value in want.items():
        got = observed.get(key)
        if isinstance(value, dict) and isinstance(got, dict) and key in (
                "components", "verdicts"):
            for sub, v in value.items():
                if got.get(sub) != v:
                    bad.append(f"{key}.{sub}: got {got.get(sub)}, want {v}")
        elif got != value:
            bad.append(f"{key}: got {got}, want {value}")
    return bad


# -- workloads -----------------------------------------------------------

def chains_susp_rp3(seed: int, workdir: str) -> List[Job]:
    levels, facets = permuted(projective_space_3().suspension(), seed)
    jobs = []
    for k in (0, 1, 2):
        want = E.chains_susp_rp3(k)
        for kind, fn in (("homology", intersection_homology),
                         ("cohomology", intersection_cohomology)):
            def run(k=k, fn=fn):
                X = FilteredComplex(4, levels, facets, name="susp(RP3)")
                return fn(X, apex_perversity(X, k), ZZ)

            def read(g, kind=kind):
                return {kind: graded(g)}
            jobs.append((f"{kind} k={k}", run, read, {kind: want[kind]}))
    return jobs


def profile_cone_rp3(seed: int, workdir: str) -> List[Job]:
    levels, facets = permuted(projective_space_3().cone(), seed)
    path = os.path.join(workdir, "cone-rp3.json")
    with open(path, "w") as fh:
        json.dump({"space": {"type": "complex", "dimension": 4, "name": "cone(RP3)",
                             "vertices": [{"id": v, "level": lv}
                                          for v, lv in sorted(levels.items())],
                             "simplices": facets},
                   "perversity": 1, "ring": "Z"}, fh)
    want = dict(E.profile_cone_rp3(), failed_checks=[])

    def run():
        return run_cli(["profile", path, "--json"])
    return [("profile cone(RP3) p=1", run, lambda r: profile_fields(r, want), want)]


def read_field_duality(result) -> dict:
    hb, gh = field_dims(result[0]), field_dims(result[1])
    return {"blowup": hb, "dual": gh, "dims_equal": hb == gh}


def field_duality_susp2(seed: int, workdir: str) -> List[Job]:
    jobs = []
    for name, link in (("RP2", projective_plane), ("T2", torus)):
        levels, facets = permuted(link().suspension().suspension(), seed)
        for a, b in GM_VALUES:
            for ring, char in FIELDS:
                def run(levels=levels, facets=facets, a=a, b=b, ring=ring):
                    X = FilteredComplex(4, levels, facets)
                    p = Perversity.from_gm(X, GMPerversity([0, 0, 0, a, b]))
                    return (blowup_cohomology(X, p, ring),
                            intersection_cohomology(X, p.complementary(), ring))
                want = dict(E.field_duality(name, a, b, char), dims_equal=True)
                jobs.append((f"susp2({name}) gm=({a},{b}) {ring}", run,
                             read_field_duality, want))
    return jobs


def closed_form_profiles(seed: int, workdir: str) -> List[Job]:
    jobs = []
    for label, space, k, want in E.CLOSED_FORM:
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as fh:
            json.dump({"space": space, "perversity": k, "ring": "Z"}, fh)
        want = dict(want, failed_checks=[])

        def run(path=path):
            return run_cli(["profile", path, "--json", "--strict"])
        jobs.append((label, run, lambda r, want=want: profile_fields(r, want), want))
    if seed:
        random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = {
    "chains-susp-rp3": chains_susp_rp3,
    "profile-cone-rp3": profile_cone_rp3,
    "field-duality-susp2": field_duality_susp2,
    "closed-form-profiles": closed_form_profiles,
}
