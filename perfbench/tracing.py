"""Outside-in tracing of strathom's layers.

``Tracer.install`` replaces the public functions and methods listed in
TARGETS with timing wrappers at run time, so nothing under ``src/``
changes.  A function is replaced in every ``strathom.*`` namespace that
holds it, because modules import each other by name.  Spans (name,
start, end, parent, run id) stay in memory until the run ends; self
time and counts are derived from them.  Tiny hot helpers such as
``IntMatrix.column`` are deliberately not wrapped.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _smith_attrs(args, kwargs, out):
    return {"nnz_in": args[0].nnz(), "peak_bits": out.peak_bits}


def _basis_attrs(args, kwargs, out):
    return {"basis_size": sum(len(b) for b in args[0].basis.values())}


# (module, class or None, attribute, span name, attribute recorder)
TARGETS = [
    ("stratified", "FilteredComplex", "__init__", "stratified.FilteredComplex", None),
    ("stratified", "FilteredComplex", "maximal_simplices",
     "stratified.maximal_simplices", None),
    ("chains", None, "intersection_complex", "chains.intersection_complex", None),
    ("blowup", "GlobalBlowupComplex", "__init__", "blowup.GlobalBlowupComplex",
     _basis_attrs),
    ("blowup", "GlobalBlowupComplex", "differential", "blowup.differential", None),
    ("blowup", "GlobalBlowupComplex", "full_complex", "blowup.full_complex", None),
    ("blowup", "GlobalBlowupComplex", "allowed_indices", "blowup.allowed_indices", None),
    ("blowup", "BlowupIntersection", "__init__", "blowup.BlowupIntersection", None),
    ("exact_algebra.matrices", None, "smith", "exact_algebra.smith", _smith_attrs),
    ("exact_algebra.matrices", None, "kernel_basis", "exact_algebra.kernel_basis", None),
    ("exact_algebra.matrices", None, "solve", "exact_algebra.solve", None),
    ("exact_algebra.matrices", None, "kernel_basis_mod_p",
     "exact_algebra.kernel_basis_mod_p", None),
    ("exact_algebra.matrices", None, "solve_mod_p", "exact_algebra.solve_mod_p", None),
    ("exact_algebra.matrices", None, "rank_mod_p", "exact_algebra.rank_mod_p", None),
    ("exact_algebra.complexes", None, "homology_all", "exact_algebra.homology_all", None),
    ("spaces", None, "eval_expression", "spaces.eval_expression", None),
    ("peripheral", None, "verdicts", "peripheral.verdicts", None),
    ("cli", None, "main", "cli.main", None),
]

# Per-layer metrics, each the median over the run's passes of its value in
# one pass: self time (s), calls, or a size recorded on the span.  They are
# the per_layer list of BENCHMARK.json, less trace.wall_s (added by run.py).
# A metric sums the span values named in PARTS, or else the one of its own
# name.  README.md says which end-to-end metric each should move.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"] != "trace.wall_s"}
PARTS = {
    "blowup.basis_size": ["blowup.GlobalBlowupComplex.basis_size"],
    "exact_algebra.mod_p.self_s": ["exact_algebra.kernel_basis_mod_p.self_s",
                                   "exact_algebra.solve_mod_p.self_s",
                                   "exact_algebra.rank_mod_p.self_s"],
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, run id, attributes]; the run id
        # is (pass number, job label), shared by the spans of one job
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.run_id: Optional[tuple] = None

    def call(self, name: str, fn: Callable, args=(), kwargs=None, attrs=None):
        kwargs = kwargs or {}
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            rec[5] = attrs(args, kwargs, out)
        return out

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def install(self):
        for modname, clsname, attr, name, attrs in TARGETS:
            mod = importlib.import_module(f"strathom.{modname}")
            if clsname is not None:
                cls = getattr(mod, clsname)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr), attrs))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, attrs)
            for holder in list(sys.modules.values()):
                if (getattr(holder, "__name__", "").split(".")[0] == "strathom"
                        and getattr(holder, attr, None) is orig):
                    setattr(holder, attr, wrapped)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """PER_LAYER from the spans: the median over passes."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_pass: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, run, attrs) in enumerate(self.spans):
            m = per_pass[run[0]]
            m[f"{name}.self_s"] += end - start - child[i]
            m[f"{name}.calls"] += 1
            for key, value in (attrs or {}).items():
                k = f"{name}.{key}"
                m[k] = max(m[k], value) if key == "peak_bits" else m[k] + value
        out = {}
        for metric, unit in PER_LAYER.items():
            parts = PARTS.get(metric, [metric])
            value = statistics.median(sum(m[p] for p in parts) for m in per_pass.values())
            out[metric] = (value if unit == "s" else int(value), unit)
        return out
