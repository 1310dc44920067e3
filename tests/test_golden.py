"""Golden outputs: ``strathom profile --json``, ``strathom validate`` and
``strathom crosscheck`` on a fixed job set, and ``strathom bench-snf
--builtin susp-rp3`` with its time column masked, must stay byte-identical.

Each case runs the CLI in process on an input under ``golden/jobs`` and
compares standard output with the file ``golden/<case>.out``.  The
``validate`` cases print every stratum with its (level, index) key, so they
pin the stratum numbering; the disjoint unions have several strata on every
level.  To record a new case, run this module as a script (``PYTHONPATH=src python
tests/test_golden.py``); it writes the missing ``.out`` files and leaves the
existing ones alone.
"""
import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from strathom.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "complex-susp-rp2-p0": ["complex-susp-rp2.json", "--perversity", "0"],
    "complex-susp-rp2-p1": ["complex-susp-rp2.json", "--perversity", "1"],
    "complex-susp-rp2-p1-F2": ["complex-susp-rp2.json", "--perversity", "1",
                               "--ring", "F2"],
    "susp-t2-both": ["susp-t2.json", "--engine", "both"],
    "thom-s2": ["thom-s2.json"],
    "susp-rp3": ["susp-rp3.json"],
}

VALIDATE_CASES = {
    "validate-susp-rp3": "susp-rp3.json",
    "validate-union-susp-rp2-cone-t2": "union-susp-rp2-cone-t2.json",
    "validate-union-susp2-rp2-t2": "union-susp2-rp2-t2.json",
}

CROSSCHECK_CASES = {
    "crosscheck-complex-susp-rp2": "complex-susp-rp2.json",
    "crosscheck-union-susp-rp2-cone-t2": "union-susp-rp2-cone-t2.json",
    "crosscheck-susp-rp3": "susp-rp3.json",
}

BENCH_CASES = {
    "bench-snf-susp-rp3": ["bench-snf", "--builtin", "susp-rp3"],
}

# the time column of a bench-snf row: 9 characters, right-aligned, three
# decimals, at the end of the row or before its list of factors
TIME = re.compile(r"[ \d]{4}\d\.\d{3}(?=(   \[.*)?$)", re.MULTILINE)


def run_case(name: str) -> bytes:
    if name in BENCH_CASES:
        argv = BENCH_CASES[name]
    elif name in VALIDATE_CASES:
        argv = ["validate", str(GOLDEN / "jobs" / VALIDATE_CASES[name])]
    elif name in CROSSCHECK_CASES:
        argv = ["crosscheck", str(GOLDEN / "jobs" / CROSSCHECK_CASES[name])]
    else:
        job, *opts = CASES[name]
        argv = ["profile", str(GOLDEN / "jobs" / job), "--json", *opts]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (name, code)
    text = out.getvalue()
    if name in BENCH_CASES:
        text = TIME.sub("    -.---", text)
    return text.encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_json_is_byte_identical(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_output_is_byte_identical(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CROSSCHECK_CASES))
def test_crosscheck_output_is_byte_identical(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(BENCH_CASES))
def test_bench_snf_output_is_byte_identical_but_time(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


def test_gcd_elimination_gets_units_only_in_small_module_maps(monkeypatch):
    """The unit phase takes every +-1 pivot, so the gcd elimination sees
    unit-free remainders, except for the module presentations of ``maps``,
    which have at most 16 entries here (10 at most when this was written).
    A caller that sends a large matrix with units down the gcd path fails
    this test instead of running slowly."""
    from strathom.exact_algebra import maps, matrices
    gcd, smith = matrices._gcd_eliminate, maps.smith
    inside, calls = [], []

    def module_smith(*args, **kwargs):
        inside.append(True)
        try:
            return smith(*args, **kwargs)
        finally:
            inside.pop()

    def recorded(rows, U=None, V=None):
        values = [v for r in rows.values() for v in r.values()]
        calls.append((bool(inside), len(values), any(v in (1, -1) for v in values)))
        return gcd(rows, U, V)
    monkeypatch.setattr(maps, "smith", module_smith)
    monkeypatch.setattr(matrices, "_gcd_eliminate", recorded)
    for name in sorted(CASES) + sorted(CROSSCHECK_CASES):
        run_case(name)
    assert {module for module, _, _ in calls} == {False, True}
    for module, size, unit in calls:
        assert not unit or (module and size <= 16), (module, size)


if __name__ == "__main__":
    for case in (sorted(CASES) + sorted(VALIDATE_CASES) + sorted(CROSSCHECK_CASES)
                 + sorted(BENCH_CASES)):
        path = GOLDEN / f"{case}.out"
        if not path.exists():
            path.write_bytes(run_case(case))
            print(f"recorded {path.name}", file=sys.stderr)
