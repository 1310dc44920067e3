"""Golden outputs: ``strathom profile --json``, ``strathom validate`` and
``strathom crosscheck`` on a fixed job set must stay byte-identical.

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


def run_case(name: str) -> bytes:
    if name in VALIDATE_CASES:
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
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_json_is_byte_identical(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_output_is_byte_identical(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CROSSCHECK_CASES))
def test_crosscheck_output_is_byte_identical(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES) + sorted(VALIDATE_CASES) + sorted(CROSSCHECK_CASES):
        path = GOLDEN / f"{case}.out"
        if not path.exists():
            path.write_bytes(run_case(case))
            print(f"recorded {path.name}", file=sys.stderr)
