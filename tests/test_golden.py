"""Golden outputs: ``strathom profile --json`` on a fixed job set must stay
byte-identical.

Each case runs the CLI in process on an input under ``golden/jobs`` and
compares standard output with the file ``golden/<case>.out``.  To record a
new case, run this module as a script (``PYTHONPATH=src python
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


def run_case(name: str) -> bytes:
    job, *opts = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["profile", str(GOLDEN / "jobs" / job), "--json", *opts])
    assert code == 0, (name, code)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_json_is_byte_identical(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        path = GOLDEN / f"{case}.out"
        if not path.exists():
            path.write_bytes(run_case(case))
            print(f"recorded {path.name}", file=sys.stderr)
