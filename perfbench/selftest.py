"""The benchmark's own tests.

    python3 perfbench/selftest.py        (about a minute)

They run the real command in child processes: traced and untraced runs
give the same groups, two seeds give the same groups, a corrupted
expected group is a failure with a non-zero exit, and a directory
without the strathom sources exits non-zero without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, trace, root=ROOT, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=200)
    digest = next((line.split("groups digest ")[1] for line in proc.stdout.splitlines()
                   if "groups digest " in line), None)
    return proc, digest


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SameGroups(unittest.TestCase):
    def check_same(self, workload, runs):
        digests = set()
        for seed, trace in runs:
            proc, digest = bench(workload, seed, trace)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertTrue(result(proc)["correct"])
            digests.add(digest)
        self.assertEqual(len(digests), 1, digests)

    def test_closed_form_traced_untraced_and_seeds(self):
        self.check_same("closed-form-profiles", [(0, 0), (0, 1), (5, 0)])

    def test_chains_traced_untraced_and_seeds(self):
        self.check_same("chains-susp-rp3", [(1, 0), (1, 1), (2, 0)])


class Failures(unittest.TestCase):
    def setUp(self):
        work = HERE / ".work"
        work.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=work))
        shutil.copytree(HERE, self.tmp / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_corrupted_expected_group_fails(self):
        shutil.copytree(ROOT / "src", self.tmp / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        exp = self.tmp / "perfbench" / "expected.py"
        text = exp.read_text()
        good = '"T_K": {3: _tors(2)}'
        self.assertIn(good, text)
        exp.write_text(text.replace(good, '"T_K": {3: _tors(4)}'))
        proc, _ = bench("closed-form-profiles", 0, 0, root=self.tmp)
        self.assertNotEqual(proc.returncode, 0)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertIn("FAILED", proc.stdout)

    def test_no_sources_exits_without_result(self):
        proc, _ = bench("closed-form-profiles", 0, 0, root=self.tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
