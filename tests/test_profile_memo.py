"""One closed-form evaluation per command.

A parsed space (``cli.Space``) evaluates each closed-form profile once per
apex value and ring, so a report at a self-dual apex value (Dk = k) reads
one profile as both its own and the complementary one, and a perversity
list evaluates each value once.  The memo lives on the ``Space`` that
``read_space`` returns, never on an expression: equal expressions of two
inputs evaluate twice.  The Thom evaluator builds each cup-with-e map once
per evaluation, and the CLI parser is built once per process.
"""
import argparse
import ast
import copy
import json
import re
from pathlib import Path

import pytest

import strathom.cli as cli
import strathom.spaces as spaces
from strathom.cli import main
from strathom.exact_algebra import Coefficients
from strathom.peripheral import verdicts
from strathom.spaces import ManifoldAtom, circle_bundle_cohomology, eval_expression

ROOT = Path(__file__).resolve().parent.parent
ZZ = Coefficients("Z")
RINGS = (ZZ, Coefficients("Q"), Coefficients("Fp", 2))


def susp(of):
    return {"type": "suspension", "of": of}


def product(*names):
    return {"type": "product", "factors": list(names)}


def thom(base, euler):
    return {"type": "thom_circle", "base": base, "euler": euler}


RP3 = {"type": "atom", "name": "RP3"}
S2 = {"type": "atom", "name": "S2"}
# the closed-form benchmark jobs: (label, space, apex value, n)
JOBS = [
    ("susp-rp3", susp(RP3), 1, 4),
    ("susp-s1s1rp3", susp(product("S1", "S1", "RP3")), 2, 6),
    ("susp-rp3s2", susp(product("RP3", "S2")), 1, 6),
    ("thom-s2", thom(S2, {"s2": 2}), 1, 4),
    ("thom-rp3cp2s1", thom(product("RP3", "CP2", "S1"), {"a": 1, "w": 3}), 4, 10),
    ("thom-s2rp3s3", thom(product("S2", "RP3", "S3"), {"s2": 3, "a": 1}), 4, 10),
    ("mapping-torus", {"type": "mapping_torus",
                       "of": susp(product("S1", "S1", "RP3")),
                       "action": {"3": [[1, -1, 0, 0], [1, 0, 0, 0],
                                        [0, 0, 1, -1], [0, 0, 1, 0]]}}, 2, 7),
    ("susp-t2", susp({"type": "atom", "name": "T2"}), 0, 3),
]
IDS = [job[0] for job in JOBS]


def job_file(tmp_path, space, k):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"space": space, "perversity": k, "ring": "Z"}))
    return str(path)


def counted_evaluations(monkeypatch, record=None):
    """Replace the evaluator the CLI calls by one that counts its calls;
    ``record`` gets (profile, deep copy at evaluation) of each."""
    calls = []

    def counted(expr, k, ring):
        calls.append((k, ring))
        prof = eval_expression(expr, k, ring)
        if record is not None:
            record.append((prof, copy.deepcopy(prof)))
        return prof
    monkeypatch.setattr(cli, "eval_expression", counted)
    return calls


@pytest.mark.parametrize("label,space,k,n", JOBS, ids=IDS)
def test_one_profile_evaluates_each_apex_value_once(tmp_path, capsys, monkeypatch,
                                                    label, space, k, n):
    calls = counted_evaluations(monkeypatch)
    assert main(["profile", job_file(tmp_path, space, k), "--json"]) == 0
    # self-dual (Dk = k, 5 of the 8 jobs): one evaluation, two before the memo
    assert calls == ([(k, ZZ)] if n - 2 - k == k else [(k, ZZ), (n - 2 - k, ZZ)])
    capsys.readouterr()


def test_a_perversity_list_evaluates_each_value_once(tmp_path, capsys, monkeypatch):
    calls = counted_evaluations(monkeypatch)
    path = job_file(tmp_path, susp(RP3), 1)
    assert main(["profile", path, "--json", "--perversity", "0,1,2"]) == 0
    assert sorted(calls) == [(0, ZZ), (1, ZZ), (2, ZZ)]        # 6 before the memo
    capsys.readouterr()


def test_no_profile_is_shared_between_parsed_inputs(monkeypatch):
    calls = counted_evaluations(monkeypatch)
    data = json.loads(json.dumps(susp(RP3)))
    a, b = cli.read_space(data), cli.read_space(data)
    assert a.profile(1, ZZ) is a.profile(1, ZZ)
    assert b.profile(1, ZZ) is not a.profile(1, ZZ)
    assert len(calls) == 2


def test_an_evaluation_that_raises_is_not_kept(monkeypatch):
    calls = counted_evaluations(monkeypatch)
    space = cli.read_space(susp(RP3))
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the GM range"):
            space.profile(7, ZZ)
    assert len(calls) == 2


def reference_report(expr, k, ring):
    """A report from direct evaluations, one per apex value asked for."""
    prof = eval_expression(expr, k, ring)
    dk = prof.n - 2 - k
    try:
        dual = eval_expression(expr, dk, ring) if 0 <= dk <= prof.n - 2 else None
    except ValueError as e:
        return verdicts(prof, no_dual=f"no complementary profile: {e}")
    return verdicts(prof, dual)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("label,space,k,n", JOBS, ids=IDS)
def test_memoised_reports_equal_direct_ones(label, space, k, n, ring):
    parsed = cli.read_space(space)
    for apex in range(n - 1):
        try:
            want = reference_report(parsed.expr, apex, ring)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                cli.symbolic_report(parsed, apex, ring)
            continue
        got = cli.symbolic_report(parsed, apex, ring)
        assert got == want, (label, apex)
        assert cli.report_to_json(got, "") == cli.report_to_json(want, "")


@pytest.mark.parametrize("label,space,k,n", JOBS, ids=IDS)
def test_no_report_path_mutates_a_shared_profile(tmp_path, capsys, monkeypatch,
                                                 label, space, k, n):
    record = []
    counted_evaluations(monkeypatch, record)
    path = job_file(tmp_path, space, k)
    every = ",".join(str(v) for v in range(n - 1))
    for flags in (["--json"], [], ["--json", "--strict"], ["--engine", "both"]):
        main(["profile", path, "--perversity", every] + flags)
        main(["profile", path] + flags)
    capsys.readouterr()
    assert record
    for prof, before in record:
        assert prof == before


def test_two_commands_construct_one_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    cli.build_parser.cache_clear()
    try:
        path = job_file(tmp_path, susp(RP3), 1)
        assert main(["profile", path, "--json"]) == 0
        assert main(["profile", path, "--perversity", "0"]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert built.count("strathom") == 1
    capsys.readouterr()


@pytest.mark.parametrize("label,space,k,n",
                         [job for job in JOBS if job[0].startswith("thom")],
                         ids=[label for label in IDS if label.startswith("thom")])
def test_a_self_dual_thom_evaluation_builds_each_cup_map_once(monkeypatch,
                                                             label, space, k, n):
    assert n - 2 - k == k
    degrees = []
    cup_map = ManifoldAtom.cup_map

    def counted(self, euler, j):
        degrees.append(j)
        return cup_map(self, euler, j)
    monkeypatch.setattr(ManifoldAtom, "cup_map", counted)
    expr = cli.read_space(space).expr
    spaces.eval_thom_circle(expr, k)
    # the critical degrees k - 1 and k, read again at Dk = k
    assert sorted(degrees) == [k - 1, k]
    degrees.clear()
    circle_bundle_cohomology(expr.base, dict(expr.euler))
    assert sorted(degrees) == sorted(set(degrees))


def evaluations_outside_space(tree, module):
    """Line numbers of calls to ``eval_expression`` in ``module`` outside
    the class ``cli.Space``; ``spaces`` itself evaluates sub-expressions."""
    if module == "spaces.py":
        return []
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Space":
            inside.update(id(n) for n in ast.walk(node))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and (getattr(node.func, "id", None) == "eval_expression"
                 or getattr(node.func, "attr", None) == "eval_expression")]


def test_only_space_evaluates_a_parsed_space():
    found = {}
    for path in sorted((ROOT / "src" / "strathom").rglob("*.py")):
        lines = evaluations_outside_space(ast.parse(path.read_text()), path.name)
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert not found
    # the guard sees the one call it allows
    tree = ast.parse((ROOT / "src" / "strathom" / "cli.py").read_text())
    assert not evaluations_outside_space(tree, "cli.py")
    next(n for n in ast.walk(tree) if getattr(n, "name", None) == "Space").name = "Other"
    assert evaluations_outside_space(tree, "cli.py")
