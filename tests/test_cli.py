"""CLI: parsing, reports, determinism, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strathom.chains as chains
import strathom.cli as cli
from strathom.chains import intersection_complex
from strathom.cli import main
from strathom.exact_algebra import Coefficients
from strathom.stratified import FilteredComplex
from strathom.triangulations import triangulation_of


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def susp_rp3(tmp_path):
    return write(tmp_path, "s.json", {
        "space": {"type": "suspension", "of": {"type": "atom", "name": "RP3"}},
        "perversity": 1, "ring": "Z"})


@pytest.fixture
def cone_rp2(tmp_path):
    return write(tmp_path, "c.json", {
        "space": {"type": "cone", "of": {"type": "atom", "name": "RP2"}},
        "perversity": 1})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_line_error(code, err):
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture
def susp_rp2(tmp_path):
    return write(tmp_path, "s2.json", {
        "space": {"type": "suspension", "of": {"type": "atom", "name": "RP2"}}})


# the raw complex of the README: the cone on a triangle's boundary
README_COMPLEX = {
    "type": "complex", "dimension": 2,
    "vertices": [{"id": 0, "level": 0}, {"id": 1, "level": 2},
                 {"id": 2, "level": 2}, {"id": 3, "level": 2}],
    "simplices": [[0, 1, 2], [0, 2, 3], [0, 1, 3]]}

# a raw complex for the boundary of a triangle, to nest in constructors
RAW_CIRCLE = {"type": "complex", "dimension": 1,
              "vertices": [{"id": i, "level": 1} for i in range(3)],
              "simplices": [[0, 1], [1, 2], [0, 2]]}


S1 = {"type": "atom", "name": "S1"}


def raw_space(X):
    """A filtered complex as the raw complex of a job file."""
    return {"type": "complex", "dimension": X.n,
            "vertices": [{"id": v, "level": lv} for v, lv in sorted(X.levels.items())],
            "simplices": [sorted(m) for m in X.maximal_simplices()]}


@pytest.fixture
def unknown_atom(tmp_path):
    return write(tmp_path, "bad.json", {"space": {"type": "atom", "name": "K3"}})


class TestProfile:
    def test_text_report(self, susp_rp3, capsys):
        code, out, _ = run(capsys, "profile", susp_rp3)
        assert code == 0
        assert "torsion-free pairing: non-singular" in out
        assert "torsion pairing:      degenerate" in out
        assert "locally torsion free: False" in out

    def test_json_report_schema(self, susp_rp3, capsys):
        code, out, _ = run(capsys, "profile", susp_rp3, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["space"] == "susp(RP3)"
        assert data["coefficients"] == "Z"
        assert data["verdicts"]["torsion_free_pairing"] == "non-singular"
        assert data["verdicts"]["torsion_pairing"] == "degenerate"
        assert data["verdicts"]["poincare_duality"] is False
        assert data["components"]["T_K"] == {"3": {"rank": 0, "torsion": [2]}}
        assert data["components"]["T_C"] == {"2": {"rank": 0, "torsion": [2]}}
        assert data["peripheral"]["2"]["order"] == 4
        assert {c["name"] for c in data["checks"]} >= {
            "peripheral order bookkeeping", "verdict coherence"}
        assert "version" in data and "input_digest" in data

    def test_json_deterministic(self, susp_rp3, capsys):
        _, out1, _ = run(capsys, "profile", susp_rp3, "--json")
        _, out2, _ = run(capsys, "profile", susp_rp3, "--json")
        assert out1 == out2

    def test_sphere_trivial_profile(self, tmp_path, capsys):
        f = write(tmp_path, "sp.json", {
            "space": {"type": "suspension", "of": {"type": "atom", "name": "S3"}},
            "perversity": 1})
        code, out, _ = run(capsys, "profile", f, "--json")
        data = json.loads(out)
        assert data["peripheral"] == {}
        assert data["verdicts"]["poincare_duality"] is True

    def test_engine_both_merges(self, cone_rp2, capsys):
        code, out, _ = run(capsys, "profile", cone_rp2, "--engine", "both")
        assert code == 0
        assert "engine: symbolic" in out and "engine: simplicial" in out

    def test_nested_raw_complex_goes_to_the_simplicial_engine(self, tmp_path, capsys):
        f = write(tmp_path, "cx.json", {"space": {"type": "cone", "of": RAW_CIRCLE}})
        code, out, err = run(capsys, "profile", f)
        assert code == 0 and err == ""
        assert "== engine: simplicial ==" in out and "engine: symbolic" not in out

    def test_raw_complex_beside_an_untriangulated_part_is_input_error(self, tmp_path,
                                                                      capsys):
        f = write(tmp_path, "ux.json", {"space": {"type": "disjoint_union", "parts": [
            {"type": "cone", "of": RAW_CIRCLE},
            {"type": "cone", "of": {"type": "atom", "name": "K3"}}]}})
        for command in ("profile", "validate", "crosscheck"):
            code, out, err = run(capsys, command, f)
            assert_one_line_error(code, err)
            assert "'K3'" in err and "'complex'" not in err and out == "", command

    def test_simplicial_text_report_does_not_claim_zero_peripheral(self, tmp_path, capsys):
        f = write(tmp_path, "sr.json", {
            "space": {"type": "suspension", "of": {"type": "atom", "name": "RP2"}},
            "perversity": 1})
        code, out, _ = run(capsys, "profile", f, "--engine", "both")
        symbolic, simplicial = out.split("== engine: simplicial ==")
        assert code == 0
        assert "  peripheral R^*:\n    [2] Z/2 + Z/2\n" in symbolic
        assert "  peripheral R^*: not computed (simplicial engine)\n" in simplicial
        assert "peripheral R^* = 0" not in out

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("engine", ["foo", 3, ["both"]], ids=["string", "int", "list"])
    def test_bad_engine_field_is_input_error(self, tmp_path, capsys, engine, flags):
        f = write(tmp_path, "en.json", {
            "space": {"type": "cone", "of": {"type": "atom", "name": "RP2"}},
            "engine": engine})
        code, out, err = run(capsys, "profile", f, *flags)
        assert_one_line_error(code, err)
        assert err == (f"error: 'engine' must be 'symbolic', 'simplicial' or 'both', "
                       f"not {engine!r}\n") and out == ""

    def test_unknown_atom_is_validation_error(self, tmp_path, capsys):
        f = write(tmp_path, "bad.json", {
            "space": {"type": "atom", "name": "K3"}})
        code, _, err = run(capsys, "profile", f)
        assert code == 2 and "K3" in err

    @pytest.mark.parametrize("command", ["profile", "validate", "crosscheck"])
    def test_top_level_array_is_input_error(self, tmp_path, capsys, command):
        f = write(tmp_path, "arr.json", [{"type": "atom", "name": "S2"}])
        code, out, err = run(capsys, command, f)
        assert_one_line_error(code, err)
        assert "must be an object" in err and out == ""

    @pytest.mark.parametrize("command", ["profile", "validate", "crosscheck"])
    @pytest.mark.parametrize("space", [3, None, [{"type": "atom", "name": "S2"}]],
                             ids=["int", "null", "list"])
    def test_non_object_space_is_input_error(self, tmp_path, capsys, command, space):
        f = write(tmp_path, "sp.json", {"space": space})
        code, out, err = run(capsys, command, f)
        assert_one_line_error(code, err)
        assert '"space" must be an object' in err and out == ""

    @pytest.mark.parametrize("command", ["profile", "validate", "crosscheck"])
    @pytest.mark.parametrize("space", [
        {"type": "cone", "of": 3}, {"type": "cone", "of": [1]},
        {"type": "disjoint_union", "parts": [3]}],
        ids=["cone-of-int", "cone-of-list", "union-of-int"])
    def test_nested_non_object_space_is_input_error(self, tmp_path, capsys,
                                                    command, space):
        f = write(tmp_path, "nested.json", {"space": space, "perversity": 1})
        code, out, err = run(capsys, command, f)
        assert_one_line_error(code, err)
        assert "must be an object" in err and out == ""

    @pytest.mark.parametrize("command", ["profile", "validate", "crosscheck"])
    @pytest.mark.parametrize("space", [
        {"type": "disjoint_union", "parts": 3},
        {"type": "complex", "dimension": 2, "vertices": [3], "simplices": [[3]]},
        {"type": "mapping_torus",
         "of": {"type": "suspension", "of": {"type": "atom", "name": "S2"}},
         "action": 3},
        {"type": "thom_circle", "base": {"type": "atom", "name": "S2"}, "euler": 3},
        {"type": "cone", "of": {"type": "atom", "name": ["RP2"]}},
        {"type": "complex", "dimension": 2,
         "vertices": [{"id": 0, "level": 2}], "simplices": [0]},
        {"type": "disjoint_union", "parts": []},
        {"type": "complex", "dimension": 2,
         "vertices": [{"id": 0, "level": 0.5}, {"id": 1, "level": 2},
                      {"id": 2, "level": 2}, {"id": 3, "level": 2}],
         "simplices": [[0, 1, 2], [0, 2, 3], [0, 1, 3]]},
        {"type": "isolated", "dimension": True,
         "links": [{"type": "atom", "name": "RP3"}]},
        {"type": "complex", "name": [3], "dimension": 2,
         "vertices": [{"id": 0, "level": 0}, {"id": 1, "level": 2},
                      {"id": 2, "level": 2}, {"id": 3, "level": 2}],
         "simplices": [[0, 1, 2], [0, 2, 3], [0, 1, 3]]}],
        ids=["union-parts-int", "complex-vertex-int", "torus-action-int",
             "thom-euler-int", "atom-name-list", "complex-simplex-int",
             "union-parts-empty", "complex-level-fraction", "isolated-dimension-bool",
             "complex-name-list"])
    def test_wrongly_typed_field_is_input_error(self, tmp_path, capsys,
                                                command, space):
        f = write(tmp_path, "typed.json", {"space": space, "perversity": 1})
        code, out, err = run(capsys, command, f)
        assert_one_line_error(code, err)
        assert "must" in err and out == ""

    @pytest.mark.parametrize("command", ["profile", "validate", "crosscheck"])
    @pytest.mark.parametrize("space,message", [
        ({"type": "cone"}, "a space node of type 'cone' has no field 'of'"),
        ({"type": "complex", "dimension": 2, "simplices": []},
         "a space node of type 'complex' has no field 'vertices'"),
        ({"type": "complex", "dimension": 2, "vertices": [{"id": 0}], "simplices": []},
         "a vertex has no field 'level'"),
        ({"type": "product", "factors": [{}]},
         "a product factor has no field 'name'"),
        ({"type": "mapping_torus", "of": {"type": "atom", "name": "S1"},
          "action": {"x": [[1]]}}, "a degree must be an integer, not 'x'")],
        ids=["cone-without-of", "complex-without-vertices", "vertex-without-level",
             "factor-without-name", "torus-action-degree-x"])
    def test_missing_field_and_non_numeral_are_named(self, tmp_path, capsys,
                                                     command, space, message):
        f = write(tmp_path, "named.json", {"space": space, "perversity": 1})
        code, out, err = run(capsys, command, f)
        assert_one_line_error(code, err)
        assert err.endswith(f": {message}\n") and out == ""

    @pytest.mark.parametrize("engine", ["symbolic", "simplicial", "both"])
    def test_list_perversity_is_input_error(self, tmp_path, capsys, engine):
        f = write(tmp_path, "pl.json", {
            "space": {"type": "suspension", "of": {"type": "atom", "name": "RP2"}},
            "perversity": [1]})
        code, out, err = run(capsys, "profile", f, "--engine", engine)
        assert_one_line_error(code, err)
        assert err == "error: cannot parse perversity [1]\n" and out == ""

    @pytest.mark.parametrize("engine,space,perversity", [
        ("symbolic", {"type": "cone", "of": {"type": "atom", "name": "S2"}}, True),
        ("symbolic", {"type": "cone", "of": {"type": "atom", "name": "S2"}}, 1.5),
        ("simplicial", {"type": "cone", "of": {"type": "atom", "name": "S2"}}, True),
        ("simplicial", {"type": "cone", "of": {"type": "atom", "name": "S2"}}, 1.5),
        ("simplicial", README_COMPLEX, True)],
        ids=["symbolic-bool", "symbolic-fraction", "simplicial-bool",
             "simplicial-fraction", "complex-bool"])
    def test_non_integer_perversity_is_input_error(self, tmp_path, capsys, engine,
                                                   space, perversity):
        f = write(tmp_path, "pb.json", {"space": space, "perversity": perversity})
        code, out, err = run(capsys, "profile", f, "--engine", engine)
        assert_one_line_error(code, err)
        assert err == f"error: a perversity value must be an integer, not {perversity!r}\n"
        assert out == ""

    @pytest.mark.parametrize("perversity", [{"codim": 3}, {"codim": {"2": [1]}},
                                            {"gm": 3}, {"gm": [[1]]}],
                             ids=["codim-int", "codim-value-list", "gm-int",
                                  "gm-value-list"])
    def test_wrongly_typed_perversity_is_input_error(self, tmp_path, capsys,
                                                     perversity):
        f = write(tmp_path, "pv.json", {
            "space": {"type": "cone", "of": {"type": "atom", "name": "RP2"}},
            "perversity": perversity})
        code, out, err = run(capsys, "profile", f, "--engine", "simplicial")
        assert_one_line_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("ring", ["F4", "F", "R"])
    def test_bad_ring_in_file_is_input_error(self, tmp_path, capsys, ring):
        f = write(tmp_path, "r.json", {
            "space": {"type": "suspension", "of": {"type": "atom", "name": "RP2"}},
            "ring": ring})
        code, out, err = run(capsys, "profile", f)
        assert_one_line_error(code, err)
        assert out == ""

    def test_bad_ring_option_is_input_error(self, susp_rp2, capsys):
        code, _, err = run(capsys, "profile", susp_rp2, "--ring", "F4")
        assert_one_line_error(code, err)
        assert "not prime" in err

    def test_bad_perversity_option_is_input_error(self, susp_rp2, capsys):
        code, _, err = run(capsys, "profile", susp_rp2, "--perversity", "x")
        assert_one_line_error(code, err)

    @pytest.mark.parametrize("command", ["profile", "crosscheck"])
    def test_non_numeral_perversity_option_is_named(self, susp_rp2, capsys, command):
        code, _, err = run(capsys, command, susp_rp2, "--perversity", "0,x")
        assert_one_line_error(code, err)
        assert err.endswith(": a perversity value must be an integer, not 'x'\n")

    def test_parse_error_reported_with_position(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{ not json")
        code, _, err = run(capsys, "profile", str(p))
        assert code == 2 and ":" in err

    @pytest.mark.parametrize("kind", ["cone", "suspension"])
    def test_local_torsion_check_skipped_when_not_oriented(self, tmp_path, capsys,
                                                           kind):
        # the apex link RP2 has T GH_0 = 0 but T H^2 = Z/2: without
        # Poincare duality of the link the implication does not apply
        f = write(tmp_path, "rp2.json", {
            "space": {"type": kind, "of": {"type": "atom", "name": "RP2"}},
            "perversity": 1})
        code, out, _ = run(capsys, "profile", f, "--strict", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verdicts"]["locally_torsion_free"] is True
        checks = {c["name"]: c for c in data["checks"]}
        assert checks["locally-torsion-free implies duality"] == {
            "name": "locally-torsion-free implies duality",
            "status": "skipped", "detail": "space not oriented"}

    @pytest.mark.parametrize("link", ["S2", "RP3"])
    def test_local_torsion_check_runs_when_oriented(self, tmp_path, capsys, link):
        f = write(tmp_path, "o.json", {
            "space": {"type": "suspension", "of": {"type": "atom", "name": link}},
            "perversity": 1})
        code, out, _ = run(capsys, "profile", f, "--strict", "--json")
        assert code == 0
        checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert checks["locally-torsion-free implies duality"] == "pass"

    def test_ring_override(self, susp_rp3, capsys):
        code, out, _ = run(capsys, "profile", susp_rp3, "--ring", "F2", "--json")
        data = json.loads(out)
        assert data["coefficients"] == "F2"
        assert data["peripheral"] == {}

    def test_missing_complementary_profile_gives_its_reason(self, tmp_path, capsys):
        # Dp = 3 lies outside the GM range 0..2 of the cone on RP3
        f = write(tmp_path, "mt.json", {
            "space": {"type": "mapping_torus",
                      "of": {"type": "cone", "of": {"type": "atom", "name": "RP3"}},
                      "action": {"2": [[1]]}},
            "perversity": 0})
        code, out, _ = run(capsys, "profile", f, "--json")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("torsion component duality", "peripheral self-duality",
                     "free/torsion cohomology duality"):
            assert checks[name]["status"] == "skipped"
            assert checks[name]["detail"] == ("no complementary profile: apex "
                                              "perversity value 3 outside the GM range 0..2")

    def test_mapping_torus_input(self, tmp_path, capsys):
        f = write(tmp_path, "mt.json", {
            "space": {
                "type": "mapping_torus",
                "of": {"type": "suspension",
                       "of": {"type": "product",
                              "factors": ["S1", "S1", "RP3"]}},
                "action": {"3": [[1, -1, 0, 0], [1, 0, 0, 0],
                                 [0, 0, 1, -1], [0, 0, 1, 0]]},
            },
            "perversity": 2})
        code, out, _ = run(capsys, "profile", f, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verdicts"]["poincare_duality"] is True
        assert data["verdicts"]["locally_torsion_free"] is False


class TestValidate:
    def test_valid_complex_file(self, tmp_path, capsys):
        f = write(tmp_path, "x.json", {
            "type": "complex", "dimension": 2,
            "vertices": [{"id": 0, "level": 0}, {"id": 1, "level": 2},
                         {"id": 2, "level": 2}, {"id": 3, "level": 2}],
            "simplices": [[0, 1, 2], [0, 2, 3], [0, 1, 3]]})
        code, out, _ = run(capsys, "validate", f)
        assert code == 0 and "valid" in out

    def test_invalid_complex(self, tmp_path, capsys):
        f = write(tmp_path, "bad.json", {
            "type": "complex", "dimension": 2,
            "vertices": [{"id": 0, "level": 2}, {"id": 1, "level": 2},
                         {"id": 2, "level": 2}, {"id": 9, "level": 2}],
            "simplices": [[0, 1, 2], [9]]})
        code, _, err = run(capsys, "validate", f)
        assert code == 2 and "maximal simplex" in err

    def test_constructor_input(self, cone_rp2, capsys):
        code, out, _ = run(capsys, "validate", cone_rp2)
        assert code == 0 and "codim 3" in out

    def test_unknown_atom_is_input_error(self, unknown_atom, capsys):
        code, out, err = run(capsys, "validate", unknown_atom)
        assert_one_line_error(code, err)
        assert "K3" in err and out == ""

    def test_symbolic_only(self, tmp_path, capsys):
        f = write(tmp_path, "t.json", {
            "space": {"type": "thom_circle",
                      "base": {"type": "atom", "name": "S2"},
                      "euler": {"s2": 2}}})
        code, out, _ = run(capsys, "validate", f)
        assert code == 0 and "symbolic-only" in out


class TestCrosscheck:
    def test_cone_rp2(self, cone_rp2, capsys):
        code, out, _ = run(capsys, "crosscheck", cone_rp2)
        assert code == 0
        assert "crosscheck: pass" in out
        assert "fail" not in out

    def test_symbolic_only_status(self, tmp_path, capsys):
        f = write(tmp_path, "mt.json", {
            "space": {"type": "thom_circle",
                      "base": {"type": "atom", "name": "S2"},
                      "euler": {"s2": 2}}})
        code, out, _ = run(capsys, "crosscheck", f)
        assert code == 0 and "symbolic-only" in out

    def test_raw_complex(self, tmp_path, capsys):
        f = write(tmp_path, "x.json", {"space": README_COMPLEX,
                                       "perversity": {"codim": {"2": 0}}})
        code, out, err = run(capsys, "crosscheck", f)
        assert code == 0 and err == ""
        rows = out.splitlines()
        assert rows[-1] == "crosscheck: pass"
        for name in ("GH_*", "GH^*", "H~^*"):
            assert any(r.split()[1] == name and r.endswith("skipped  no symbolic prediction")
                       for r in rows), name
        for F in ("Q", "F2", "F3"):
            assert any(f"F={F}" in r and r.split()[-1] == "pass" for r in rows), F

    def test_nested_raw_complex(self, tmp_path, capsys):
        f = write(tmp_path, "sx.json", {"space": {"type": "suspension", "of": RAW_CIRCLE}})
        code, out, err = run(capsys, "crosscheck", f)
        assert code == 0 and err == ""
        rows = out.splitlines()
        assert rows[-1] == "crosscheck: pass"
        assert sum(r.endswith("skipped  no symbolic prediction") for r in rows) == 3
        assert sum(r.split()[-1] == "pass" for r in rows[:-1]) == 3

    def test_dual_is_the_complementary_perversity(self, tmp_path, capsys):
        # the line of cone(cone(S1)) has codimension 2, not n = 3: its dual
        # value is -k, where one apex value n - 2 - k would give 1 - k
        X = triangulation_of("S1").cone().cone()
        f = write(tmp_path, "cc.json", {"space": raw_space(X)})
        code, out, err = run(capsys, "crosscheck", f)
        rows = out.splitlines()
        assert code == 0 and err == "" and rows[-1] == "crosscheck: pass"
        assert [r.split()[0] for r in rows if r.endswith("  pass")] == ["k=0"] * 3 + ["k=1"] * 3

    def test_perversity_out_of_range_is_input_error(self, susp_rp2, capsys):
        code, out, err = run(capsys, "crosscheck", susp_rp2, "--perversity", "7")
        assert_one_line_error(code, err)
        assert "value 7 outside" in err and out == ""

    def test_unknown_atom_is_input_error(self, unknown_atom, capsys):
        code, out, err = run(capsys, "crosscheck", unknown_atom)
        assert_one_line_error(code, err)
        assert "K3" in err and "symbolic-only" not in out


class TestBenchSnf:
    def test_random(self, capsys):
        code, out, _ = run(capsys, "bench-snf", "--random", "30", "40", "0.1")
        assert code == 0 and "random 30x40" in out

    def test_identity_file(self, tmp_path, capsys):
        p = tmp_path / "id.mtx"
        p.write_text("3 3\n0 0 1\n1 1 1\n2 2 1\n")
        code, out, _ = run(capsys, "bench-snf", str(p))
        assert code == 0
        line = [l for l in out.splitlines() if "id.mtx" in l][0]
        assert " 3 " in line        # rank 3

    def test_unreadable_input(self, capsys):
        code, _, err = run(capsys, "bench-snf", "/nonexistent/file.mtx")
        assert code == 2

    def test_builtin_suspension_boundaries(self, capsys):
        import time
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "bench-snf", "--builtin", "susp-rp3")
        assert code == 0
        assert time.perf_counter() - t0 < 60.0
        lines = [l for l in out.splitlines() if "susp(RP3)" in l]
        assert len(lines) == 4
        # the degree-3 boundary carries the 2-torsion of the suspension
        assert any("[2]" in l for l in lines)

    def test_broken_divisibility_chain_exits_1(self, monkeypatch, capsys):
        import strathom.cli
        from strathom.exact_algebra import IntMatrix, SmithDecomposition

        def bad_smith(m, need_U=True, need_V=True):
            return SmithDecomposition(m, (2, 3), None, None)
        monkeypatch.setattr(strathom.cli, "smith", bad_smith)
        code, out, err = run(capsys, "bench-snf", "--random", "4", "4", "0.5")
        assert code == 1
        assert err == ("error: random 4x4 d=0.5: divisibility chain violated: "
                       "2 does not divide 3\n")
        assert "random 4x4" not in out

    def test_asks_for_no_transform(self, monkeypatch, capsys):
        import strathom.cli
        from strathom.exact_algebra import smith
        asked = []

        def recorded(m, need_U=True, need_V=True):
            asked.append((need_U, need_V))
            return smith(m, need_U, need_V)
        monkeypatch.setattr(strathom.cli, "smith", recorded)
        code, out, _ = run(capsys, "bench-snf", "--random", "30", "20", "0.2")
        assert code == 0 and "random 30x20" in out
        assert asked == [(False, False)]


@pytest.mark.parametrize("atom_name,p,builds", [("RP3", 1, 1), ("RP2", 0, 2)],
                         ids=["cone(RP3)-Dp=p", "cone(RP2)-Dp!=p"])
def test_report_builds_one_intersection_complex_when_dp_is_p(
        monkeypatch, atom_name, p, builds):
    calls = []

    def counted(X, perversity, ring):
        calls.append(perversity)
        return intersection_complex(X, perversity, ring)
    # chains' own helpers build through their module's name
    monkeypatch.setattr(cli, "intersection_complex", counted)
    monkeypatch.setattr(chains, "intersection_complex", counted)
    X = triangulation_of(atom_name).cone()
    rep = cli.simplicial_report(X, p, Coefficients("Z"), f"cone({atom_name})")
    assert len(calls) == builds
    checks = {c.name: c.status for c in rep.checks}
    assert checks["universal coefficients on GH^*"] == "pass"


def test_crosscheck_builds_one_integer_complex_per_perversity(monkeypatch, cone_rp2,
                                                             capsys):
    integer = []

    def counted(X, perversity, ring):
        if ring.kind == "Z":
            integer.append(perversity)
        return intersection_complex(X, perversity, ring)
    monkeypatch.setattr(cli, "intersection_complex", counted)
    monkeypatch.setattr(chains, "intersection_complex", counted)
    code, out, _ = run(capsys, "crosscheck", cone_rp2, "--perversity", "0,1")
    assert code == 0 and "crosscheck: pass" in out
    assert len(integer) == 2


def test_python_dash_m_runs_the_command(cone_rp2):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "strathom", "validate", cone_rp2],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("valid: cone(RP2")


def test_profile_builds_the_triangulation_once(monkeypatch, susp_rp2, capsys):
    built = []

    def counted(name):
        built.append(name)
        return triangulation_of(name)
    monkeypatch.setattr(cli, "triangulation_of", counted)
    code, out, _ = run(capsys, "profile", susp_rp2, "--engine", "simplicial",
                       "--perversity", "0,1,2")
    assert code == 0 and out.count("== engine: simplicial ==") == 3
    assert built == ["RP2"]


def test_closed_form_profile_builds_no_complex(monkeypatch, susp_rp3, capsys):
    built = []
    init = FilteredComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(FilteredComplex, "__init__", counted)
    code, out, _ = run(capsys, "profile", susp_rp3, "--json", "--strict")
    assert code == 0 and json.loads(out)["space"] == "susp(RP3)"
    assert built == []


GOLDEN_JOBS = Path(__file__).resolve().parent / "golden" / "jobs"
CONE_CONE_S1 = {"type": "cone", "of": {"type": "cone", "of": S1}}
SUSP_S1_S1 = {"type": "suspension", "of": {"type": "disjoint_union", "parts": [S1, S1]}}


@pytest.mark.parametrize("job", ["golden", "cone(cone(S1))", "susp(S1+S1)"])
def test_simplicial_only_spaces_run_every_subcommand(tmp_path, capsys, job):
    f = (str(GOLDEN_JOBS / "union-susp2-rp2-t2.json") if job == "golden" else
         write(tmp_path, "so.json", {"space": CONE_CONE_S1 if job.startswith("cone")
                                     else SUSP_S1_S1}))
    for argv in (["profile"], ["profile", "--engine", "both"], ["crosscheck"]):
        code, out, err = run(capsys, argv[0], f, *argv[1:])
        assert code == 0 and err == "", argv
        assert "engine: symbolic" not in out
    assert out.endswith("crosscheck: pass\n")


# each space with the one line all three subcommands exit 2 with, or None
AGREEMENT = {
    "cone(cone(S1))": (CONE_CONE_S1, None),
    "susp(S1+S1)": (SUSP_S1_S1, None),
    "cone(RP2)": ({"type": "cone", "of": {"type": "atom", "name": "RP2"}}, None),
    "thom(S2)": ({"type": "thom_circle", "base": {"type": "atom", "name": "S2"},
                  "euler": {"s2": 2}}, None),
    "cone(cone(CP2))": (
        {"type": "cone", "of": {"type": "cone", "of": {"type": "atom", "name": "CP2"}}},
        "atom 'CP2' has no triangulation, and cone supports manifold links only"),
    "cone(raw)+cone(CP2)": (
        {"type": "disjoint_union", "parts": [
            {"type": "cone", "of": RAW_CIRCLE},
            {"type": "cone", "of": {"type": "atom", "name": "CP2"}}]},
        "atom 'CP2' has no triangulation, and the raw complex has no closed form"),
}


@pytest.mark.parametrize("name", AGREEMENT)
def test_subcommands_agree_on_what_they_read(tmp_path, capsys, name):
    space, message = AGREEMENT[name]
    f = write(tmp_path, "ag.json", {"space": space})
    done = {command: run(capsys, command, f)
            for command in ("profile", "validate", "crosscheck")}
    for command, (code, out, err) in done.items():
        if message is None:
            assert code in (0, 3) and err == "", command
        else:
            assert (code, out) == (2, ""), command
            assert err.split(": ", 1)[1] == message + "\n", command
    crosscheck = done["crosscheck"][1].splitlines()
    integer = [r for r in crosscheck if r.split()[1:2] in (["GH_*"], ["GH^*"], ["H~^*"])]
    if message is None and cli.read_space(space).expr is None:
        assert integer and all(r.endswith("  skipped  no symbolic prediction")
                               for r in integer)


@pytest.mark.parametrize("command", ["profile", "validate", "crosscheck"])
def test_simplex_with_an_unknown_vertex_names_it(tmp_path, capsys, command):
    f = write(tmp_path, "mv.json", {"space": {
        "type": "complex", "dimension": 1,
        "vertices": [{"id": 0, "level": 1}, {"id": 1, "level": 1}],
        "simplices": [[0, 1], [1, 7]]}})
    code, out, err = run(capsys, command, f)
    assert_one_line_error(code, err)
    assert out == ""
    assert err.split(": ", 1)[1] == \
        "simplex [1, 7] names vertex 7, which is not in 'vertices'\n"


@pytest.mark.parametrize("name", ["product S2xS1", "thom(S2)"])
def test_engine_both_says_when_the_simplicial_engine_is_skipped(tmp_path, capsys, name):
    space, reason = (
        ({"type": "product", "factors": ["S2", "S1"]},
         "a space node of type 'product' has no triangulation")
        if name.startswith("product") else
        (AGREEMENT["thom(S2)"][0], "a space node of type 'thom_circle' has no triangulation"))
    f = write(tmp_path, "both.json", {"space": space})
    note = f"simplicial engine skipped: {reason}"
    code, out, err = run(capsys, "profile", f, "--engine", "both")
    assert code == 0 and err == ""
    assert "== engine: simplicial ==" not in out
    assert f"note: {note}\n" in out
    code, out, _ = run(capsys, "profile", f, "--engine", "both", "--json")
    assert code == 0 and note in json.loads(out)["annotations"]
    # asked for the closed form alone, nothing was skipped
    code, out, _ = run(capsys, "profile", f, "--json")
    assert code == 0 and note not in json.loads(out)["annotations"]


@pytest.mark.parametrize("name", ["raw complex", "cone(cone(S1))"])
def test_engine_both_says_when_the_closed_form_is_skipped(tmp_path, capsys, name):
    space, reason = (
        (README_COMPLEX, "the raw complex has no closed form")
        if name == "raw complex" else
        ({"type": "cone", "of": {"type": "cone", "of": {"type": "atom", "name": "S1"}}},
         "cone supports manifold links only"))
    f = write(tmp_path, "both.json", {"space": space})
    note = f"closed form skipped: {reason}"
    code, out, err = run(capsys, "profile", f, "--engine", "both")
    assert code == 0 and err == ""
    assert "== engine: symbolic ==" not in out
    assert f"note: {note}\n" in out
    code, out, _ = run(capsys, "profile", f, "--engine", "both", "--json")
    assert code == 0 and note in json.loads(out)["annotations"]
    # asked for the simplicial engine alone, nothing was skipped
    code, out, _ = run(capsys, "profile", f, "--engine", "simplicial", "--json")
    assert code == 0 and note not in json.loads(out)["annotations"]
