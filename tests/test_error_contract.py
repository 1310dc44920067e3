"""The error contract of the CLI under generated input.

Space trees of the nine node types (depth <= 2) whose fields are valid,
missing, or replaced by a JSON value of the wrong type, with a top-level
``perversity`` and ``ring`` drawn the same way, go through ``profile
--json``, ``validate`` and ``crosscheck`` in process.  Every run must end
with exit 0, 2 or 3 and no escaping exception, and an exit 2 with exactly
one line on stderr.  The examples are derandomised and bounded; atoms are
those with small triangulations, one without a triangulation (CP2) and
unknown names.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from strathom.cli import main

MISSING = object()
WRONG = st.sampled_from([None, True, 3, -1, 1.5, "x", "", [], [3], ["S1"], {},
                         {"type": "atom"}])


def field(valid):
    return st.one_of(valid, valid, valid, st.just(MISSING), WRONG)


def node(kind: str, **fields):
    return st.fixed_dictionaries({"type": st.just(kind), **fields}).map(
        lambda d: {k: v for k, v in d.items() if v is not MISSING})


NAMES = st.sampled_from(["S1", "S2", "T2", "RP2", "CP2", "K3", "s1"])
MATRIX = st.integers(1, 2).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
# the cone on a triangle's boundary
VERTICES = [{"id": 0, "level": 0}, {"id": 1, "level": 2}, {"id": 2, "level": 2},
            {"id": 3, "level": 2}]
SIMPLICES = [[0, 1, 2], [0, 2, 3], [0, 1, 3]]


def leaves():
    return st.one_of(
        node("atom", name=field(NAMES)),
        node("product", factors=field(st.lists(NAMES, min_size=1, max_size=2))),
        node("complex", dimension=field(st.integers(1, 3)),
             vertices=field(st.just(VERTICES)), simplices=field(st.just(SIMPLICES)),
             name=st.one_of(st.just(MISSING), st.just("c"), WRONG)))


def tree(depth: int):
    if depth == 0:
        return leaves()
    child = field(tree(depth - 1))
    return st.one_of(
        leaves(),
        node("cone", of=child),
        node("suspension", of=child),
        node("isolated", dimension=field(st.integers(1, 5)),
             links=field(st.lists(tree(depth - 1), min_size=1, max_size=2))),
        node("mapping_torus", of=child,
             action=field(st.dictionaries(st.sampled_from(["0", "1", "2", "x"]),
                                          MATRIX, max_size=2))),
        node("thom_circle", base=child,
             euler=field(st.dictionaries(st.sampled_from(["s2", "a", "w", "x"]),
                                         st.integers(-3, 3), max_size=2))),
        node("disjoint_union", parts=field(st.lists(tree(depth - 1), max_size=2))))


JOBS = st.fixed_dictionaries({
    "space": field(tree(2)),
    "perversity": field(st.sampled_from([-1, 0, 1, 2, 3, {"gm": [0, 0, 1]}])),
    "ring": field(st.sampled_from(["Z", "Q", "F2", "F3", "F4"])),
}).map(lambda d: {k: v for k, v in d.items() if v is not MISSING})


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(JOBS)
def test_malformed_input_exits_2_with_one_line(job):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job))
        for argv in (["profile", str(path), "--json"], ["validate", str(path)],
                     ["crosscheck", str(path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), (argv[0], job, code)
            if code == 2:
                assert err.getvalue().count("\n") == 1, (argv[0], job, err.getvalue())
