"""Self-tests of the benchmark: tracing must not change reports, must leave
nothing patched behind, and must count deterministically; the output gate
must catch a changed report.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
from collections import Counter

import pytest

import run
import tracer
from workloads import _job

SMALL = [
    _job(
        "params-p2n2d1",
        ["params", "--p", "2", "--n", "2", "--d", "1", "--weights-csv", "{tmp}/w.csv"],
        files={"weights_csv": "{tmp}/w.csv"},
    ),
    _job("oracle-p2n2d1", ["oracle", "--p", "2", "--n", "2", "--d", "1"]),
    *(
        _job(
            f"shard{i}",
            ["oracle", "--p", "2", "--n", "2", "--d", "1", "--shard", f"{i}/2",
             "--out", f"{{tmp}}/s{i}.json"],
            gate="partial",
            files={"out": f"{{tmp}}/s{i}.json"},
        )
        for i in range(2)
    ),
    _job("merge", ["merge", "{tmp}/s0.json", "{tmp}/s1.json"], same_as="oracle-p2n2d1"),
    _job("construct-p2n2d1", ["construct", "--p", "2", "--n", "2", "--d", "1"]),
    _job("verify-hermitian-p2n2",
         ["verify", "--p", "2", "--suite", "hermitian", "--n", "2", "--seed", "0"],
         gate="verify"),
]


@pytest.fixture(scope="module")
def passes():
    _, plain = run.run_pass(SMALL, traced=False, tag="selftest-plain")
    _, first = run.run_pass(SMALL, traced=True, tag="selftest-traced-a")
    _, second = run.run_pass(SMALL, traced=True, tag="selftest-traced-b")
    return plain, first, second


def test_traced_pass_writes_same_report_bytes(passes):
    plain, first, _ = passes
    assert all(j["exit"] == 0 and j["error"] is None for j in plain["jobs"] + first["jobs"])
    assert run.differing_reports(plain, first) == []


def test_two_traced_passes_give_identical_counts(passes):
    _, first, second = passes
    assert first["counts"] == second["counts"]
    names = [
        Counter(s[1] for s in run._read_spans(run.OUT / f"spans-selftest-traced-{tag}.jsonl"))
        for tag in "ab"
    ]
    assert names[0] == names[1]
    assert names[0]["forms.scan_zero_counts"] > 0 and names[0]["verify.iter_all_lines"] > 0


def test_gate_accepts_the_pass_and_catches_changes(passes):
    plain, _, _ = passes
    expected = run.expected_entries(SMALL, plain)
    assert run.gate(SMALL, plain, expected) == {}

    changed = json.loads(json.dumps(plain))
    changed["jobs"][0]["streams"]["weights_csv"]["sha256"] = "0" * 64
    verify = changed["jobs"][-1]["streams"]["stdout"]
    verify["text"] = verify["text"].replace('"passed": true', '"passed": false', 1)
    failures = run.gate(SMALL, changed, expected)
    assert set(failures) == {"params-p2n2d1", "verify-hermitian-p2n2"}


def test_wrappers_are_removed_afterwards():
    import hermcodes.cli as cli
    from hermcodes import field, hermitian

    def snapshot():
        mods = tracer._hermcodes_modules()
        state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        state.update({("FieldCtx", k): v for k, v in vars(field.FieldCtx).items()})
        state["points.func"] = hermitian.HermitianVariety.__dict__["points"].func
        return state

    before = snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert "hermcodes.bounds.scan_zero_counts" in tracer.installed_wrappers()
        assert "FieldCtx.mul" in tracer.installed_wrappers()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["oracle", "--p", "2", "--n", "2", "--d", "1"]) == 0
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == []
    assert snapshot() == before
    names = {s[1] for s in t.spans}
    assert {"cli.oracle", "forms.scan_zero_counts", "bounds.is_cone_with_vertex"} <= names


def test_span_times_subtract_children_and_skip_same_name_nesting():
    spans = [
        (1, "a", 1.0, 3.0, 0, "j"),
        (2, "b", 4.0, 5.0, 0, "j"),
        (3, "a", 4.2, 4.7, 2, "j"),
        (4, "a", 4.3, 4.5, 3, "j"),
        (0, "a", 0.0, 10.0, None, "j"),
    ]
    self_s, total_s = tracer.span_times(spans)
    assert self_s["a"] == pytest.approx(7.0 + 2.0 + 0.3 + 0.2)
    assert self_s["b"] == pytest.approx(0.5)
    assert total_s["a"] == pytest.approx(10.0)
    assert total_s["b"] == pytest.approx(1.0)
