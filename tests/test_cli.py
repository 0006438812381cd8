"""Command-line interface: report payloads, exit codes, determinism, and
the shard/merge path."""

import enum
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermcodes import bounds, cli, codes, make_field, verify
from hermcodes.cli import main
from hermcodes.limits import EVAL_BUDGET


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload, out


def test_params_exact(tmp_path):
    code, report, _ = run_cli(["params", "--p", "2", "--e", "1", "--n", "3", "--d", "2"], tmp_path)
    assert code == 0
    assert report["computed"] == {"m": 37, "k": 10, "dmin": 12, "dmin_status": "exact"}
    assert report["match"] == {"m": True, "k": True, "dmin": True}
    assert report["schema"] == 1


def test_params_witness_fallback(tmp_path):
    code, report, _ = run_cli(["params", "--p", "2", "--e", "1", "--n", "4", "--d", "2"], tmp_path)
    assert code == 0
    assert report["computed"]["dmin"] == 88
    assert report["computed"]["dmin_status"] == "witness_upper_bound_only"
    assert report["theoretical"]["dmin"] == 88


def test_params_q3(tmp_path):
    code, report, _ = run_cli(["params", "--p", "3", "--e", "1", "--n", "2", "--d", "1"], tmp_path)
    assert code == 0
    assert report["computed"] == {"m": 37, "k": 3, "dmin": 27, "dmin_status": "exact"}


def test_params_unknown_bound_exit_code(tmp_path):
    code, report, _ = run_cli(["params", "--p", "5", "--e", "1", "--n", "5", "--d", "4"], tmp_path)
    assert code == 3
    assert report["computed"] is None
    assert report["theoretical"] == {
        "m": 2031901,
        "k": 126,
        "dmin": None,
        "dmin_kind": "unknown",
        "provenance": "unknown",
        "source": "needs-open-base-maximum:open-for-this-degree",
    }


def test_params_rejects_degree_outside_regime(tmp_path):
    code = main(["params", "--p", "2", "--e", "1", "--n", "3", "--d", "3"])
    assert code == 1


def test_params_assume_conjecture(tmp_path):
    # the conjectural bound fills the open cell, but the variety itself is
    # beyond the enumeration budget, so the run is a budget refusal
    code, report, _ = run_cli(
        ["params", "--p", "5", "--e", "1", "--n", "5", "--d", "4", "--assume-conjecture"],
        tmp_path,
    )
    assert code == 2
    assert report["computed"] is None
    # m - (|U_4| + 3 * 6 * 5^6) = 2031901 - 362526: the vertex-avoiding branch
    assert report["theoretical"] == {
        "m": 2031901,
        "k": 126,
        "dmin": 1669375,
        "dmin_kind": "lower_bound",
        "provenance": "conjecture",
        "source": "edoukou-ling-xing",
    }


@pytest.mark.parametrize(
    "p, d, theoretical, note",
    [
        # cone branch 1 + 4 * 81 < hyperplane branch 165 + 3 * 2^6 = 357 of m = 661
        (2, 2, {"m": 661, "k": 21, "dmin": 304, "source": "quadric-section"},
         "exhaustive scan over budget and no witness construction for n > 4"),
        # cubic sections are proven for q >= 7
        (7, 3, {"m": 41179601, "k": 56, "dmin": 38456817, "source": "cubic-section"},
         "variety enumeration refused: enumerating P^5(GF(49)) scans 13841287201 tuples "
         "> budget 20000000"),
    ],
)
def test_params_theorem_lower_bound_refused(tmp_path, p, d, theoretical, note):
    # a theorem-grade lower bound on n = 5, refused before any scan
    code, report, _ = run_cli(["params", "--p", str(p), "--n", "5", "--d", str(d)], tmp_path)
    assert code == 2
    assert report["computed"] is None
    assert report["note"] == note
    assert report["theoretical"] == {
        **theoretical, "dmin_kind": "lower_bound", "provenance": "theorem"
    }


def test_params_artifacts(tmp_path):
    weights = tmp_path / "weights.csv"
    generator = tmp_path / "generator.txt"
    code, report, _ = run_cli(
        [
            "params", "--p", "2", "--e", "1", "--n", "2", "--d", "1",
            "--weights-csv", str(weights), "--generator-out", str(generator),
        ],
        tmp_path,
    )
    assert code == 0
    assert weights.read_text().splitlines() == ["weight,count", "8,3", "10,16", "12,2"]
    header = generator.read_text().splitlines()[0]
    assert header == "2 1 2 1 1,1,1 13 3"


def test_verify_suites(tmp_path):
    code, report, _ = run_cli(["verify", "--p", "2", "--e", "1", "--suite", "projspace"], tmp_path)
    assert code == 0 and report["passed"]
    code, report, _ = run_cli(
        ["verify", "--p", "2", "--e", "1", "--suite", "bounds", "--n", "3", "--d", "2"], tmp_path
    )
    assert code == 0 and report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "oracle_cone_n3_d2" in names and "maximizer_structure_n3_d2" in names


def test_oracle_report(tmp_path):
    code, report, _ = run_cli(["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "2"], tmp_path)
    assert code == 0
    assert report["result"]["max_count"] == 9
    assert report["result"]["n_maximizers"] == 3
    assert report["matches_bound"] is True
    assert report["characterization"]["union_of_generator_lines"] is True
    assert report["characterization"]["generator_lines"] == [2]


def test_oracle_q3(tmp_path):
    code, report, _ = run_cli(["oracle", "--p", "3", "--e", "1", "--n", "2", "--d", "2"], tmp_path)
    assert code == 0
    assert report["result"]["max_count"] == 19
    assert report["scan"]["total_forms"] == 66430


def test_oracle_space_variety(tmp_path):
    code, report, _ = run_cli(
        ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "2", "--variety", "space"], tmp_path
    )
    assert code == 0
    assert report["result"]["max_count"] == 9
    assert report["bound"]["source"] == "serre"
    assert report["characterization"] is None


def test_oracle_budget_refusal(tmp_path):
    # q = 3 (3, 3): 1.5e18 classes x 253 points, in the bound's regime d <= q
    code, report, _ = run_cli(
        ["oracle", "--p", "3", "--e", "1", "--n", "3", "--d", "3"], tmp_path
    )
    assert code == 2
    assert "error" in report


def test_one_budget_unit_at_its_boundary(tmp_path):
    # q = 2, (n, d) = (2, 2): 1,365 classes x 13 points = 17,745 form evaluations
    params = ["params", "--p", "2", "--n", "2", "--d", "2", "--budget"]
    oracle = ["oracle", "--p", "2", "--n", "2", "--d", "2", "--budget"]
    code, report, _ = run_cli(params + ["17745"], tmp_path)
    assert code == 0 and report["computed"]["dmin_status"] == "exact"
    code, report, _ = run_cli(params + ["17744"], tmp_path)
    assert code == 0 and report["computed"]["dmin_status"] == "witness_upper_bound_only"
    code, report, _ = run_cli(oracle + ["17745"], tmp_path)
    assert code == 0 and report["result"]["max_count"] == 9
    code, report, _ = run_cli(oracle + ["17744"], tmp_path)
    assert code == 2
    assert report["error"] == (
        "scan needs 17745 form evaluations > budget 17744; shard or override"
    )


def test_params_and_oracle_share_one_budget_option():
    subs = cli.build_parser()._subparsers._group_actions[0].choices
    budgets = [
        next(a for a in subs[name]._actions if a.dest == "budget") for name in ("params", "oracle")
    ]
    assert [a.default for a in budgets] == [EVAL_BUDGET, EVAL_BUDGET]
    assert budgets[0].help == budgets[1].help


def test_params_default_budget_flips(tmp_path, monkeypatch):
    # q = 5 (2, 2): 1.54e9 evaluations, inside the default budget
    code, report, _ = run_cli(["params", "--p", "5", "--n", "2", "--d", "2"], tmp_path)
    assert code == 0
    assert report["computed"]["dmin"] == 100 and report["computed"]["dmin_status"] == "exact"
    # q = 3 (3, 2): 4.36e8 classes x 253 points = 1.1e11 evaluations,
    # refused before any scan
    scans = []
    monkeypatch.setattr(bounds, "scan_zero_counts", lambda *args: scans.append(args))
    code, report, _ = run_cli(["params", "--p", "3", "--n", "3", "--d", "2"], tmp_path)
    assert code == 0
    assert report["computed"]["dmin"] == 180
    assert report["computed"]["dmin_status"] == "witness_upper_bound_only"
    assert scans == []


def test_d1_cone_cell_admitted_by_its_base_scan(tmp_path):
    # q = 7 (3, 1): 120,100 classes x 344 base points = 4.1e7 evaluations;
    # priced at all 16,857 cone points (2.0e9) it was over the default budget
    code, report, _ = run_cli(["params", "--p", "7", "--n", "3", "--d", "1"], tmp_path)
    assert code == 0
    assert report["computed"] == {"dmin": 16464, "dmin_status": "exact", "k": 4, "m": 16857}
    code, report, _ = run_cli(["oracle", "--p", "7", "--n", "3", "--d", "1"], tmp_path)
    assert code == 0 and report["matches_bound"] is True
    assert report["result"]["max_count"] == 393 and report["scan"]["n_points"] == 16857


@pytest.mark.parametrize("variety", ["cone", "nondegenerate"])
@pytest.mark.parametrize("shard", [[], ["--shard", "0/2"]])
def test_oracle_refuses_n1_before_the_scan(monkeypatch, capsys, tmp_path, variety, shard):
    """The cone and the nondegenerate variety have no bound for n = 1, so
    the oracle refuses n = 1 with exit 1 before it scans, sharded or not."""
    scans = []
    monkeypatch.setattr(
        cli.bnd, "bruteforce_max_intersection", lambda *args, **kw: scans.append(args)
    )
    argv = ["oracle", "--p", "2", "--n", "1", "--d", "2", "--variety", variety, *shard]
    code, report, _ = run_cli(argv, tmp_path)
    assert code == 1 and report is None
    assert "n >= 2" in _one_line_error(capsys)
    assert scans == []


@pytest.mark.parametrize("variety,d", [("cone", 3), ("nondegenerate", 3), ("space", 5)])
@pytest.mark.parametrize("shard", [[], ["--shard", "0/2"]])
def test_oracle_refuses_a_degree_past_its_bound_before_the_scan(
    monkeypatch, capsys, tmp_path, variety, d, shard
):
    """The bounds hold for d <= q (d <= q^2 over P^n), so a larger degree
    exits 1 before the scan, sharded or not: no partial report is written
    that no merge could complete."""
    scans = []
    monkeypatch.setattr(
        cli.bnd, "bruteforce_max_intersection", lambda *args, **kw: scans.append(args)
    )
    argv = ["oracle", "--p", "2", "--n", "2", "--d", str(d), "--variety", variety, *shard]
    code, report, _ = run_cli(argv, tmp_path)
    assert code == 1 and report is None
    assert f"d = {d} outside the regime" in _one_line_error(capsys)
    assert scans == []


def test_oracle_space_n1_still_runs(tmp_path):
    argv = ["oracle", "--p", "2", "--n", "1", "--d", "2", "--variety", "space"]
    code, report, _ = run_cli(argv, tmp_path)
    assert code == 0 and report["bound"]["source"] == "serre"


def test_shard_merge_byte_identical(tmp_path):
    base = ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "2"]
    partial_paths = []
    for i in range(4):
        _, _, path = run_cli(base + ["--shard", f"{i}/4"], tmp_path, name=f"shard{i}.json")
        partial_paths.append(str(path))
    _, _, full_path = run_cli(base, tmp_path, name="full.json")
    code = main(["merge", *partial_paths, "--out", str(tmp_path / "merged.json")])
    assert code == 0
    assert (tmp_path / "merged.json").read_bytes() == full_path.read_bytes()
    # grouped merge: combine two halves first, then merge the halves
    assert main(["merge", *partial_paths[:2], "--out", str(tmp_path / "left.json")]) == 0
    assert main(["merge", *partial_paths[2:], "--out", str(tmp_path / "right.json")]) == 0
    left = json.loads((tmp_path / "left.json").read_text())
    assert left["partial"] is True and left["merged"] is True
    code = main(
        ["merge", str(tmp_path / "left.json"), str(tmp_path / "right.json"),
         "--out", str(tmp_path / "grouped.json")]
    )
    assert code == 0
    assert (tmp_path / "grouped.json").read_bytes() == full_path.read_bytes()


def test_rerun_byte_identical(tmp_path):
    args = ["construct", "--p", "2", "--e", "1", "--n", "3", "--d", "2"]
    _, _, first = run_cli(args, tmp_path, name="a.json")
    _, _, second = run_cli(args, tmp_path, name="b.json")
    assert first.read_bytes() == second.read_bytes()


def test_construct_report(tmp_path):
    code, report, _ = run_cli(["construct", "--p", "2", "--e", "1", "--n", "4", "--d", "2"], tmp_path)
    assert code == 0
    w = report["witness"]
    assert w["predicted_count"] == 93 and w["intersection_count"] == 93
    c = report["code"]
    assert c["witness_weight"] == 88 and c["matches_theoretical"] is True
    assert len(c["codeword_support"]) == 88


def test_construct_q3(tmp_path):
    code, report, _ = run_cli(["construct", "--p", "3", "--e", "1", "--n", "3", "--d", "3"], tmp_path)
    assert code == 0
    assert report["witness"]["intersection_count"] == 109
    assert report["code"]["m"] == 253
    assert report["code"]["witness_weight"] == 144


def test_cli_stdout(capsys):
    code = main(["params", "--p", "2", "--e", "1", "--n", "2", "--d", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["computed"]["dmin"] == 8


# -- the report writer, with json as the oracle --------------------------------


def _json_text(value):
    """json's report text for value, or the type and message of its error."""
    try:
        return json.dumps(value, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _emitted(value, path):
    """What _emit writes for value to stdout and to --out path, each as the
    text or the type and message of its error; an error leaves no file."""
    results = []
    for out in (None, path):
        path.unlink(missing_ok=True)
        try:
            with redirect_stdout(io.StringIO()) as buf:
                cli._emit(value, out and str(out))
            results.append(path.read_text(encoding="utf-8") if out else buf.getvalue())
        except (TypeError, ValueError) as exc:
            assert not path.exists()
            results.append((type(exc), str(exc)))
    return results


@st.composite
def _int_rows(draw):
    """Rows of one width (the maximizer shape), lists or tuples, with at
    most one flaw: a bool or a float entry, or one row a code longer."""
    width = draw(st.integers(0, 4))
    row = st.lists(st.integers(), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    i = draw(st.integers(0, len(rows) - 1))
    flaw = draw(st.sampled_from([None, True, 1.0, "ragged"]))
    if flaw == "ragged":
        rows[i].append(0)
    elif flaw is not None and width:
        rows[i][draw(st.integers(0, width - 1))] = flaw
    return [tuple(r) if draw(st.booleans()) else r for r in rows]


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_NUMBER_KEYS = st.integers() | st.floats() | st.booleans()


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
        | st.dictionaries(_NUMBER_KEYS | st.none(), children, max_size=3)
        | st.dictionaries(_NUMBER_KEYS, children, max_size=4)
    )


_REPORT_VALUES = st.recursive(
    _SCALARS | _int_rows() | st.lists(st.integers() | st.booleans(), max_size=6),
    _containers,
    max_leaves=24,
)


@pytest.fixture(scope="module")
def writer_out(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "out.json"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=_REPORT_VALUES)
def test_writer_matches_json_on_stdout_and_out(writer_out, value):
    want = _json_text(value)
    assert _emitted(value, writer_out) == [want, want]


def test_writer_sorts_then_quotes_non_string_keys(tmp_path):
    value = {
        "numbers": {10: "a", 2.5: "b", True: "c", -3: "d", float("inf"): "e", float("nan"): "f"},
        "none": {None: [[1, 2], [3, 4]]},
        "bools": {False: [], True: {}},
    }
    want = _json_text(value)
    assert '"-3": "d",\n    "true": "c",\n    "2.5": "b",\n    "10": "a"' in want
    assert '"NaN": "f"' in want and '"null": [' in want and '"false": []' in want
    assert _emitted(value, tmp_path / "out.json") == [want, want]
    assert _emitted({(1, 2): 0}, tmp_path / "out.json") == [_json_text({(1, 2): 0})] * 2


@pytest.mark.parametrize(
    "value",
    [[1, np.int64(2), 3], [[1, 2], [3, np.int64(4)]], {"maximizers": [(0, 1), (np.int64(2), 3)]}],
    ids=["int-list", "row", "nested-row"],
)
def test_writer_refuses_what_json_refuses(tmp_path, value):
    want = _json_text(value)
    assert want[0] is TypeError and "int64" in want[1]
    assert _emitted(value, tmp_path / "out.json") == [want, want]


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


@pytest.mark.parametrize(
    "value",
    [
        [1, True, 3],
        [[1, 2], [3, False]],
        [(1, 2), (3, 4.0)],
        [[1, 2], [3]],
        [[], []],
        [1, _Level.HIGH, 3],
        [[_Level.LOW, 2], [3, 4]],
        {_Level.HIGH: [_Level.LOW]},
    ],
    ids=[
        "bool-in-list", "bool-in-row", "float-in-row", "ragged-rows", "empty-rows",
        "enum-in-list", "enum-in-row", "enum-key-and-value",
    ],
)
def test_writer_takes_the_general_path_off_the_bulk_shapes(tmp_path, value):
    want = _json_text(value)
    assert _emitted(value, tmp_path / "out.json") == [want, want]


def _canonical(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_reports_round_trip_byte_for_byte(tmp_path, capsys):
    # the two bulk shapes at size: 4,095 maximizer rows, 16,384 support codes
    assert main(["oracle", "--p", "3", "--n", "2", "--d", "2", "--variety", "space"]) == 0
    out = capsys.readouterr().out
    assert out == _canonical(out) and len(json.loads(out)["result"]["maximizers"]) == 4095
    assert main(["construct", "--p", "2", "--e", "2", "--n", "4", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert out == _canonical(out) and len(json.loads(out)["code"]["codeword_support"]) == 16384
    shards = [tmp_path / f"shard{i}.json" for i in range(3)]
    for i, path in enumerate(shards):
        argv = ["oracle", "--p", "2", "--n", "3", "--d", "2", "--shard", f"{i}/3"]
        assert main(argv + ["--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text == _canonical(text)
    assert main(["merge", *map(str, shards)]) == 0
    out = capsys.readouterr().out
    assert out == _canonical(out)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


def test_negative_budget_and_cap_refused(tmp_path, capsys):
    oracle = ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1"]
    params = ["params", "--p", "2", "--e", "1", "--n", "2", "--d", "1"]
    for argv, flag in (
        (oracle + ["--cap", "-1"], "--cap"),
        (oracle + ["--budget", "-1"], "--budget"),
        (params + ["--budget", "-1"], "--budget"),
    ):
        code, report, _ = run_cli(argv, tmp_path)
        assert code == 2 and report is None
        assert flag in _one_line_error(capsys)


@pytest.mark.parametrize("suite", ["field", "projspace"])
def test_negative_seed_refused_before_any_work(tmp_path, capsys, monkeypatch, suite):
    """A suite that draws no samples (field) refuses a negative seed as one
    that does (projspace): exit 1, one stderr line, no report, no check."""
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kw: pytest.fail("a suite ran"))
    code, report, _ = run_cli(["verify", "--p", "2", "--suite", suite, "--seed", "-1"], tmp_path)
    assert code == 1 and report is None
    assert "--seed" in _one_line_error(capsys)


def test_verify_bounds_without_known_structure(capsys):
    argv = ["verify", "--p", "2", "--e", "1", "--suite", "bounds", "--n", "5", "--d", "1"]
    assert main(argv) == 1
    assert "n = 5" in _one_line_error(capsys)


@pytest.mark.parametrize("n,d", [(5, 1), (7, 2), (1, 1)])
def test_verify_bounds_refuses_unknown_structure_before_the_scan(monkeypatch, capsys, n, d):
    """n outside 2..4 is refused with exit 1 before the cone oracle scans,
    also when the cell is over budget (n = 7, d = 2) or has no cone bound
    (n = 1)."""
    scans = []
    monkeypatch.setattr(
        verify.bnd, "bruteforce_max_intersection", lambda *args, **kw: scans.append(args)
    )
    argv = ["verify", "--p", "2", "--suite", "bounds", "--n", str(n), "--d", str(d)]
    assert main(argv) == 1
    assert f"n = {n}" in _one_line_error(capsys)
    assert scans == []


@pytest.mark.parametrize("n,d", [(3, 3), (2, 3)])
def test_verify_bounds_refuses_a_degree_past_q_before_the_scan(monkeypatch, capsys, n, d):
    """d > q has no cone bound: exit 1 before the cone oracle and the
    nondegenerate oracle (n = 3) scan, also when the scan would be over
    budget (n = 3, d = 3)."""
    scans = []
    monkeypatch.setattr(
        verify.bnd, "bruteforce_max_intersection", lambda *args, **kw: scans.append(args)
    )
    argv = ["verify", "--p", "2", "--suite", "bounds", "--n", str(n), "--d", str(d)]
    assert main(argv) == 1
    assert f"d = {d} outside the regime" in _one_line_error(capsys)
    assert scans == []
    for check in (verify.check_cone_oracle, verify.check_oracle_nondegenerate):
        with pytest.raises(ValueError, match="outside the regime"):
            check(make_field(2, 1), n, d)
    assert scans == []


@pytest.mark.parametrize(
    "section,key,value,words",
    [
        ("scan", "total_forms", 455, "scan.total_forms = 455"),  # shard 0/3's hi
        ("scan", "lo", -10, "scan range [-10, 455)"),
        ("scan", "hi", 1366, "scan range [0, 1366)"),
        ("scan", "total_forms", 1 << 63, "2^63"),
        ("scan", "k", 7, "scan.k = 7"),
        ("config", "d", 10**12, "scan.k = 6"),
        ("config", "q2", 1, "config.q2 = 1"),
    ],
)
def test_merge_refuses_scan_fields_that_disagree_with_the_cell(
    tmp_path, capsys, section, key, value, words
):
    """The scan fields of a shard are held to its cell, q = 2 (2, 2): k = 6
    monomials, 1,365 form classes, and 0 <= lo <= hi <= total_forms.
    Before, shard 0/3 with total_forms set to its hi (455) merged alone into
    a full report listing 1 of the 3 maximizers, and lo = -10 merged into a
    partial report, both with exit 0."""
    base = ["oracle", "--p", "2", "--n", "2", "--d", "2", "--shard", "0/3"]
    _, report, path = run_cli(base, tmp_path)
    assert report["scan"]["hi"] == 455 and report["scan"]["total_forms"] == 1365
    report[section][key] = value
    path.write_text(json.dumps(report))
    assert main(["merge", str(path), "--out", str(tmp_path / "merged.json")]) == 1
    assert words in _one_line_error(capsys)
    assert not (tmp_path / "merged.json").exists()


def test_merge_rejects_report_without_config_n(tmp_path, capsys):
    _, report, path = run_cli(
        ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1", "--shard", "0/2"], tmp_path
    )
    del report["config"]["n"]
    path.write_text(json.dumps(report))
    assert main(["merge", str(path)]) == 1
    assert "config.n" in _one_line_error(capsys)


def test_merge_rejects_unreadable_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["merge", str(missing)]) == 1
    assert "missing.json" in _one_line_error(capsys)
    assert main(["merge", str(tmp_path)]) == 1  # a directory
    _one_line_error(capsys)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{ not json")
    assert main(["merge", str(garbled)]) == 1
    assert "garbled.json" in _one_line_error(capsys)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["merge", str(binary)]) == 1
    _one_line_error(capsys)


def test_merge_rejects_wrong_schema_and_command(tmp_path, capsys):
    _, report, path = run_cli(
        ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1", "--shard", "0/2"], tmp_path
    )
    for field, value, needle in (
        ("schema", 7, "schema 7"),
        ("command", "params", "'params'"),
        ("schema", None, "schema None"),
    ):
        bad = dict(report)
        if value is None:
            del bad[field]
        else:
            bad[field] = value
        path.write_text(json.dumps(bad))
        assert main(["merge", str(path)]) == 1
        assert needle in _one_line_error(capsys)
    path.write_text(json.dumps([report]))
    assert main(["merge", str(path)]) == 1
    assert "JSON object" in _one_line_error(capsys)


def test_merge_rejects_malformed_fields(tmp_path, capsys):
    _, shard, path = run_cli(
        ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1", "--shard", "0/2"], tmp_path
    )
    assert shard["config"]["q2"] == 4 and shard["scan"]["k"] == 3
    for section, key, value, needle in (
        ("scan", "lo", "x", "scan.lo"),
        ("scan", "cap", True, "scan.cap"),
        ("config", "n", 2.0, "config.n"),
        ("config", "variety", 1, "config.variety"),
        ("result", "maximizers", {}, "result.maximizers"),
        ("result", "maximizers", [1, 2], "result.maximizers[0]"),
        ("result", "maximizers", [[1, 99, 0]], "result.maximizers[0]"),
        ("result", "maximizers", [[1, 0]], "result.maximizers[0]"),
        ("result", "maximizers", [[1, 0, -1]], "result.maximizers[0]"),
        ("result", "maximizers", [[1, 0, False]], "result.maximizers[0]"),
    ):
        bad = json.loads(json.dumps(shard))
        bad[section][key] = value
        path.write_text(json.dumps(bad))
        assert main(["merge", str(path)]) == 1
        err = _one_line_error(capsys)
        assert needle in err and "Traceback" not in err
    # a GF(4) maximizer code is caught before the full report characterizes it
    other = run_cli(
        ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1", "--shard", "1/2"],
        tmp_path,
        "other.json",
    )[2]
    bad = json.loads(json.dumps(shard))
    bad["result"]["maximizers"] = [[1, 99, 0]]
    path.write_text(json.dumps(bad))
    assert main(["merge", str(path), str(other)]) == 1
    assert "[0, 4)" in _one_line_error(capsys)
    bad = json.loads(json.dumps(shard))
    bad["config"]["q2"] = 16
    path.write_text(json.dumps(bad))
    other.write_text(json.dumps({**json.loads(other.read_text()), "config": bad["config"]}))
    assert main(["merge", str(path), str(other)]) == 1
    assert "q2 = 16" in _one_line_error(capsys)


def test_merge_rejects_reports_that_are_not_partial(tmp_path, capsys):
    oracle = ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1"]
    code, full, full_path = run_cli(oracle, tmp_path, "full.json")
    assert code == 0 and "partial" not in full
    assert main(["merge", str(full_path)]) == 1
    assert "full.json is not a partial oracle report" in _one_line_error(capsys)
    _, shard, shard_path = run_cli(oracle + ["--shard", "0/2"], tmp_path, "shard.json")
    for value in (False, None, "true", 1):
        bad = dict(shard)
        if value is None:
            del bad["partial"]
        else:
            bad["partial"] = value
        shard_path.write_text(json.dumps(bad))
        assert main(["merge", str(shard_path)]) == 1
        assert "not a partial oracle report" in _one_line_error(capsys)
    shard_path.write_text(json.dumps(shard))
    assert main(["merge", str(shard_path), "--out", str(tmp_path / "merged.json")]) == 0


def test_params_budget_zero_is_honoured(tmp_path):
    params = ["params", "--p", "2", "--e", "1", "--n", "2", "--d", "2"]
    for budget in ("0", "1"):
        code, report, _ = run_cli(params + ["--budget", budget], tmp_path)
        assert code == 0
        assert report["computed"]["dmin_status"] == "witness_upper_bound_only"
    code, report, _ = run_cli(params, tmp_path)
    assert code == 0 and report["computed"]["dmin_status"] == "exact"


def test_verify_rejects_nonpositive_n(tmp_path, capsys):
    for suite in ("projspace", "hermitian", "all"):
        for n in ("0", "-1"):
            code, report, _ = run_cli(
                ["verify", "--p", "2", "--e", "1", "--suite", suite, "--n", n], tmp_path
            )
            assert code == 1 and report is None
            assert _one_line_error(capsys) == "error: n must be >= 1\n"


def test_unwritable_output_path(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    argvs = (
        ["params", "--p", "2", "--e", "1", "--n", "2", "--d", "1",
         "--weights-csv", str(missing / "w.csv")],
        ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1",
         "--out", str(missing / "o.json")],
    )
    for argv in argvs:
        assert main(argv) == 1
        assert "no-such-dir" in _one_line_error(capsys)


def test_forty_shards_with_empty_ones_merge_byte_identical(tmp_path):
    base = ["oracle", "--p", "2", "--e", "1", "--n", "2", "--d", "1"]
    paths, empty = [], 0
    for i in range(40):
        code, report, path = run_cli(base + ["--shard", f"{i}/40"], tmp_path, f"s{i}.json")
        assert code == 0
        paths.append(str(path))
        if report["scan"]["lo"] == report["scan"]["hi"]:
            empty += 1
            assert report["result"] == {"max_count": -1, "n_maximizers": 0, "maximizers": []}
    assert empty == 19  # 21 forms over 40 shards
    _, _, full = run_cli(base, tmp_path, "full.json")
    assert main(["merge", *paths, "--out", str(tmp_path / "merged.json")]) == 0
    assert (tmp_path / "merged.json").read_bytes() == full.read_bytes()


def test_params_weights_csv_scans_once(tmp_path, monkeypatch):
    plain = tmp_path / "plain.json"
    assert main(["params", "--p", "2", "--n", "3", "--d", "1", "--out", str(plain)]) == 0
    calls = []
    scan = codes.weight_distribution

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(codes, "weight_distribution", counted)
    weights = tmp_path / "weights.csv"
    code, _, out = run_cli(
        ["params", "--p", "2", "--n", "3", "--d", "1", "--weights-csv", str(weights)], tmp_path
    )
    assert code == 0 and len(calls) == 1
    assert out.read_bytes() == plain.read_bytes()
    assert weights.read_text().splitlines()[0] == "weight,count"


def _run_captured(argv) -> tuple[int, str]:
    """Exit code and stderr of an in-process run; stdout is discarded."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err) -> None:
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err


def _values(*pool):
    return st.sampled_from(pool).map(str)


def test_oversized_field_and_dimension_are_refused_before_work(tmp_path, shard_pair):
    for argv, code, needle in (
        (["params", "--p", "2", "--e", str(10**11), "--n", "2", "--d", "1"], 2, "table limit"),
        (["params", "--p", str(2**61 - 1), "--n", "2", "--d", "1"], 2, "table limit"),
        (["params", "--p", "4", "--n", "2", "--d", "1"], 1, "p = 4 is not prime"),
        (["params", "--p", "2", "--n", "3000", "--d", "1"], 2, "more than 10^1000"),
        (["verify", "--p", "2", "--suite", "projspace", "--n", "100000"], 2, "more than 10^1000"),
        (["construct", "--p", "2", "--n", "100000", "--d", "1"], 1, "n in {2, 3, 4}"),
    ):
        got, err = _run_captured(argv)
        assert got == code and err.count("\n") == 1 and needle in err
    code, report, _ = run_cli(["oracle", "--p", "2", "--n", "100000", "--d", "1"], tmp_path)
    assert code == 2 and "more than 10^1000" in report["error"]
    reports, _ = shard_pair
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, shard in zip(paths, reports):
        path.write_text(json.dumps({**shard, "config": {**shard["config"], "n": 10**6}}))
    got, err = _run_captured(["merge", *map(str, paths)])
    assert got == 2 and err.count("\n") == 1 and "more than 10^1000" in err


def test_field_suite_past_the_point_budget_is_a_clean_refusal():
    code, err = _run_captured(["verify", "--p", "3", "--e", "5", "--suite", "field"])
    assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
    assert "ordered pairs of GF(59049)" in err


_HUGE_SHARDS = ("0/10000000000000000000", "6800000000000000000/10000000000000000000")


def test_oracle_refuses_form_spaces_past_int64(tmp_path, capsys):
    # 36 coefficients over GF(4): 1.6e21 form classes, past int64
    cell = ["oracle", "--p", "2", "--n", "7", "--d", "2"]
    for shard in _HUGE_SHARDS:
        code, report, _ = run_cli(cell + ["--shard", shard], tmp_path)
        assert code == 2 and "exceed the int64 index space" in report["error"]
        assert capsys.readouterr().err == ""


def test_merge_checks_variety_and_cap_on_every_merge(tmp_path, capsys):
    base = ["oracle", "--p", "2", "--n", "2", "--d", "2"]
    shards = [run_cli(base + ["--shard", f"{i}/3"], tmp_path, f"s{i}.json")[1] for i in range(3)]
    for section, key, value, needle in (
        ("config", "variety", "plane", "unknown variety 'plane'"),
        ("scan", "cap", -5, "scan.cap = -5 is negative"),
    ):
        paths = []
        for i, shard in enumerate(shards):
            edited = json.loads(json.dumps(shard))
            edited[section][key] = value
            paths.append(tmp_path / f"bad{i}.json")
            paths[-1].write_text(json.dumps(edited))
        for chosen in (paths[:2], paths):  # a partial merge, then a full one
            out = tmp_path / "merged.json"
            code = main(["merge", *map(str, chosen), "--out", str(out)])
            err = _one_line_error(capsys)
            assert code == 1 and needle in err and not out.exists()


def test_verify_hermitian_checks_the_largest_n_first(monkeypatch):
    def unexpected(ctx, n):
        raise AssertionError(f"P^{n} built before the budget check")

    monkeypatch.setattr(verify, "make_nondegenerate", unexpected)
    monkeypatch.setattr(verify, "make_standard_cone", unexpected)
    for n, message in (
        ("100000", "budget refusal: P^100000(GF(4)) has more than 10^1000 coordinate tuples\n"),
        ("12", "budget refusal: enumerating P^12(GF(4)) scans 67108864 tuples > budget 20000000\n"),
    ):
        assert _run_captured(["verify", "--p", "2", "--suite", "hermitian", "--n", n]) == (2, message)


@st.composite
def _cli_argv(draw):
    cmd = draw(st.sampled_from(["params", "oracle", "construct", "verify"]))
    argv = [cmd, "--p", draw(_values(-1, 0, 1, 2, 3, 4, 2**61 - 1))]
    argv += ["--e", draw(_values(-1, 0, 1, 10**11))]
    n, d = draw(_values(-1, 0, 1, 2, 3, 3000, 10**5)), draw(_values(-1, 0, 1, 2, 3))
    if cmd == "verify":  # the hermitian suite walks P^1 .. P^n: seconds per cell
        argv += ["--suite", draw(st.sampled_from(["field", "projspace", "bounds", "nosuch"]))]
    argv += ["--n", n]
    if draw(st.integers(0, 9)):  # sometimes leave the required --d out
        argv += ["--d", d]
    limits = {"params": ["--budget"], "oracle": ["--budget", "--cap"]}.get(cmd, [])
    for flag in limits:
        value = draw(st.sampled_from([None, "-1", "0", "1"]))
        if value is not None:
            argv += [flag, value]
    if cmd == "oracle":
        shards = [None, "1/3", "-1/2", "10000000000000000000/10000000000000000000", *_HUGE_SHARDS]
        shard = draw(st.sampled_from(shards))
        if shard is not None:
            argv += ["--shard", shard]
    return argv


def test_usage_errors_exit_1_with_one_line(capsys):
    # argparse alone would exit 2, the budget-refusal code, with a usage block
    for argv, needle in (
        (["oracle", "--p", "2", "--n", "2", "--d", "1", "--shard", "-1/2"], "--shard"),
        (["oracle", "--p", "2", "--n", "2"], "required: --d"),
        (["verify", "--p", "2", "--suite", "nosuch"], "invalid choice: 'nosuch'"),
        (["oracle", "--p", "2", "--n", "2", "--d", "1", "--shard", "1-2"], "INDEX/TOTAL"),
    ):
        code, err = _run_captured(argv)
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: hermcodes ") and needle in err
    for argv in (["--help"], ["oracle", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: hermcodes" in capsys.readouterr().out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_cli_argv())
def test_cli_fuzz_ends_in_a_documented_exit(argv):
    # malformed or oversized p, e, n, d, budget and cap: a documented exit
    # code and at most one stderr line, never a traceback or a huge allocation
    _assert_clean_exit(*_run_captured(argv))


@pytest.fixture(scope="module")
def shard_pair(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz_shards")
    paths = [base / f"s{i}.json" for i in range(2)]
    for i, path in enumerate(paths):
        argv = ["oracle", "--p", "2", "--n", "2", "--d", "1", "--shard", f"{i}/2"]
        assert main(argv + ["--out", str(path)]) == 0
    return [json.loads(path.read_text()) for path in paths], base


_JSON_VALUES = st.sampled_from([10**6, 10**30, -1, True, "x", [1, 2], None])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_merge_fuzz_ends_in_a_documented_exit(shard_pair, data):
    reports, base = shard_pair
    fields = [(key, None) for key in reports[0]] + [
        (section, key)
        for section, part in reports[0].items()
        if isinstance(part, dict)
        for key in part
    ]
    section, key = data.draw(st.sampled_from(fields))
    value = data.draw(_JSON_VALUES)
    paths = [base / "a.json", base / "b.json"]
    # the field replaced in both reports (configs agree) and in the first only
    for changed in ((0, 1), (0,)):
        for i, (path, report) in enumerate(zip(paths, json.loads(json.dumps(reports)))):
            if i in changed and key is None:
                report[section] = value
            elif i in changed:
                report[section][key] = value
            path.write_text(json.dumps(report))
        _assert_clean_exit(*_run_captured(["merge", *map(str, paths)]))


def _fresh_process(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``python -m hermcodes.cli argv``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "hermcodes.cli", *argv], env=env, capture_output=True, text=True
    )
    return run.returncode, run.stdout, run.stderr


def test_one_parser_serves_every_main_call_of_a_process(monkeypatch):
    calls = [
        ["params", "--p", "2", "--n", "2", "--d", "1"],
        ["oracle", "--p", "2", "--n", "2", "--bogus", "1"],
        ["oracle", "--p", "2", "--n", "2", "--d", "1", "--shard", "1/2"],
        ["verify", "--p", "2", "--suite", "nope"],
        ["params", "--p", "2", "--n", "2", "--d", "1"],
    ]
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()
    try:
        got = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            got.append((code, out.getvalue(), err.getvalue()))
    finally:
        cli.build_parser.cache_clear()
    assert built.count("hermcodes") == 1  # the subcommand parsers are built with it
    assert got == [_fresh_process(argv) for argv in calls]
    assert [code for code, _, _ in got] == [0, 1, 0, 1, 0]
    assert got[0] == got[4] and got[1][2].startswith("error: hermcodes oracle: ")


def test_the_parser_is_not_built_at_import():
    code = "import hermcodes.cli as cli; print(cli.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["0"]
