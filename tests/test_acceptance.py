"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every numeric target is a closed form instantiated at desk scale and every
check is exact; run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import json
import time
from collections import Counter
from math import comb

import pytest

from hermcodes import (
    bruteforce_max_intersection,
    build_code,
    check_union_of_cone_lines,
    code_dimension,
    cone_bound,
    conjectured_max_intersection,
    construct_extremal_form,
    count_points_formula,
    is_cone_with_vertex,
    make_field,
    make_nondegenerate,
    make_standard_cone,
    min_distance,
    monomial_basis,
    pi_count,
    product_of_hyperplanes,
    serre_bound,
    sorensen_max,
    theoretical_parameters,
)
from hermcodes.cli import main as cli_main
from hermcodes.codes import WITNESS_UPPER_BOUND_ONLY
from hermcodes.forms import HomogeneousForm, intersection_count
from hermcodes.hermitian import HermitianVariety, hermitian_form_values, hyperplane_sections
from hermcodes.projspace import enumerate_hyperplanes, enumerate_points, incidence_matrix
from hermcodes.verify import iter_all_lines


def report(criterion: str, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def oracle_runs(gf4):
    """All q = 2 exhaustive oracle results used by criteria 3 and 4."""
    runs = {}
    for n, d in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        runs[("cone", n, d)] = bruteforce_max_intersection(
            gf4, make_standard_cone(gf4, n), n, d
        )
    for d in (1, 2):
        runs[("nondeg", 3, d)] = bruteforce_max_intersection(
            gf4, make_nondegenerate(gf4, 3), 3, d
        )
    return runs


def _same_bytes(a, b) -> bool:
    return (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


def test_criterion_1_point_counts():
    # The standard cone builds its points from the lines over its base, so
    # it has 1 + q^2 |U| points by construction; the count is checked on the
    # zeros of the same matrix over P^n, which the cone's points must equal
    # byte for byte.
    t0 = time.perf_counter()
    ok = True
    details = []
    cells = [(2, 1, n) for n in range(1, 5)] + [(3, 1, n) for n in range(1, 5)] + [(2, 2, 4)]
    for p, e, n in cells:
        ctx = make_field(p, e)
        nondeg = make_nondegenerate(ctx, n)
        cone = make_standard_cone(ctx, n)
        space_route = HermitianVariety(ctx, cone.matrix).points
        ok &= len(nondeg.points) == count_points_formula(n, "nondegenerate", ctx.q)
        ok &= len(space_route) == count_points_formula(n, "rank_n_cone", ctx.q)
        ok &= _same_bytes(cone.points, space_route)
        if n == 4:
            details.append(f"q={ctx.q}: cone n=4 has {len(cone.points)} points")
    ctx2, ctx3 = make_field(2, 1), make_field(3, 1)
    ok &= len(make_standard_cone(ctx2, 4).points) == 181
    ok &= len(make_standard_cone(ctx3, 4).points) == 2521
    report("1 (point-count formulas)", ok, "; ".join(details), t0)


def test_criterion_2_section_dichotomies(gf4):
    t0 = time.perf_counter()
    q = 2
    ok = True
    # line trichotomy against the nondegenerate variety, exhaustive per n
    for n in (2, 3, 4):
        variety = make_nondegenerate(gf4, n)
        allowed = {1, q + 1} if n == 2 else {1, q + 1, q * q + 1}
        zero = hermitian_form_values(gf4, variety.matrix, enumerate_points(gf4, n)) == 0
        for block in iter_all_lines(gf4, n):  # rows of point indices, one per line
            ok &= set(zero[block].sum(axis=1).tolist()) <= allowed
    # tangent / non-tangent hyperplane sections
    for n in (2, 3, 4):
        variety = make_nondegenerate(gf4, n)
        tangent_count = 1 + 4 * count_points_formula(n - 2, "nondegenerate", q)
        nontangent_count = count_points_formula(n - 1, "nondegenerate", q)
        ranks, counts, kinds = hyperplane_sections(gf4, variety, enumerate_hyperplanes(gf4, n))
        tangent = ranks == n - 1
        ok &= bool((kinds[tangent] == "tangent").all() and (counts[tangent] == tangent_count).all())
        ok &= bool((ranks[~tangent] == n).all() and (counts[~tangent] == nontangent_count).all())
        ok &= int(tangent.sum()) == len(variety.points)
    # vertex-avoiding cone sections recover the base variety count
    for n in (2, 3, 4):
        cone = make_standard_cone(gf4, n)
        base = count_points_formula(n - 1, "nondegenerate", q)
        hyps = enumerate_hyperplanes(gf4, n)
        avoiding = hyps[~incidence_matrix(gf4, [cone.vertex], hyps)[0]]
        _, counts, kinds = hyperplane_sections(gf4, cone, avoiding)
        ok &= bool((counts == base).all() and (kinds == "vertex_avoiding").all())
        ok &= len(avoiding) == 4**n
    # through-vertex sections of the rank-4 cone: cone over a Hermitian
    # curve or over q+1 concurrent lines (counts enumerated exactly)
    cone4 = make_standard_cone(gf4, 4)
    hyps = enumerate_hyperplanes(gf4, 4)
    incident = hyps[incidence_matrix(gf4, [cone4.vertex], hyps)[0]]
    _, counts, _ = hyperplane_sections(gf4, cone4, incident)
    tally = dict(Counter(counts.tolist()))
    curve_cone = 1 + q * q * (q**3 + 1)  # 37
    lines_cone = 1 + q * q * (q * q * (q + 1) + 1)  # 53: q+1 concurrent lines
    ok &= tally == {curve_cone: 40, lines_cone: 45}
    report(
        "2 (section dichotomies)",
        ok,
        f"through-vertex tallies of the rank-4 cone: {tally}",
        t0,
    )


def test_criterion_3_oracle_maxima(oracle_runs):
    t0 = time.perf_counter()
    expected = {
        ("cone", 2, 1): 5,
        ("cone", 2, 2): 9,
        ("cone", 3, 1): 13,
        ("cone", 3, 2): 25,
        ("cone", 4, 1): 53,
        ("nondeg", 3, 1): 13,
        ("nondeg", 3, 2): 23,
    }
    ok = True
    for key, value in expected.items():
        ok &= oracle_runs[key].max_count == value
    ok &= oracle_runs[("nondeg", 3, 1)].max_count == sorensen_max(1, 2)
    ok &= oracle_runs[("nondeg", 3, 2)].max_count == sorensen_max(2, 2)
    ok &= oracle_runs[("cone", 3, 2)].max_count == cone_bound(3, 2, 2).value
    ok &= oracle_runs[("cone", 4, 1)].max_count == cone_bound(4, 1, 2).value
    got = {k: r.max_count for k, r in oracle_runs.items()}
    report("3 (exhaustive oracle maxima)", ok, f"{got}", t0)


def test_criterion_4_characterizations(gf4, oracle_runs):
    t0 = time.perf_counter()
    ok = True
    expected_lines = {(2, 1): 1, (2, 2): 2, (3, 1): 3, (3, 2): 6, (4, 1): 13}
    n_maximizers = {}
    for (n, d), lines in expected_lines.items():
        run = oracle_runs[("cone", n, d)]
        cone = make_standard_cone(gf4, n)
        ok &= run.n_maximizers == len(run.maximizers)  # nothing truncated
        n_maximizers[(n, d)] = run.n_maximizers
        basis = monomial_basis(n, d)
        for coeffs in run.maximizers:
            form = HomogeneousForm(basis, coeffs)
            union_ok, got = check_union_of_cone_lines(gf4, cone, form)
            ok &= union_ok and got == lines
            if n == 3:
                ok &= is_cone_with_vertex(gf4, form, cone.vertex)
    # no non-maximizer attains the bound: the oracle's exact tally at the
    # maximum is the full set checked above, and the maximum equals the bound
    ok &= n_maximizers == {(2, 1): 3, (2, 2): 3, (3, 1): 12, (3, 2): 12, (4, 1): 45}
    report("4 (maximizer characterizations)", ok, f"maximizer tallies {n_maximizers}", t0)


def test_criterion_5_exact_code_parameters():
    t0 = time.perf_counter()
    targets = [
        (2, 2, 1, (13, 3, 8)),
        (2, 2, 2, (13, 6, 4)),
        (2, 3, 1, (37, 4, 24)),
        (2, 3, 2, (37, 10, 12)),
        (2, 4, 1, (181, 5, 128)),
        (3, 2, 1, (37, 3, 27)),
        (3, 2, 2, (37, 6, 18)),
    ]
    ok = True
    got = []
    for p, n, d, expected in targets:
        ctx = make_field(p, 1)
        code = build_code(ctx, make_standard_cone(ctx, n), d)
        params = min_distance(ctx, code, "exhaustive_messages")
        theory = theoretical_parameters(n, d, ctx.q)
        ok &= (params.m, params.k, params.dmin) == expected
        ok &= (theory.m, theory.k, theory.dmin) == expected
        ok &= params.dmin_status == "exact"
        got.append(f"q={p},n={n},d={d}:[{params.m},{params.k},{params.dmin}]")
    report("5 (exhaustive code parameters)", ok, "; ".join(got), t0)


def test_criterion_6_witness_weights():
    t0 = time.perf_counter()
    ok = True
    got = []
    cases = [(2, 4, 2, 88), (3, 2, 3, 9), (3, 3, 1, 216), (3, 3, 2, 180), (3, 3, 3, 144)]
    for p, n, d, expected in cases:
        ctx = make_field(p, 1)
        cone = make_standard_cone(ctx, n)
        code = build_code(ctx, cone, d)
        witness = construct_extremal_form(ctx, cone, d)
        params = min_distance(ctx, code, "witness_only", witnesses=[witness.form])
        theory = theoretical_parameters(n, d, ctx.q)
        ok &= params.dmin == expected == theory.dmin
        ok &= params.dmin_status == WITNESS_UPPER_BOUND_ONLY
        got.append(f"q={p},n={n},d={d}:{params.dmin}")
    report("6 (witness weights)", ok, "; ".join(got), t0)


def test_criterion_7_injectivity():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for p in (2, 3):
        ctx = make_field(p, 1)
        for n in (2, 3, 4):
            for d in range(1, min(ctx.q, 2) + 1):
                code = build_code(ctx, make_standard_cone(ctx, n), d)
                ok &= code_dimension(ctx, code) == comb(n + d, d)
                checked += 1
    ctx3 = make_field(3, 1)
    code = build_code(ctx3, make_standard_cone(ctx3, 2), 3)
    ok &= code_dimension(ctx3, code) == comb(5, 3)
    checked += 1
    report("7 (evaluation injectivity)", ok, f"{checked} (n, d, q) cells at full rank", t0)


def test_criterion_8_serre_equality(gf4):
    t0 = time.perf_counter()
    ok = True
    got = []
    for n in (2, 3):
        space = enumerate_points(gf4, n)
        for d in (1, 2):
            duals = [[1, gf4.neg(c)] + [0] * (n - 1) for c in range(d)]
            form = product_of_hyperplanes(gf4, duals)
            count = intersection_count(gf4, form, space)
            expected = d * 4 ** (n - 1) + pi_count(n - 2, 4)
            ok &= count == expected == serre_bound(n, d, 4)
            got.append(f"n={n},d={d}:{count}")
    for d in (1, 2):
        run = bruteforce_max_intersection(gf4, enumerate_points(gf4, 2), 2, d)
        ok &= run.max_count == serre_bound(2, d, 4)
    report("8 (Serre equality constructions)", ok, "; ".join(got), t0)


def test_criterion_9_shard_determinism(tmp_path):
    t0 = time.perf_counter()
    base = ["oracle", "--p", "2", "--e", "1", "--n", "3", "--d", "2"]
    partials = []
    for i in range(4):
        out = tmp_path / f"shard{i}.json"
        assert cli_main(base + ["--shard", f"{i}/4", "--out", str(out)]) == 0
        partials.append(str(out))
    full = tmp_path / "full.json"
    assert cli_main(base + ["--out", str(full)]) == 0
    merged = tmp_path / "merged.json"
    assert cli_main(["merge", *partials, "--out", str(merged)]) == 0
    ok = full.read_bytes() == merged.read_bytes()
    payload = json.loads(full.read_text())
    ok &= payload["result"]["max_count"] == 25
    report(
        "9 (sharded oracle determinism)",
        ok,
        "4-shard merge byte-identical with the unsharded report",
        t0,
    )


def test_criterion_10_bound_table_consistency():
    t0 = time.perf_counter()
    ok = True
    m4 = count_points_formula(4, "rank_n_cone", 2)
    for d in (1, 2):
        ok &= m4 - (1 + 4 * sorensen_max(d, 2)) == theoretical_parameters(4, d, 2).dmin
        ok &= cone_bound(4, d, 2).value == 1 + 4 * sorensen_max(d, 2)
    for q in (2, 3):
        for d in range(1, q + 1):
            ok &= conjectured_max_intersection(3, d, q).value == sorensen_max(d, q)
    report("10 (bound-table self-consistency)", ok, "identities hold exactly", t0)
