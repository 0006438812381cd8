"""Evaluation codes: generator matrices, dimensions, exact distances,
weight tallies, and the closed-form parameter table."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from hermcodes import (
    BudgetExceededError,
    bruteforce_max_intersection,
    build_code,
    code_dimension,
    construct_extremal_form,
    linalg,
    make_field,
    make_standard_cone,
    min_distance,
    theoretical_parameters,
    weight_distribution,
)
from hermcodes.codes import EXACT, WITNESS_UPPER_BOUND_ONLY, write_generator_matrix
from hermcodes.bounds import cone_fibre_counts, fibre_root_counts
from hermcodes.forms import (
    coeffs_at_indices,
    monomial_basis,
    monomial_values,
    projective_form_count,
    scan_zero_counts,
)
from hermcodes.linalg import SAMPLE_COLS_PER_ROW, matrix_rank


def test_generator_shapes(gf4):
    assert build_code(gf4, make_standard_cone(gf4, 2), 1).generator.shape == (3, 13)
    assert build_code(gf4, make_standard_cone(gf4, 3), 2).generator.shape == (10, 37)
    assert build_code(gf4, make_standard_cone(gf4, 4), 1).generator.shape == (5, 181)


@pytest.mark.parametrize("p,n,d", [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 2, 3)])
def test_dimension_is_full(p, n, d):
    ctx = make_field(p, 1)
    code = build_code(ctx, make_standard_cone(ctx, n), d)
    assert code_dimension(ctx, code) == comb(n + d, d)


def test_generator_is_stored_in_the_code_dtype(gf16):
    """The GF(16) rank-4 cone code at d = 4 keeps its 70 x 17,681 generator
    in uint8, one byte per code, and builds it without an int64 copy."""
    cone = make_standard_cone(gf16, 4)
    cone.points  # enumerated before the trace: only the build is measured
    tracemalloc.start()
    try:
        code = build_code(gf16, cone, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code.generator.shape == (70, 17681) and code.generator.dtype == np.uint8
    assert code.generator.nbytes == 1_237_670
    assert peak < 4 * 2**20
    assert code_dimension(gf16, code) == 70


def test_rank_unchanged_by_duplicated_rows(gf4):
    code = build_code(gf4, make_standard_cone(gf4, 2), 1)
    doubled = np.vstack([code.generator, code.generator])
    assert matrix_rank(gf4, doubled) == code_dimension(gf4, code)


@pytest.mark.parametrize(
    "p,e,n,d", [(3, 1, 4, 1), (2, 2, 3, 1), (3, 1, 4, 3), (2, 2, 4, 1), (2, 2, 4, 4)]
)
def test_dimension_certified_by_the_column_sample(p, e, n, d, monkeypatch):
    """The wide generator matrices of the params/construct cells in the
    benchmark's large-variety workload reach full row rank on the rank
    sample alone, so code_dimension never eliminates every column there."""
    ctx = make_field(p, e)
    code = build_code(ctx, make_standard_cone(ctx, n), d)
    rows, cols = code.generator.shape
    stride = cols // (SAMPLE_COLS_PER_ROW * rows)
    assert stride > 1
    calls = []
    real = linalg.row_reduce
    monkeypatch.setattr(linalg, "row_reduce", lambda c, m: calls.append(m.shape) or real(c, m))
    assert code_dimension(ctx, code) == rows == comb(n + d, d)
    assert calls == [(rows, -(-cols // stride))]


def fibre_zero_counts(ctx, cone, d, lo, hi):
    """Zero counts on the cone of the form classes [lo, hi), one route that
    shares no kernel with the scan: [F(v) = 0] plus, over the cone points P
    with x_j = 0 (one per generator line; v_j = 1 is the vertex's last
    nonzero coordinate), the zeros of F(P + t v) in t, read from
    :func:`bounds.fibre_root_counts`."""
    basis = monomial_basis(cone.n, d)
    base = cone.points[cone.points[:, np.flatnonzero(cone.vertex)[-1]] == 0]
    counts = []
    for start in range(lo, hi, 1 << 16):  # keep the coefficient stacks small
        coeffs = coeffs_at_indices(ctx.q2, len(basis), np.arange(start, min(hi, start + (1 << 16))))
        for _, at_vertex, roots in fibre_root_counts(ctx, basis, coeffs, base, cone.vertex):
            counts.append(at_vertex + roots.sum(axis=1, dtype=np.int64))
    return np.concatenate(counts)


def test_min_distance_modes_agree(gf4):
    cone = make_standard_cone(gf4, 2)
    for d in (1, 2):
        code = build_code(gf4, cone, d)
        via_messages = min_distance(gf4, code, "exhaustive_messages")
        oracle = bruteforce_max_intersection(gf4, code.points, code.n, code.d)
        assert via_messages.dmin == code.m - oracle.max_count
        assert via_messages.dmin_status == EXACT
        # an independent route: the fibre count over every class
        total = projective_form_count(gf4.q2, len(monomial_basis(2, d)))
        assert via_messages.dmin == code.m - fibre_zero_counts(gf4, cone, d, 0, total).max()


@pytest.mark.parametrize("p,n,d", [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_fibre_zero_counts_match_the_scan(p, n, d):
    # every class of the cell: the scan kernel and the fibre count agree
    ctx = make_field(p, 1)
    cone = make_standard_cone(ctx, n)
    basis = monomial_basis(n, d)
    total = projective_form_count(ctx.q2, len(basis))
    values = monomial_values(ctx, basis, cone.points)
    for start, zeros in scan_zero_counts(ctx, values, 0, total):
        assert np.array_equal(fibre_zero_counts(ctx, cone, d, start, start + len(zeros)), zeros)


def test_cone_fibre_counts_match_the_root_count_route():
    # q = 3 (4, 1), every class: the base scan against the value_blocks
    # gather of fibre_root_counts, which shares no kernel with it
    ctx = make_field(3, 1)
    cone = make_standard_cone(ctx, 4)
    total = projective_form_count(ctx.q2, 5)
    counts = np.concatenate([z for _, z in cone_fibre_counts(ctx, cone, 0, total)])
    assert len(counts) == total == 7381
    assert np.array_equal(counts, fibre_zero_counts(ctx, cone, 1, 0, total))


@pytest.mark.parametrize(
    "p,n,d,expected",
    [
        (2, 2, 1, (13, 3, 8)),
        (2, 2, 2, (13, 6, 4)),
        (2, 3, 1, (37, 4, 24)),
        (3, 2, 1, (37, 3, 27)),
    ],
)
def test_exact_parameters(p, n, d, expected):
    ctx = make_field(p, 1)
    code = build_code(ctx, make_standard_cone(ctx, n), d)
    params = min_distance(ctx, code, "exhaustive_messages")
    assert (params.m, params.k, params.dmin) == expected
    theory = theoretical_parameters(n, d, ctx.q)
    assert (theory.m, theory.k, theory.dmin) == expected
    assert params.dmin <= params.m - params.k + 1


def test_min_distance_budget_refusal(gf4):
    code = build_code(gf4, make_standard_cone(gf4, 2), 2)
    for budget in (100, 0):
        with pytest.raises(BudgetExceededError):
            weight_distribution(gf4, code, budget=budget)
    with pytest.raises(ValueError):
        min_distance(gf4, code, "witness_only")
    for mode in ("nonsense", "exhaustive_forms"):
        with pytest.raises(ValueError):
            min_distance(gf4, code, mode)


def test_witness_mode(gf4):
    cone = make_standard_cone(gf4, 4)
    code = build_code(gf4, cone, 2)
    witness = construct_extremal_form(gf4, cone, 2)
    params = min_distance(gf4, code, "witness_only", witnesses=[witness.form])
    assert params.dmin == 88
    assert params.dmin_status == WITNESS_UPPER_BOUND_ONLY
    # witness dominance: no sampled codeword beats the witness weight
    rng = np.random.default_rng(29)
    for _ in range(300):
        message = rng.integers(0, 4, size=code.n_rows).astype(np.int64)
        if not message.any():
            continue
        word = np.zeros(code.m, dtype=np.int64)
        for i, c in enumerate(message):
            if c:
                word = gf4.vadd(word, gf4.vmul(int(c), code.generator[i]))
        assert int((word != 0).sum()) >= 88


def test_weight_distribution_plane_cone(gf4):
    # hand enumeration for C_1 on the plane cone: the 3 generator lines give
    # weight 8, the 16 lines off the vertex weight 10, the other 2 lines
    # through the vertex weight 12
    code = build_code(gf4, make_standard_cone(gf4, 2), 1)
    dist = weight_distribution(gf4, code)
    assert dist == {8: 3, 10: 16, 12: 2}
    assert sum(dist.values()) == projective_form_count(4, 3) == 21
    assert min(dist) == min_distance(gf4, code).dmin
    # full weight m would mean some form misses every rational point
    assert 13 not in dist


def test_weight_distribution_totals(gf9):
    code = build_code(gf9, make_standard_cone(gf9, 2), 1)
    dist = weight_distribution(gf9, code)
    assert sum(dist.values()) == projective_form_count(9, 3) == 91
    assert min(dist) == 27


def test_theoretical_parameters_table():
    t = theoretical_parameters(4, 2, 2)
    assert (t.m, t.k, t.dmin, t.dmin_kind) == (181, 15, 88, "exact")
    t = theoretical_parameters(2, 1, 3)
    assert (t.m, t.k, t.dmin) == (37, 3, 27)
    t = theoretical_parameters(3, 3, 3)
    assert (t.m, t.k, t.dmin) == (253, 20, 144)
    with pytest.raises(ValueError):
        theoretical_parameters(1, 1, 2)
    with pytest.raises(ValueError):
        theoretical_parameters(3, 3, 2)  # d > q is outside the regime


def test_theoretical_parameters_high_dimension():
    # n = 5: distance is only bounded below, through the known base maximum
    t = theoretical_parameters(5, 2, 2)
    assert t.dmin_kind == "lower_bound"
    assert t.m == 1 + 4 * 165  # cone over the nondegenerate threefold count
    assert t.dmin is not None
    # open cell: d = 4 needs q >= 4 and has no proven base maximum
    t = theoretical_parameters(5, 4, 5)
    assert t.dmin is None and t.dmin_kind == "unknown"
    t = theoretical_parameters(5, 4, 5, assume_conjecture=True)
    assert t.dmin is not None and t.provenance == "conjecture"


def test_generator_matrix_file(gf4, tmp_path):
    code = build_code(gf4, make_standard_cone(gf4, 2), 1)
    path = tmp_path / "generator.txt"
    write_generator_matrix(code, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 1 2 1 1,1,1 13 3"
    assert len(lines) == 1 + 3
    first_row = [int(tok) for tok in lines[1].split()]
    assert first_row == [int(c) for c in code.generator[0]]


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4)])
def test_generator_matrix_file_matches_per_entry_formatting(p, e, tmp_path):
    # GF(4) and GF(256), whose codes reach 255, the last uint8 code
    ctx = make_field(p, e)
    code = build_code(ctx, make_standard_cone(ctx, 2), 1)
    if ctx.q2 == 256:
        assert code.generator.max() == 255
    path = tmp_path / "generator.txt"
    write_generator_matrix(code, path)
    header = (
        f"{code.n} {code.d} {ctx.p} {ctx.e} {ctx.modulus_token()} {code.m} "
        f"{code_dimension(ctx, code)}\n"
    )
    rows = "".join(" ".join(str(int(c)) for c in row) + "\n" for row in code.generator)
    assert path.read_bytes() == (header + rows).encode()
