"""The table-lookup scan kernel and its zero-count reduction against a
direct reference kernel.

``reference_scan_zero_counts`` is the straightforward kernel: it rebuilds
every coefficient vector of a block and accumulates the forms with
``vmul`` + ``vadd`` over all k rows.  It is slow and allocates a (block, m)
int64 array per step, which is why it lives here and not in the package.
"""

import tracemalloc
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermcodes import (
    BudgetExceededError,
    HermitianVariety,
    bounds,
    bruteforce_max_intersection,
    build_code,
    forms,
    make_field,
    make_nondegenerate,
    make_standard_cone,
    monomial_basis,
    weight_distribution,
)
from hermcodes.bounds import zero_count_summary
from hermcodes.field import code_dtype
from hermcodes.forms import (
    SCAN_TABLE_ELEMS,
    combination_table,
    monomial_values,
    projective_form_count,
    scan_zero_counts,
    segments,
)
from hermcodes.hermitian import congruence_transform
from loop_reference import random_invertible, reference_combination_table


def reference_scan_zero_counts(ctx, values, lo, hi, block=1 << 15):
    """(global start, zero counts) blocks of the forms in [lo, hi); blocks
    start at lo or at a segment start and step by ``block``."""
    k, m = values.shape
    q2 = ctx.q2
    for t, seg_lo, seg_hi in segments(q2, k):
        s0, s1 = max(lo, seg_lo), min(hi, seg_hi)
        for b0 in range(s0, s1, block):
            b1 = min(b0 + block, s1)
            suffix = np.arange(b0 - seg_lo, b1 - seg_lo, dtype=np.int64)
            acc = np.broadcast_to(values[t], (b1 - b0, m)).copy()
            for pos in range(t + 1, k):
                div = q2 ** (k - 1 - pos)
                digits = (suffix // div) % q2
                acc = ctx.vadd(acc, ctx.vmul(digits[:, None], values[pos][None, :]))
            yield b0, (acc == 0).sum(axis=1)


def _collect(scan):
    """(start, length) of each piece and the concatenated zero counts."""
    pieces, counts = [], []
    for start, zeros in scan:
        assert zeros.dtype == np.int64
        pieces.append((start, len(zeros)))
        counts.append(zeros)
    return pieces, (np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64))


def _assert_same(ctx, values, lo, hi):
    """Per-form counts equal the reference, and the kernel's pieces are
    nonempty, contiguous over [lo, hi) clipped to the index space, and never
    cross a segment."""
    _, ref_counts = _collect(reference_scan_zero_counts(ctx, values, lo, hi))
    pieces, counts = _collect(scan_zero_counts(ctx, values, lo, hi))
    assert np.array_equal(counts, ref_counts)
    seg_starts = [seg_lo for _, seg_lo, _ in segments(ctx.q2, values.shape[0])]
    total = projective_form_count(ctx.q2, values.shape[0])
    at = max(lo, 0)
    for start, size in pieces:
        assert start == at and size > 0
        assert bisect_right(seg_starts, start) == bisect_right(seg_starts, start + size - 1)
        at += size
    assert at == max(lo, 0, min(hi, total))


FIELDS = {(p, e): make_field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (17, 1))}


@st.composite
def scan_cases(draw):
    """A field, a random (k, m) value matrix with planted zeros, a global
    range [lo, hi) of at most 2500 forms (possibly empty)."""
    p, e = draw(st.sampled_from(sorted(FIELDS)))
    ctx = FIELDS[(p, e)]
    k = draw(st.integers(1, {4: 6, 9: 5, 16: 4, 289: 3}[ctx.q2]))
    m = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, ctx.q2, size=(k, m))
    values[rng.random((k, m)) < 0.3] = 0
    total = projective_form_count(ctx.q2, k)
    lo = draw(st.integers(0, total))
    hi = draw(st.integers(lo, min(total, lo + 2500)))
    return ctx, values, lo, hi


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_cases())
def test_scan_matches_reference(case):
    _assert_same(*case)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(FIELDS)),
    st.integers(0, 3),
    st.integers(0, 7),
    st.integers(0, 2**32 - 1),
)
def test_combination_table_matches_former_int64_build(field, n_rows, m, seed):
    ctx = FIELDS[field]
    n_rows = min(n_rows, {4: 3, 9: 3, 16: 3, 289: 1}[ctx.q2])
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, ctx.q2, size=(n_rows, m))
    rows[rng.random(rows.shape) < 0.3] = 0
    got = combination_table(ctx, rows)
    want = reference_combination_table(ctx, rows).T  # the kernel's table is point-major
    assert got.dtype == want.dtype == code_dtype(ctx.q2)
    assert got.shape == want.shape == (m, ctx.q2**n_rows) and np.array_equal(got, want)
    # a stack of row sets gives the stack of their tables
    stack = np.stack([rows, rng.integers(0, ctx.q2, size=rows.shape), np.zeros_like(rows)])
    got = combination_table(ctx, stack.reshape(3, 1, n_rows, m))
    assert got.shape == (3, 1, m, ctx.q2**n_rows)
    for table, part in zip(got[:, 0], stack):
        assert np.array_equal(table, reference_combination_table(ctx, part).T)
    # the multiples of the last row gathered one point at a time
    with mock.patch.object(forms, "SCAN_CHUNK_ELEMS", 3 * ctx.q2):
        assert np.array_equal(combination_table(ctx, stack.reshape(3, 1, n_rows, m)), got)


@pytest.mark.parametrize("m", [0, 255, 256, 65535, 65536])
@pytest.mark.parametrize("k", [1, 2])
def test_counts_at_accumulator_dtype_edges(m, k):
    """Code lengths at the edges of the uint8 / uint16 / uint32 count
    accumulators: a form vanishing at all m points counts m, and planted
    zeros match the reference, as int64."""
    ctx = FIELDS[(2, 2)]
    total = projective_form_count(ctx.q2, k)
    zero = np.zeros((k, m), dtype=np.int64)
    _, counts = _collect(scan_zero_counts(ctx, zero, 0, total))
    assert counts.dtype == np.int64 and counts.tolist() == [m] * total
    rng = np.random.default_rng(m + k)
    values = rng.integers(0, ctx.q2, size=(k, m))
    values[:, : m // 2] = 0
    _assert_same(ctx, values, 0, total)


def reference_summary(ctx, values, lo, hi, cap):
    """Histogram of the reference zero counts by ``bincount`` and the
    global indices of the first ``cap`` forms with the largest count."""
    _, counts = _collect(reference_scan_zero_counts(ctx, values, lo, hi))
    hist = np.bincount(counts, minlength=values.shape[1] + 1)
    if not counts.size:
        return hist, []
    return hist, [lo + int(i) for i in np.flatnonzero(counts == counts.max())[:cap]]


def _assert_summary(ctx, values, lo, hi, cap):
    hist, kept = zero_count_summary(ctx, values, lo, hi, cap)
    ref_hist, ref_kept = reference_summary(ctx, values, lo, hi, cap)
    assert hist.dtype == np.int64 and len(hist) == values.shape[1] + 1
    assert np.array_equal(hist, ref_hist)
    assert kept == ref_kept


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_cases(), st.sampled_from([0, 1, 10**9]))
def test_zero_count_summary_matches_reference(case, cap):
    _assert_summary(*case, cap)


def test_zero_count_summary_on_empty_ranges():
    for ctx in FIELDS.values():
        values = np.arange(12).reshape(3, 4) % ctx.q2
        total = projective_form_count(ctx.q2, 3)
        for lo in (0, 1, ctx.q2**2, total):
            for cap in (0, 1, 10**9):
                hist, kept = zero_count_summary(ctx, values, lo, lo, cap)
                assert hist.tolist() == [0] * 5 and kept == []


def test_scan_matches_reference_on_code_matrices():
    """Whole and table-row-splitting ranges of real evaluation codes, where
    the table covers several low digits."""
    for (p, e), n, d in (((2, 1), 3, 2), ((3, 1), 2, 2), ((2, 2), 2, 1)):
        ctx = FIELDS[(p, e)]
        cone = make_standard_cone(ctx, n)
        values = monomial_values(ctx, monomial_basis(n, d), cone.points)
        total = projective_form_count(ctx.q2, values.shape[0])
        if total < 100_000:
            _assert_same(ctx, values, 0, total)
        _assert_same(ctx, values, total // 3 + 1, total // 3 + 40_000)
        _assert_same(ctx, values, total - 30_001, total - 5)


def test_scan_matches_reference_on_wide_matrix():
    """m in the thousands leaves room for only a few low digits, so most
    digits are prefix digits and ranges cut through table rows."""
    ctx = FIELDS[(2, 2)]
    rng = np.random.default_rng(7)
    m = 3001
    values = rng.integers(0, ctx.q2, size=(5, m))
    values[rng.random(values.shape) < 0.2] = 0
    assert ctx.q2**3 * m > SCAN_TABLE_ELEMS
    total = projective_form_count(ctx.q2, 5)
    assert total == 69905
    for lo, hi in ((37, 3000), (65530, 65545), (69000, 69905), (9, 9)):
        _assert_same(ctx, values, lo, hi)


def test_scan_memory_is_bounded_on_long_code():
    """A few thousand classes of the GF(16) rank-4 cone code (m = 17681)
    stay far below the (block, m) int64 temporaries of a direct kernel."""
    ctx = make_field(2, 2)
    cone = make_standard_cone(ctx, 4)
    values = monomial_values(ctx, monomial_basis(4, 1), cone.points)
    assert values.shape == (5, 17681)
    tracemalloc.start()
    try:
        classes = sum(len(z) for _, z in scan_zero_counts(ctx, values, 1000, 4000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classes == 3000
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# The d = 1 cone route: one scan of the base U
# ---------------------------------------------------------------------------

# (p, e, n): every d = 1 standard-cone cell the other tier-1 tests scan,
# and GF(16) at n = 2, 3.
D1_CONE_CELLS = [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (3, 1, 4), (2, 2, 2), (2, 2, 3)
]


def _point_scan(ctx, cone, lo, hi):
    """(pieces, counts) of the kernel over all of the cone's points."""
    values = monomial_values(ctx, monomial_basis(cone.n, 1), cone.points)
    return _collect(scan_zero_counts(ctx, values, lo, hi))


@pytest.mark.parametrize("p,e,n", D1_CONE_CELLS)
def test_cone_fibre_counts_match_the_point_scan(p, e, n):
    # every class of the cell, and ranges that start and end inside segments
    ctx = make_field(p, e)
    cone = make_standard_cone(ctx, n)
    total = projective_form_count(ctx.q2, n + 1)
    for lo, hi in ((0, total), (1, total - 1), (total // 3 + 1, total - ctx.q2 - 2), (5, 5)):
        pieces, counts = _collect(bounds.cone_fibre_counts(ctx, cone, lo, hi))
        assert np.array_equal(counts, _point_scan(ctx, cone, lo, hi)[1])
        assert [start for start, _ in pieces] == list(np.cumsum([lo] + [n for _, n in pieces])[:-1])


@pytest.mark.parametrize("p,e,n", D1_CONE_CELLS[:6])
def test_d1_cone_weight_distribution_and_oracle_match_the_point_route(p, e, n):
    ctx = make_field(p, e)
    cone = make_standard_cone(ctx, n)
    code = build_code(ctx, cone, 1)
    total = projective_form_count(ctx.q2, n + 1)
    hist, _ = zero_count_summary(ctx, code.generator, 0, total, cap=0)
    want = {code.m - z: int(hist[z]) for z in range(code.m, -1, -1) if hist[z]}
    assert weight_distribution(ctx, code) == want
    # the raw point array takes the point scan; the cone takes its base
    for cap in (10_000, 1):
        assert bruteforce_max_intersection(ctx, cone, n, 1, cap=cap) == (
            bruteforce_max_intersection(ctx, cone.points, n, 1, cap=cap)
        )


def test_sharded_fibre_oracle_equals_the_unsharded_run():
    # q = 3 (3, 1): segments [0, 729), [729, 810), [810, 819), [819, 820);
    # shard edges fall inside every segment but the last
    ctx = make_field(3, 1)
    cone = make_standard_cone(ctx, 3)
    full = bruteforce_max_intersection(ctx, cone, 3, 1)
    edges = set()
    for count in (3, 7, 100):
        parts = [bruteforce_max_intersection(ctx, cone, 3, 1, shard=(i, count)) for i in range(count)]
        assert bounds.merge_oracle_results(parts) == full
        edges |= {part.lo for part in parts}
    inside = [any(lo < edge < hi for edge in edges) for _, lo, hi in segments(ctx.q2, 4)]
    assert inside == [True, True, True, False]


def _scanned_widths(monkeypatch):
    """Patch ``bounds.scan_zero_counts`` to record the width of each value
    matrix it scans, and return that record."""
    widths, real = [], bounds.scan_zero_counts

    def recording(ctx, values, lo, hi):
        widths.append(values.shape[1])
        return real(ctx, values, lo, hi)

    monkeypatch.setattr(bounds, "scan_zero_counts", recording)
    return widths


def test_only_the_d1_standard_cone_scans_its_base(monkeypatch):
    ctx = make_field(2, 1)
    cone = make_standard_cone(ctx, 3)
    s = random_invertible(ctx, 4, np.random.default_rng(3))
    congruent = HermitianVariety(ctx, congruence_transform(ctx, cone.matrix, s))
    widths = _scanned_widths(monkeypatch)
    bruteforce_max_intersection(ctx, cone, 3, 1)
    weight_distribution(ctx, build_code(ctx, cone, 1))
    assert widths == [len(cone.base.points)] * 2 == [9, 9]
    widths.clear()
    bruteforce_max_intersection(ctx, cone, 3, 2)
    bruteforce_max_intersection(ctx, congruent, 3, 1)
    bruteforce_max_intersection(ctx, HermitianVariety(ctx, cone.matrix), 3, 1)
    bruteforce_max_intersection(ctx, make_nondegenerate(ctx, 3), 3, 1)
    weight_distribution(ctx, build_code(ctx, congruent, 1))
    assert widths == [37, 37, 37, 45, 37]


def test_fibre_route_is_priced_by_its_base_points():
    # q = 2 (2, 1): 21 classes x 3 base points = 63 evaluations (the point
    # scan would take 21 x 13 = 273)
    ctx = make_field(2, 1)
    cone = make_standard_cone(ctx, 2)
    assert bruteforce_max_intersection(ctx, cone, 2, 1, budget=63).max_count == 5
    with pytest.raises(BudgetExceededError, match="scan needs 63 form evaluations > budget 62"):
        bruteforce_max_intersection(ctx, cone, 2, 1, budget=62)
    with pytest.raises(BudgetExceededError, match="scan needs 273 form evaluations"):
        bruteforce_max_intersection(ctx, cone.points, 2, 1, budget=272)
