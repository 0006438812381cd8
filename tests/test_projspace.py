import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_reference import (
    reference_incidence,
    reference_incidence_matrix,
    reference_incidence_values,
    reference_iter_all_lines,
    reference_line_through,
)
from hermcodes import BudgetExceededError, make_field, pi_count
from hermcodes import projspace, verify
from hermcodes.projspace import (
    all_lines,
    check_point_budget,
    enumerate_hyperplanes,
    enumerate_points,
    hyperplane_point_counts,
    incidence_matrix,
    line_through,
    normalize_rows,
    normalize_vector,
    point_index,
)


def test_pi_count_values():
    assert pi_count(-1, 4) == 0
    assert pi_count(0, 4) == 1
    assert pi_count(2, 4) == 21
    assert pi_count(4, 9) == 7381
    with pytest.raises(ValueError):
        pi_count(-2, 4)


def test_projective_line_gf4(gf4):
    pts = enumerate_points(gf4, 1)
    assert pts.tolist() == [[0, 1], [1, 0], [1, 1], [2, 1], [3, 1]]


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (2, 1, 4), (3, 1, 2), (3, 1, 4)])
def test_point_counts_and_normalization(p, e, n):
    ctx = make_field(p, e)
    pts = enumerate_points(ctx, n)
    assert len(pts) == pi_count(n, ctx.q2)
    as_tuples = [tuple(row) for row in pts.tolist()]
    assert len(set(as_tuples)) == len(pts)
    assert as_tuples == sorted(as_tuples)  # canonical lexicographic order
    for row in pts:
        nz = [c for c in row if c]
        assert nz and row[max(i for i, c in enumerate(row) if c)] == 1


def test_enumeration_reproducible(gf4):
    a = enumerate_points(gf4, 2)
    b = enumerate_points(gf4, 2)
    assert np.array_equal(a, b)


def test_enumerate_points_returns_a_fresh_read_only_array(gf4, gf9):
    for ctx, n in [(gf4, 1), (gf4, 2), (gf9, 2), (gf4, 3), (gf9, 1)]:
        pts = enumerate_points(ctx, n)
        assert np.array_equal(pts, reference_enumerate_points(ctx, n))
        assert not pts.flags.writeable
        assert enumerate_points(ctx, n) is not pts


def test_enumeration_budget(gf4):
    with pytest.raises(BudgetExceededError):
        check_point_budget(gf4, 3, budget=10)


def reference_enumerate_points(ctx, n):
    """The former tuple walk: every q^2^(n+1) coordinate tuple in
    lexicographic order, keeping those whose last nonzero entry is 1."""
    pts = []
    for tup in itertools.product(range(ctx.q2), repeat=n + 1):
        last = next((c for c in reversed(tup) if c), 0)
        if last == 1:
            pts.append(tup)
    return np.array(pts, dtype=np.int64)


@pytest.mark.parametrize(
    "p,e,n",
    [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 3), (2, 1, 6), (2, 2, 4), (5, 1, 3), (17, 1, 1)],
)
def test_enumeration_matches_tuple_walk(p, e, n):
    ctx = make_field(p, e)
    pts = enumerate_points(ctx, n)
    want = reference_enumerate_points(ctx, n)
    assert pts.dtype == want.dtype and pts.shape == want.shape
    assert np.array_equal(pts, want)
    assert not pts.flags.writeable


def test_enumeration_budget_counts_raw_tuples(gf4):
    check_point_budget(gf4, 3, budget=4**4)
    with pytest.raises(BudgetExceededError, match="scans 256 tuples > budget 255"):
        check_point_budget(gf4, 3, budget=4**4 - 1)
    with pytest.raises(ValueError):
        enumerate_points(gf4, 0)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda pts: pts[::-1],  # order reversed
        lambda pts: pts[1:],  # a point missing
        lambda pts: np.concatenate([pts[:1], pts[:-1]]),  # a point repeated
        lambda pts: np.where(pts == 1, 2, pts),  # not normalized
        lambda pts: np.concatenate([np.zeros_like(pts[:1]), pts[1:]]),  # the zero vector
        lambda pts: pts + (np.arange(len(pts)) == len(pts) - 1)[:, None] * [0, 4, 0],
        # ^ the last point [3, 3, 1] becomes [3, 7, 1]: keys still increase
    ],
)
def test_point_enumeration_check_is_not_vacuous(gf4, monkeypatch, corrupt):
    good = verify.check_point_enumeration(gf4, 2)
    assert good.passed
    assert good.detail == "|P^2(GF(4))| = 21 = pi_2, order reproducible"
    bad_points = corrupt(np.array(enumerate_points(gf4, 2)))
    monkeypatch.setattr(verify, "enumerate_points", lambda ctx, n: bad_points)
    assert not verify.check_point_enumeration(gf4, 2).passed


# Every P^n(GF(q^2)) the tier-1 suite enumerates, as (p, e, n), and P^5(GF(9)).
ENUMERATED_SPACES = [
    *[(2, 1, n) for n in (1, 2, 3, 4, 6, 7)],
    *[(2, 2, n) for n in (1, 2, 3, 4)],
    (2, 3, 3),
    *[(3, 1, n) for n in (1, 2, 3, 4, 5)],
    *[(5, 1, n) for n in (1, 2, 3, 4)],
    (11, 1, 2),
    (17, 1, 1),
]


@pytest.mark.parametrize("p,e,n", ENUMERATED_SPACES)
def test_point_index_is_the_enumeration_position(p, e, n):
    ctx = make_field(p, e)
    pts = enumerate_points(ctx, n)
    assert np.array_equal(point_index(ctx, pts), np.arange(pi_count(n, ctx.q2)))


@st.composite
def normalized_points(draw):
    """1-20 normalized points of P^n, n = 1..5, over GF(4), GF(9), GF(16) or
    GF(25), drawn as nonzero coordinate tuples."""
    ctx = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    n = draw(st.integers(1, 5))
    coords = st.lists(st.integers(0, ctx.q2 - 1), min_size=n + 1, max_size=n + 1).filter(any)
    rows = draw(st.lists(coords, min_size=1, max_size=20))
    return ctx, n, normalize_rows(ctx, rows)


@settings(max_examples=150, deadline=None)
@given(normalized_points())
def test_point_index_orders_points_as_coordinate_tuples(case):
    ctx, n, rows = case
    index = point_index(ctx, rows).tolist()
    assert all(0 <= i < pi_count(n, ctx.q2) for i in index)
    # one position per distinct point, increasing with the tuples
    by_index = sorted(set(zip(index, map(tuple, rows.tolist()))))
    assert [t for _, t in by_index] == sorted(set(map(tuple, rows.tolist())))
    assert len({i for i, _ in by_index}) == len(by_index)


def test_point_index_takes_stacks(gf9):
    pts = enumerate_points(gf9, 3)[:60]
    assert point_index(gf9, pts.reshape(3, 4, 5, 4)).shape == (3, 4, 5)
    assert np.array_equal(point_index(gf9, pts.reshape(3, 20, 4)), np.arange(60).reshape(3, 20))
    assert point_index(gf9, pts[7]).shape == () and point_index(gf9, pts[7]) == 7


def mutant_point_index(shift, count):
    """point_index with N_(t + shift) for N_t, and the nonzero-count term
    dropped unless ``count``."""

    def point_index(ctx, rows):
        rows = np.asarray(rows, dtype=np.int64)
        t = np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64) + shift
        sizes = (ctx.q2**t - 1) // (ctx.q2 - 1)
        return (rows * sizes).sum(axis=-1) + count * np.count_nonzero(rows, axis=-1) - 1

    return point_index


def fails(run) -> bool:
    try:
        return not run()
    except IndexError:  # a position past the enumeration
        return True


@pytest.mark.parametrize("shift,count", [(1, True), (0, False)])
def test_point_index_mutants_are_caught(gf4, gf9, monkeypatch, shift, count):
    def runs(ctx):
        walk = np.array(list(reference_iter_all_lines(ctx, 2)))
        return [
            lambda: verify.check_point_enumeration(ctx, 2).passed,
            lambda: verify.check_section_dichotomy(ctx, 2).passed,
            lambda: np.array_equal(enumerate_points(ctx, 2)[all_lines(ctx, 2)], walk),
        ]

    cases = runs(gf4) + runs(gf9)
    assert not any(fails(run) for run in cases)
    for module in (projspace, verify):
        monkeypatch.setattr(module, "point_index", mutant_point_index(shift, count))
    assert all(fails(run) for run in cases)


def test_normalize_vector(gf4):
    assert normalize_vector(gf4, (0, 2, 0)) == (0, 1, 0)
    assert normalize_vector(gf4, (2, 3, 0)) == (3, 1, 0)  # scale by inv(3) = 2
    with pytest.raises(ValueError):
        normalize_vector(gf4, (0, 0, 0))


def test_incidence_basics(gf4):
    # [0:0:1] lies on x0 = 0, [1:0:0] does not
    assert incidence_matrix(gf4, [(0, 0, 1), (1, 0, 0)], [(1, 0, 0)]).tolist() == [[True], [False]]
    with pytest.raises(ValueError):
        incidence_matrix(gf4, [(1, 0)], [(1, 0, 0)])


def test_incidence_counts_plane(gf4):
    pts = enumerate_points(gf4, 2)
    hyps = enumerate_hyperplanes(gf4, 2)
    assert len(hyps) == 21
    per_point = np.zeros(len(pts), dtype=int)
    for h in hyps:
        mask = incidence_matrix(gf4, pts, [h])[:, 0]
        assert int(mask.sum()) == pi_count(1, 4)  # each line holds 5 points
        per_point += mask
    assert (per_point == pi_count(1, 4)).all()  # each point on 5 lines


@pytest.mark.parametrize("p,n", [(2, 2), (2, 4), (3, 2)])
def test_hyperplanes_missing_a_point(p, n):
    ctx = make_field(p, 1)
    fixed = enumerate_points(ctx, n)[0]
    missing = int((~incidence_matrix(ctx, [fixed], enumerate_hyperplanes(ctx, n))).sum())
    assert missing == ctx.q2**n


def test_two_point_hyperplane_count(gf4):
    # through two fixed points of P^4 there are pi_2 hyperplanes, so a point
    # pair splits the pi_3 hyperplanes through one of them as q^6 + pi_2
    pts = enumerate_points(gf4, 4)
    a, b = pts[0], pts[100]
    on_a, on_b = incidence_matrix(gf4, [a, b], enumerate_hyperplanes(gf4, 4))
    through_a, both = int(on_a.sum()), int((on_a & on_b).sum())
    assert through_a == pi_count(3, 4)
    assert both == pi_count(2, 4)
    assert through_a - both == 4**3


def test_line_through(gf4, gf9):
    pts = enumerate_points(gf4, 2)
    line = line_through(gf4, pts[0], pts[1])
    assert line.shape == (5, 3)
    assert np.array_equal(line, line_through(gf4, pts[1], pts[0]))
    with pytest.raises(ValueError):
        line_through(gf4, pts[0], pts[0])
    # collinearity: the line lies on every hyperplane through both points
    hyps = enumerate_hyperplanes(gf4, 2)
    through = hyps[incidence_matrix(gf4, pts[:2], hyps).all(axis=0)]
    assert len(through) == 1 and incidence_matrix(gf4, line, through).all()
    pts9 = enumerate_points(gf9, 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        i, j = rng.choice(len(pts9), size=2, replace=False)
        line9 = line_through(gf9, pts9[i], pts9[j])
        assert len(line9) == 10
        assert np.array_equal(line9, line_through(gf9, pts9[j], pts9[i]))


# ---------------------------------------------------------------------------
# Direct line enumeration and batched incidence against the former loops
# ---------------------------------------------------------------------------


def gaussian_binomial_2(n, s):
    """Number of lines of P^n over a field of size s."""
    return (s ** (n + 1) - 1) * (s**n - 1) // ((s * s - 1) * (s - 1))


@pytest.mark.parametrize(
    "p,e,n", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (2, 2, 2), (5, 1, 2)]
)
def test_all_lines_match_the_pair_walk(p, e, n):
    ctx = make_field(p, e)
    pts = enumerate_points(ctx, n)
    lines = all_lines(ctx, n)
    assert lines.dtype == np.int64
    assert lines.shape == (gaussian_binomial_2(n, ctx.q2), ctx.q2 + 1)
    # same lines, same point order within each, same order of lines
    walk = list(reference_iter_all_lines(ctx, n, line_through=line_through))
    assert len(walk) == len(lines)
    for line, want in zip(lines, walk):
        assert np.array_equal(pts[line], want)
    # verify's iterator hands out the same rows in blocks
    assert np.array_equal(np.concatenate(list(verify.iter_all_lines(ctx, n))), lines)


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_all_lines_match_the_scalar_walk(p, e, n):
    ctx = make_field(p, e)
    pts = enumerate_points(ctx, n)
    walk = list(reference_iter_all_lines(ctx, n))
    assert [pts[line].tolist() for line in all_lines(ctx, n)] == [w.tolist() for w in walk]


def test_all_lines_holds_a_few_results_at_once(gf9):
    # the 7,462 lines of P^3(GF(9)) take 0.57 MiB; a block of their spans
    # and positions takes about four quarter-CHUNK_ELEMS arrays on top of the
    # result and the echelon pairs (full CHUNK_ELEMS temporaries took 9.1 MiB)
    tracemalloc.start()
    try:
        lines = all_lines(gf9, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines.shape == (7462, 10)
    assert peak <= min(5 * lines.nbytes, 3 * 2**20)


def test_all_lines_budget(gf4):
    size = gaussian_binomial_2(3, 4) * 5
    assert len(all_lines(gf4, 3, budget=size)) == size // 5
    with pytest.raises(BudgetExceededError, match=f"visits {size} points > budget {size - 1}"):
        all_lines(gf4, 3, budget=size - 1)
    with pytest.raises(BudgetExceededError):
        all_lines(gf4, 3, budget=4**4 - 1)  # the point enumeration itself
    with pytest.raises(ValueError, match="n must be >= 1"):
        all_lines(gf4, 0)


def test_all_lines_budget_ignores_the_point_cache(gf4):
    # P^1(GF(4)) has one line of 5 points, but its enumeration scans 16 tuples;
    # an earlier enumeration of the same space does not lower that charge
    enumerate_points(gf4, 1)
    with pytest.raises(BudgetExceededError, match="scans 16 tuples"):
        all_lines(gf4, 1, budget=15)
    assert all_lines(gf4, 1, budget=16).tolist() == [[0, 1, 2, 3, 4]]


@st.composite
def point_pairs(draw):
    """Two distinct points of P^n, n = 2..4, over GF(4), GF(9), GF(16) or
    GF(25), each scaled by a nonzero constant."""
    ctx = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    n = draw(st.integers(2, 4))
    pts = enumerate_points(ctx, n)
    i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True))
    s, t = draw(st.integers(1, ctx.q2 - 1)), draw(st.integers(1, ctx.q2 - 1))
    return ctx, n, ctx.vmul(s, pts[i]), ctx.vmul(t, pts[j])


@settings(max_examples=100, deadline=None)
@given(point_pairs())
def test_line_through_matches_scalar_loop(case):
    ctx, n, a, b = case
    line = line_through(ctx, a, b)
    want = reference_line_through(ctx, a, b)
    assert line.dtype == want.dtype and np.array_equal(line, want)
    assert np.array_equal(line, line_through(ctx, b, a))
    assert (np.diff(point_index(ctx, line)) > 0).all()
    with pytest.raises(ValueError):
        line_through(ctx, a, ctx.vmul(2, a))


@st.composite
def point_pair_stacks(draw):
    """A stack of 1-6 pairs of distinct points of P^n, n = 2..4, over GF(4),
    GF(9), GF(16) or GF(25), each point scaled by a nonzero constant."""
    ctx = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    n = draw(st.integers(2, 4))
    pts = enumerate_points(ctx, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    pairs = pts[np.array([rng.choice(len(pts), size=2, replace=False) for _ in range(size)])]
    pairs = ctx.vmul(rng.integers(1, ctx.q2, size=(size, 2, 1)), pairs)
    return ctx, n, pairs[:, 0], pairs[:, 1], rng


@settings(max_examples=60, deadline=None)
@given(point_pair_stacks())
def test_stacked_line_through_matches_per_pair_loop(case):
    ctx, n, a, b, rng = case
    lines = line_through(ctx, a, b)
    assert lines.shape == (len(a), ctx.q2 + 1, n + 1)
    for x, y, line in zip(a, b, lines):
        assert np.array_equal(line, reference_line_through(ctx, x, y))
    assert np.array_equal(line_through(ctx, b, a), lines)
    # a stack of one keeps its stack axis; leading axes may be several
    assert np.array_equal(line_through(ctx, a[:1], b[:1]), lines[:1])
    assert np.array_equal(line_through(ctx, a[:, None], b[:, None])[:, 0], lines)
    # one pair coinciding up to scalar spoils the whole stack
    k = int(rng.integers(len(a)))
    same = b.copy()
    same[k] = ctx.vmul(int(rng.integers(1, ctx.q2)), a[k])
    with pytest.raises(ValueError, match="distinct"):
        line_through(ctx, a, same)


@settings(max_examples=60, deadline=None)
@given(point_pairs(), st.integers(0, 2**32 - 1))
def test_incidence_matrix_matches_scalar_loop(case, seed):
    ctx, n, a, b = case
    rng = np.random.default_rng(seed)
    pts = enumerate_points(ctx, n)
    points = np.concatenate([[a, b], pts[rng.choice(len(pts), size=6, replace=False)]])
    duals = pts[rng.choice(len(pts), size=min(len(pts), 30), replace=False)]
    on = incidence_matrix(ctx, points, duals)
    assert on.shape == (len(points), len(duals)) and on.dtype == bool
    want = [[reference_incidence(ctx, x, u) for u in duals] for x in points]
    assert on.tolist() == want
    assert np.array_equal(on[:, 0], reference_incidence_values(ctx, points, duals[0]) == 0)


INCIDENCE_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(17, 1)]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(INCIDENCE_FIELDS),
    st.integers(1, 4),
    st.integers(0, 12),
    st.integers(0, 12),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_incidence_matrix_matches_former_loop(ctx, n, n_points, n_duals, chunk, seed):
    """Unnormalized points and duals with planted zeros, cut into blocks of
    every size: the mat_mul product against the per-coordinate vmul/vadd sum."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, ctx.q2, size=(n_points, n + 1))
    duals = rng.integers(0, ctx.q2, size=(n_duals, n + 1))
    points[rng.random(points.shape) < 0.4] = 0
    duals[rng.random(duals.shape) < 0.4] = 0
    with mock.patch.object(projspace, "CHUNK_ELEMS", chunk):
        got = incidence_matrix(ctx, points, duals)
    want = reference_incidence_matrix(ctx, points, duals, chunk)
    assert got.shape == want.shape and got.dtype == bool and np.array_equal(got, want)


def test_incidence_matrix_chunks_and_shapes(gf4, monkeypatch):
    from hermcodes import projspace

    pts = enumerate_points(gf4, 3)
    whole = incidence_matrix(gf4, pts, pts)
    monkeypatch.setattr(projspace, "CHUNK_ELEMS", 7)
    assert np.array_equal(incidence_matrix(gf4, pts, pts), whole)
    assert np.array_equal(whole, whole.T)
    assert (whole.sum(axis=0) == pi_count(2, 4)).all()
    assert incidence_matrix(gf4, pts[:0], pts).shape == (0, len(pts))
    assert incidence_matrix(gf4, pts, pts[:0]).shape == (len(pts), 0)
    with pytest.raises(ValueError):
        incidence_matrix(gf4, pts, enumerate_points(gf4, 2))


@settings(max_examples=60, deadline=None)
@given(point_pairs(), st.integers(0, 2**32 - 1))
def test_hyperplane_point_counts_match_scalar_loop(case, seed):
    ctx, n, a, b = case
    rng = np.random.default_rng(seed)
    pts = enumerate_points(ctx, n)
    picks = rng.choice(len(pts), size=min(len(pts), 40), replace=False)
    points = np.concatenate([[a, b], pts[picks]])
    # unnormalized, repeated and out-of-order duals, spread over the dual space
    duals = pts[rng.choice(len(pts), size=12)]
    duals = ctx.vmul(rng.integers(1, ctx.q2, size=(len(duals), 1)), duals)
    counts = hyperplane_point_counts(ctx, points, duals)
    want = [int((reference_incidence_values(ctx, points, u) == 0).sum()) for u in duals]
    assert counts.tolist() == want
    assert np.array_equal(counts, incidence_matrix(ctx, points, duals).sum(axis=0))


def test_hyperplane_point_counts_shapes(gf4):
    pts = enumerate_points(gf4, 3)
    assert (hyperplane_point_counts(gf4, pts, pts) == pi_count(2, 4)).all()
    assert hyperplane_point_counts(gf4, pts, pts[:0]).shape == (0,)
    assert (hyperplane_point_counts(gf4, pts[:0], pts) == 0).all()
    with pytest.raises(ValueError):
        hyperplane_point_counts(gf4, pts, enumerate_points(gf4, 2))
