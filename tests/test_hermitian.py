"""Hermitian matrices, congruence reduction, varieties, and sections.

Frozen expected values come from the closed-form counts, checked here by
full enumeration, and from exhaustive scans defined inside the tests.
"""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_reference import (
    reference_congruence_transform,
    reference_evaluate_hermitian_form,
    reference_hermitian_form_values,
    reference_hyperplane_section,
    reference_iter_all_lines,
    reference_section_gram_matrices,
    reference_tangent_hyperplane,
)
from hermcodes import (
    HermitianVariety,
    canonical_congruence,
    count_points_formula,
    make_field,
    make_nondegenerate,
    make_standard_cone,
)
from hermcodes.hermitian import (
    _section_gram_matrices,
    congruence_transform,
    hermitian_form_values,
    hyperplane_sections,
    is_hermitian,
    tangent_hyperplanes,
)
from hermcodes.linalg import identity, mat_mul, matrix_rank
from hermcodes.projspace import (
    all_lines,
    enumerate_hyperplanes,
    enumerate_points,
    incidence_matrix,
    line_through,
)
from hermcodes.verify import random_hermitian
from loop_reference import random_invertible


def on_variety(ctx, variety, x) -> bool:
    return hermitian_form_values(ctx, variety.matrix, np.asarray([x]))[0] == 0


def test_is_hermitian(gf4):
    assert is_hermitian(gf4, identity(3))
    assert not is_hermitian(gf4, np.zeros((3, 3), dtype=int))
    m = np.array([[0, 2, 0], [2, 0, 0], [0, 0, 0]])  # h10 should be frob(2) = 3
    assert not is_hermitian(gf4, m)
    m[1, 0] = 3
    assert is_hermitian(gf4, m)
    with pytest.raises(ValueError):
        HermitianVariety(gf4, np.zeros((3, 3), dtype=int))
    # entries outside the codes [0, q2) are refused, not read from another
    # table entry
    for bad in (-1, gf4.q2):
        m = identity(3)
        m[2, 2] = bad
        with pytest.raises(ValueError, match="outside the codes"):
            HermitianVariety(gf4, m)
        with pytest.raises(ValueError, match="outside the codes"):
            hermitian_form_values(gf4, m, enumerate_points(gf4, 2))


def test_form_evaluation(gf4, gf9):
    h = identity(3)
    assert hermitian_form_values(gf4, h, np.array([[1, 0, 0]])).tolist() == [1]
    space = enumerate_points(gf4, 2)
    values = hermitian_form_values(gf4, h, space)
    assert int((values == 0).sum()) == 9
    # Hermitian values are GF(q)-rational everywhere
    assert all(gf4.in_base_field(int(v)) for v in values)
    space9 = enumerate_points(gf9, 2)
    values9 = hermitian_form_values(gf9, identity(3), space9)
    assert int((values9 == 0).sum()) == 28
    assert all(gf9.in_base_field(int(v)) for v in values9)


def test_rank_and_congruence_invariance(gf4):
    assert HermitianVariety(gf4, identity(4)).rank == 4
    d110 = np.diag([1, 1, 0]).astype(np.int64)
    assert HermitianVariety(gf4, d110).rank == 2
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = random_invertible(gf4, 3, rng)
        transformed = congruence_transform(gf4, d110, s)
        assert matrix_rank(gf4, transformed) == 2


def test_canonical_congruence_zero_diagonal(gf4):
    h = np.array([[0, 2, 0], [3, 0, 0], [0, 0, 0]])
    s, r = canonical_congruence(gf4, h)
    assert r == 2
    diag = congruence_transform(gf4, h, s)
    assert diag.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]


def test_canonical_congruence_diagonal_input(gf4):
    s, r = canonical_congruence(gf4, np.diag([1, 1, 0]).astype(np.int64))
    assert r == 2
    assert np.array_equal(s, identity(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_congruence_random(gf4, n):
    rng = random.Random(17)
    space = enumerate_points(gf4, n)
    for _ in range(100):
        h = random_hermitian(gf4, n, rng)
        s, r = canonical_congruence(gf4, h)
        assert matrix_rank(gf4, s) == n + 1
        diag = congruence_transform(gf4, h, s)
        expected = np.zeros_like(diag)
        expected[np.arange(r), np.arange(r)] = 1
        assert np.array_equal(diag, expected)
        assert r == matrix_rank(gf4, h)
        before = int((hermitian_form_values(gf4, h, space) == 0).sum())
        after = int((hermitian_form_values(gf4, diag, space) == 0).sum())
        assert before == after


def test_count_formulas():
    assert count_points_formula(1, "nondegenerate", 2) == 3
    assert count_points_formula(2, "nondegenerate", 2) == 9
    assert count_points_formula(2, "nondegenerate", 3) == 28
    assert count_points_formula(3, "nondegenerate", 2) == 45
    assert count_points_formula(2, "rank_n_cone", 2) == 13  # q^3 + q^2 + 1
    assert count_points_formula(3, "rank_n_cone", 2) == 37  # q^5 + q^2 + 1
    assert count_points_formula(4, "rank_n_cone", 2) == 181  # q^7+q^5+q^4+q^2+1
    assert count_points_formula(4, "rank_n_cone", 3) == 1 + 9 * 280 == 2521


@pytest.mark.parametrize(
    "p,n,case",
    [
        (2, n, case)
        for n in (1, 2, 3, 4)
        for case in ("nondegenerate", "rank_n_cone")
    ]
    + [(3, n, case) for n in (1, 2, 3, 4) for case in ("nondegenerate", "rank_n_cone")],
)
def test_enumerated_counts_match_formula(p, n, case):
    ctx = make_field(p, 1)
    variety = make_nondegenerate(ctx, n) if case == "nondegenerate" else make_standard_cone(ctx, n)
    assert len(variety.points) == count_points_formula(n, case, ctx.q)


def test_cone_vertex(gf4):
    for n in (2, 3, 4):
        cone = make_standard_cone(gf4, n)
        assert cone.rank == n and cone.is_rank_n_cone
        assert cone.vertex == tuple([0] * n + [1])
        assert on_variety(gf4, cone, cone.vertex)
    assert make_nondegenerate(gf4, 2).vertex is None


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (2, 4)])
def test_vertex_of_a_moved_cone_is_its_singular_point(p, n):
    ctx = make_field(p, 1)
    rng = np.random.default_rng(23)
    base = identity(n + 1)
    base[n, n] = 0
    moved = 0
    for _ in range(10):
        cone = HermitianVariety(ctx, congruence_transform(ctx, base, random_invertible(ctx, n + 1, rng)))
        vertex = np.asarray(cone.vertex)
        assert on_variety(ctx, cone, vertex)
        # x^T H = 0 at the vertex, and so does its polar H x^(q)
        assert not mat_mul(ctx, vertex[None, :], cone.matrix).any()
        assert not mat_mul(ctx, cone.matrix, ctx.vfrob(vertex)[:, None]).any()
        with pytest.raises(ValueError, match="singular"):
            tangent_hyperplanes(ctx, cone, [vertex])
        moved += not ctx.vfrob(vertex).tolist() == vertex.tolist()
    assert moved  # some vertices are not GF(q)-rational, where v and v^(q) differ


def test_classify_line_exhaustive_plane(gf4):
    u2 = make_nondegenerate(gf4, 2)
    pts = enumerate_points(gf4, 2)
    tally = {}
    for line in reference_iter_all_lines(gf4, 2):
        count = int((hermitian_form_values(gf4, u2.matrix, line) == 0).sum())
        tally[count] = tally.get(count, 0) + 1
    # 9 tangent lines (one per point), 12 secants, no contained lines
    assert tally == {1: 9, 3: 12}
    line = line_through(gf4, pts[0], pts[1])
    assert int((hermitian_form_values(gf4, u2.matrix, line) == 0).sum()) in (1, 3)


def test_classify_line_cone_generator(gf4):
    cone = make_standard_cone(gf4, 2)
    base_point = next(tuple(p) for p in cone.points if tuple(p) != cone.vertex and p[2] == 0)
    line = line_through(gf4, cone.vertex, base_point)
    assert len(line) == 5 and not hermitian_form_values(gf4, cone.matrix, line).any()


def test_classify_line_tallies_gf9(gf9):
    u3 = make_nondegenerate(gf9, 3)
    zero = hermitian_form_values(gf9, u3.matrix, enumerate_points(gf9, 3)) == 0
    counts = set(zero[all_lines(gf9, 3)].sum(axis=1).tolist())
    assert counts == {1, 4, 10}


def test_tangent_hyperplane_plane_curve(gf4):
    u2 = make_nondegenerate(gf4, 2)
    on = incidence_matrix(gf4, u2.points, tangent_hyperplanes(gf4, u2, u2.points))
    assert on.diagonal().all()
    assert (on.sum(axis=0) == 1).all()  # each touches only at its own point


def test_tangent_hyperplane_surface(gf4):
    u3 = make_nondegenerate(gf4, 3)
    on = incidence_matrix(gf4, u3.points, tangent_hyperplanes(gf4, u3, u3.points))
    assert (on.sum(axis=0) == 13).all()
    # polar symmetry: b lies on the polar of a iff a lies on the polar of b
    assert np.array_equal(on, on.T)


def test_tangent_hyperplane_errors(gf4):
    u2 = make_nondegenerate(gf4, 2)
    off = next(p for p in enumerate_points(gf4, 2) if not on_variety(gf4, u2, p))
    with pytest.raises(ValueError):
        tangent_hyperplanes(gf4, u2, [off])
    cone = make_standard_cone(gf4, 2)
    with pytest.raises(ValueError):
        tangent_hyperplanes(gf4, cone, [cone.vertex])


def test_sections_of_cone(gf4):
    cone = make_standard_cone(gf4, 3)
    _, counts, kinds = hyperplane_sections(gf4, cone, enumerate_hyperplanes(gf4, 3))
    assert Counter(zip(kinds.tolist(), counts.tolist())) == {
        ("vertex_avoiding", 9): 64,
        ("vertex_incident", 13): 12,
        ("vertex_incident", 5): 9,
    }


def test_sections_of_surface(gf4):
    u3 = make_nondegenerate(gf4, 3)
    ranks, counts, kinds = hyperplane_sections(gf4, u3, enumerate_hyperplanes(gf4, 3))
    tally = Counter(zip(kinds.tolist(), ranks.tolist(), counts.tolist()))
    assert tally == {("tangent", 2, 13): 45, ("non_tangent", 3, 9): 40}


def test_section_rejects_other_ranks(gf4):
    h = np.zeros((4, 4), dtype=np.int64)
    h[0, 0] = 1  # rank 1 in P^3: neither nondegenerate nor a rank-n cone
    variety = HermitianVariety(gf4, h)
    with pytest.raises(ValueError):
        hyperplane_sections(gf4, variety, [(1, 0, 0, 0)])


# ---------------------------------------------------------------------------
# Batched routes against the former per-point and per-hyperplane loops
# ---------------------------------------------------------------------------

# (p, e, largest n) whose full dual scan stays small: every dual times every
# variety point is at most about 5 * 10^7 comparisons.
SECTION_CELLS = [(2, 1, 4), (3, 1, 4), (2, 2, 3), (5, 1, 3)]


@st.composite
def hermitian_varieties(draw):
    """A nondegenerate variety or a rank-n cone over GF(4), GF(9), GF(16) or
    GF(25), n = 2..4 within SECTION_CELLS: either a random Hermitian matrix
    of that rank or the standard one moved by a random invertible
    congruence (so the matrix is not diagonal and the vertex is not last)."""
    p, e, n_max = draw(st.sampled_from(SECTION_CELLS))
    ctx = make_field(p, e)
    n = draw(st.integers(2, n_max))
    cone = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng, draws = np.random.default_rng(seed), random.Random(seed)
    if draw(st.booleans()):
        for _ in range(20):
            h = random_hermitian(ctx, n, draws)
            if matrix_rank(ctx, h) == (n if cone else n + 1):
                return ctx, HermitianVariety(ctx, h), rng
    base = identity(n + 1)
    base[n, n] = 0 if cone else 1
    h = congruence_transform(ctx, base, random_invertible(ctx, n + 1, rng))
    return ctx, HermitianVariety(ctx, h), rng


@settings(max_examples=40, deadline=None)
@given(hermitian_varieties())
def test_hyperplane_sections_match_per_dual_loop(case):
    ctx, variety, rng = case
    assert variety.is_nondegenerate or variety.is_rank_n_cone
    hyps = enumerate_hyperplanes(ctx, variety.n)
    picks = rng.choice(len(hyps), size=min(len(hyps), 40), replace=False)
    duals = hyps[np.sort(picks)]
    # unnormalized input: scale each dual by a nonzero constant
    scaled = ctx.vmul(rng.integers(1, ctx.q2, size=(len(duals), 1)), duals)
    ranks, counts, kinds = hyperplane_sections(ctx, variety, scaled)
    want = [reference_hyperplane_section(ctx, variety, u) for u in duals]
    assert ranks.tolist() == [w.rank for w in want]
    assert counts.tolist() == [w.point_count for w in want]
    assert kinds.tolist() == [w.kind for w in want]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 3)])
def test_hyperplane_sections_over_every_dual(p, n):
    ctx = make_field(p, 1)
    hyps = enumerate_hyperplanes(ctx, n)
    for variety in (make_nondegenerate(ctx, n), make_standard_cone(ctx, n)):
        ranks, counts, kinds = hyperplane_sections(ctx, variety, hyps)
        want = [reference_hyperplane_section(ctx, variety, u) for u in hyps]
        assert list(zip(ranks.tolist(), counts.tolist(), kinds.tolist())) == [
            (w.rank, w.point_count, w.kind) for w in want
        ]


def test_scattered_duals_on_a_large_cone(gf9):
    # 20 duals spread over the 7381 of the GF(9) P^4 cone, in reverse order:
    # the counts are read back from classes far apart in the scan
    cone = make_standard_cone(gf9, 4)
    hyps = enumerate_hyperplanes(gf9, 4)
    duals = hyps[np.linspace(len(hyps) - 1, 0, 20).astype(int)]
    ranks, counts, kinds = hyperplane_sections(gf9, cone, duals)
    want = [reference_hyperplane_section(gf9, cone, u) for u in duals]
    assert list(zip(ranks.tolist(), counts.tolist(), kinds.tolist())) == [
        (w.rank, w.point_count, w.kind) for w in want
    ]


def test_sections_hold_a_few_results_at_once(gf9):
    # the 6,561 duals of the GF(9) P^4 cone that miss its vertex e_4 take
    # three blocks of (n+1)^2 codes per dual, each a quarter of CHUNK_ELEMS:
    # the Gram matrices, their elimination and the point-count scan stay
    # within a few results (one block of CHUNK_ELEMS took 4.9 MiB)
    cone = make_standard_cone(gf9, 4)
    hyps = enumerate_hyperplanes(gf9, 4)
    duals = hyps[hyps[:, 4] != 0]
    cone.points  # built before the trace, as a long-lived variety holds them
    tracemalloc.start()
    try:
        result = hyperplane_sections(gf9, cone, duals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(duals) == 6561 and (result[2] == "vertex_avoiding").all()
    assert peak <= min(5 * sum(part.nbytes for part in result), 3 * 2**20)


def test_hyperplane_sections_edge_cases(gf4):
    cone = make_standard_cone(gf4, 2)
    ranks, counts, kinds = hyperplane_sections(gf4, cone, np.zeros((0, 3), dtype=np.int64))
    assert ranks.shape == counts.shape == kinds.shape == (0,)
    with pytest.raises(ValueError):
        hyperplane_sections(gf4, cone, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        hyperplane_sections(gf4, cone, [(0, 0, 0)])


@settings(max_examples=40, deadline=None)
@given(hermitian_varieties())
def test_tangent_hyperplanes_and_form_values_match_scalar_loops(case):
    ctx, variety, rng = case
    pts = variety.points
    smooth = pts if variety.vertex is None else pts[(pts != variety.vertex).any(axis=1)]
    sample = smooth[rng.choice(len(smooth), size=min(len(smooth), 12), replace=False)]
    scaled = ctx.vmul(rng.integers(1, ctx.q2, size=(len(sample), 1)), sample)
    duals = tangent_hyperplanes(ctx, variety, scaled)
    want = [reference_tangent_hyperplane(ctx, variety, a) for a in sample]
    assert [tuple(row) for row in duals.tolist()] == want
    space = enumerate_points(ctx, variety.n)
    xs = space[rng.choice(len(space), size=12, replace=False)]
    got = hermitian_form_values(ctx, variety.matrix, xs)
    assert got.tolist() == [reference_evaluate_hermitian_form(ctx, variety.matrix, x) for x in xs]
    if variety.vertex is not None:
        with pytest.raises(ValueError):
            tangent_hyperplanes(ctx, variety, [variety.vertex])
        with pytest.raises(ValueError):
            reference_tangent_hyperplane(ctx, variety, variety.vertex)
    off = space[hermitian_form_values(ctx, variety.matrix, space) != 0][:1]
    with pytest.raises(ValueError):
        tangent_hyperplanes(ctx, variety, off)


# ---------------------------------------------------------------------------
# Stacks of matrices against the per-matrix loops
# ---------------------------------------------------------------------------

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


def diagonal_form(ctx, n, rank, rng, moved):
    """diag(1,...,1,0,...,0) of the given rank in P^n, moved by a random
    invertible congruence or left diagonal (then every off-diagonal
    coefficient is zero)."""
    h = np.zeros((n + 1, n + 1), dtype=np.int64)
    h[np.arange(rank), np.arange(rank)] = 1
    if moved:
        h = congruence_transform(ctx, h, random_invertible(ctx, n + 1, rng))
    return h


@st.composite
def hermitian_stacks(draw):
    """A stack of 1-6 Hermitian matrices of P^n, n = 1..3, over GF(4),
    GF(9), GF(16) or GF(25): random ones of mixed ranks, moved diagonal
    forms of a drawn rank, and unmoved diagonal ones, so a coefficient can
    be zero in some matrices of the stack and not in others."""
    ctx = make_field(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng, draws = np.random.default_rng(seed), random.Random(seed)
    kinds = draw(st.lists(st.sampled_from(["random", "moved", "diagonal"]), min_size=1, max_size=6))
    stack = []
    for kind in kinds:
        if kind == "random":
            stack.append(random_hermitian(ctx, n, draws))
        else:
            rank = draw(st.integers(1, n + 1))
            stack.append(diagonal_form(ctx, n, rank, rng, kind == "moved"))
    return ctx, n, np.array(stack), rng


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_stacked_form_values_and_congruences_match_per_matrix_loops(case):
    ctx, n, hs, rng = case
    space = enumerate_points(ctx, n)
    xs = space[rng.choice(len(space), size=min(len(space), 40), replace=False)]
    xs = ctx.vmul(rng.integers(1, ctx.q2, size=(len(xs), 1)), xs)  # unnormalized
    values = hermitian_form_values(ctx, hs, xs)
    assert values.shape == (len(hs), len(xs))
    for h, got in zip(hs, values):
        assert np.array_equal(got, reference_hermitian_form_values(ctx, h, xs))
        assert np.array_equal(hermitian_form_values(ctx, h, xs), got)
    # a stack of one keeps its stack axis
    assert np.array_equal(hermitian_form_values(ctx, hs[:1], xs), values[:1])
    ss = np.array([random_invertible(ctx, n + 1, rng) for _ in hs])
    moved = congruence_transform(ctx, hs, ss)
    assert moved.shape == hs.shape
    for h, s, got in zip(hs, ss, moved):
        assert np.array_equal(got, reference_congruence_transform(ctx, h, s))
    # one matrix against a stack of basis changes broadcasts
    for s, got in zip(ss, congruence_transform(ctx, hs[0], ss)):
        assert np.array_equal(got, reference_congruence_transform(ctx, hs[0], s))


def test_form_values_skip_only_coefficients_zero_across_the_stack(gf9):
    space = enumerate_points(gf9, 2)
    diag = identity(3)
    off = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # h_01 = h_10 = 1 only here
    values = hermitian_form_values(gf9, np.array([diag, off]), space)
    assert np.array_equal(values[0], reference_hermitian_form_values(gf9, diag, space))
    assert np.array_equal(values[1], reference_hermitian_form_values(gf9, off, space))
    assert values.shape == (2, len(space))
    assert hermitian_form_values(gf9, np.zeros((0, 3, 3), dtype=np.int64), space).shape == (
        0,
        len(space),
    )


@st.composite
def gram_cases(draw):
    """A Hermitian matrix of P^n within SECTION_CELLS: the rank-n cone or the
    nondegenerate form, moved by a random invertible congruence or left
    standard, or a random Hermitian matrix of any rank moved by one."""
    p, e, n_max = draw(st.sampled_from(SECTION_CELLS))
    ctx = make_field(p, e)
    n = draw(st.integers(2, n_max))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["cone", "nondegenerate", "random"]))
    if kind == "random":
        h = random_hermitian(ctx, n, random.Random(seed))
    else:
        h = identity(n + 1)
        h[n, n] = int(kind == "nondegenerate")
    if kind == "random" or draw(st.booleans()):
        h = congruence_transform(ctx, h, random_invertible(ctx, n + 1, rng))
    return ctx, n, h


@settings(max_examples=40, deadline=None)
@given(gram_cases())
def test_closed_form_gram_matrices_match_the_basis_product(case):
    ctx, n, h = case
    hyps = enumerate_hyperplanes(ctx, n)
    got = _section_gram_matrices(ctx, h, hyps)
    assert got.shape == (len(hyps), n, n)
    assert np.array_equal(got, reference_section_gram_matrices(ctx, h, hyps))
