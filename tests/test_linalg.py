import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermcodes import count_points_formula, linalg, make_field, make_nondegenerate
from hermcodes.hermitian import _section_gram_matrices
from hermcodes.linalg import (
    SAMPLE_COLS_PER_ROW,
    batch_rank,
    identity,
    mat_mul,
    matrix_rank,
    row_reduce,
)
from hermcodes.projspace import enumerate_hyperplanes
from loop_reference import random_invertible


def reference_mat_mul(ctx, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = ctx.add(acc, ctx.mul(int(a[i, k]), int(b[k, j])))
            out[i, j] = acc
    return out


def test_rank_basics(gf4):
    assert matrix_rank(gf4, identity(4)) == 4
    assert matrix_rank(gf4, np.diag([1, 1, 0]).astype(np.int64)) == 2
    assert matrix_rank(gf4, np.zeros((3, 3), dtype=np.int64)) == 0
    # rows 2 and 3 are scalar multiples of row 1
    m = np.array([[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    assert matrix_rank(gf4, m) == 1


def test_rank_invariant_under_invertible_transform(gf9):
    rng = np.random.default_rng(7)
    base = np.zeros((4, 4), dtype=np.int64)
    base[0, 0] = base[1, 1] = 1
    for _ in range(10):
        s = random_invertible(gf9, 4, rng)
        t = random_invertible(gf9, 4, rng)
        assert matrix_rank(gf9, mat_mul(gf9, mat_mul(gf9, s, base), t)) == 2


@pytest.mark.parametrize("shape", [(3, 3), (4, 6), (5, 3), (3, 0), (1, 1)])
def test_mat_mul_matches_reference(shape):
    # XOR add (GF(4)), flat gathers (GF(9)) and the sparse path (GF(289));
    # an inner dimension of 0 gives zeros; stacks broadcast
    rng = np.random.default_rng(11)
    for ctx in (make_field(2, 1), make_field(3, 1), make_field(17, 1)):
        a = rng.integers(0, ctx.q2, size=shape).astype(np.int64)
        b = rng.integers(0, ctx.q2, size=(shape[1], 4)).astype(np.int64)
        got = mat_mul(ctx, a, b)
        assert got.dtype == np.int64 and np.array_equal(got, reference_mat_mul(ctx, a, b))
        stack_a = rng.integers(0, ctx.q2, size=(2, 1, *shape))
        stack_b = rng.integers(0, ctx.q2, size=(3, shape[1], 4))
        got = mat_mul(ctx, stack_a, stack_b)
        assert got.shape == (2, 3, shape[0], 4)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], reference_mat_mul(ctx, stack_a[i, 0], stack_b[j]))


def test_row_reduce_pivots(gf4):
    # rows 1 and 2 are independent; row 3 = 3 * row 1 would be (0,1,3)
    m = np.array([[0, 2, 1], [0, 3, 2], [0, 1, 2]])
    rref, pivots = row_reduce(gf4, m)
    assert pivots == [1, 2]
    for row, col in enumerate(pivots):
        assert rref[row, col] == 1
        assert not rref[np.arange(3) != row, col].any()


@st.composite
def matrix_stacks(draw):
    """A stack of matrices over GF(4), GF(9), GF(16), GF(25) or the sparse
    GF(289), many of them rank-deficient (products through a narrow inner
    dimension, repeated or zero rows)."""
    ctx = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (17, 1)])))
    count, rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = draw(st.integers(0, min(rows, cols)))
    left = rng.integers(0, ctx.q2, size=(count, rows, inner))
    right = rng.integers(0, ctx.q2, size=(count, inner, cols))
    stack = mat_mul(ctx, left, right)
    noise = rng.random(stack.shape[:2]) < 0.3
    stack[noise] = rng.integers(0, ctx.q2, size=(int(noise.sum()), cols))
    if count and rows > 1:
        stack[0, 1] = stack[0, 0]
    return ctx, stack


@settings(max_examples=150, deadline=None)
@given(matrix_stacks())
def test_batch_rank_matches_row_reduce(case):
    ctx, stack = case
    ranks = batch_rank(ctx, stack)
    assert ranks.shape == stack.shape[:1] and ranks.dtype == np.int64
    assert ranks.tolist() == [len(row_reduce(ctx, m)[1]) for m in stack]
    if len(stack):
        assert int(batch_rank(ctx, stack[0])) == matrix_rank(ctx, stack[0])
        nested = batch_rank(ctx, np.stack([stack, stack]))
        assert nested.shape == (2, len(stack)) and (nested == ranks).all()


def test_batch_rank_eliminates_in_place(gf9):
    # the 7,381 section Gram matrices of U_4 over GF(9) (0.9 MiB): the copy
    # under elimination and two temporaries over the columns still live.
    # Gathering and scattering the matrices that still needed a pivot
    # peaked at 4.8 times the stack.
    stack = _section_gram_matrices(
        gf9, make_nondegenerate(gf9, 4).matrix, enumerate_hyperplanes(gf9, 4)
    )
    tracemalloc.start()
    try:
        ranks = batch_rank(gf9, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # tangent sections (one per point of U_4) have rank 3, the others rank 4
    assert int((ranks == 3).sum()) == count_points_formula(4, "nondegenerate", 3)
    assert int((ranks == 4).sum()) == len(stack) - count_points_formula(4, "nondegenerate", 3)
    assert peak <= 4 * stack.nbytes


def test_stacked_mat_mul_matches_reference(gf9):
    rng = np.random.default_rng(19)
    a = rng.integers(0, 9, size=(4, 3, 5)).astype(np.int64)
    b = rng.integers(0, 9, size=(5, 2)).astype(np.int64)
    got = mat_mul(gf9, a, b)
    assert got.shape == (4, 3, 2)
    for i in range(4):
        assert np.array_equal(got[i], reference_mat_mul(gf9, a[i], b))
    assert mat_mul(gf9, np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)).tolist() == [
        [0, 0, 0],
        [0, 0, 0],
    ]
    with pytest.raises(ValueError):
        mat_mul(gf9, a, b.T)
    with pytest.raises(ValueError):
        batch_rank(gf9, np.arange(3))


RANK_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(17, 1)]


@st.composite
def wide_matrices(draw):
    """A rows x cols matrix over GF(4), GF(9), GF(16) or the sparse GF(289),
    up to 12 columns per row (most of them wide enough to be sampled), of
    every rank 0..rows: a (rows x r)(r x cols) product, optionally with a
    duplicated row or with every column of the rank sample zeroed (which
    forces the full elimination)."""
    ctx = draw(st.sampled_from(RANK_FIELDS))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 12 * rows))
    inner = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, ctx.q2, size=(rows, inner))
    m = mat_mul(ctx, left, rng.integers(0, ctx.q2, size=(inner, cols)))
    shape = draw(st.sampled_from(["product", "duplicated row", "zero on the sample"]))
    if shape == "duplicated row" and rows > 1:
        i, j = draw(st.permutations(range(rows)))[:2]
        m[j] = m[i]
    elif shape == "zero on the sample":
        stride = cols // (SAMPLE_COLS_PER_ROW * rows)
        if stride > 1:
            m[:, ::stride] = 0
    return ctx, m


@settings(max_examples=300, deadline=None)
@given(wide_matrices())
def test_matrix_rank_matches_full_elimination(case):
    ctx, m = case
    assert matrix_rank(ctx, m) == len(row_reduce(ctx, m)[1])


def reduce_calls(monkeypatch):
    """Shapes of the matrices handed to row_reduce, in call order."""
    calls = []
    real = linalg.row_reduce

    def spy(ctx, matrix):
        calls.append(np.shape(matrix))
        return real(ctx, matrix)

    monkeypatch.setattr(linalg, "row_reduce", spy)
    return calls


def test_matrix_rank_sample_then_fallback(gf9, monkeypatch):
    calls = reduce_calls(monkeypatch)
    # Stride 10: the sample is columns 0, 10, ..., 50.
    wide = np.zeros((3, 60), dtype=np.int64)
    wide[[0, 1, 2], [0, 20, 40]] = 1
    assert matrix_rank(gf9, wide) == 3 and calls == [(3, 6)]
    calls.clear()
    wide[:, ::10] = 0
    wide[[0, 1, 2], [1, 21, 41]] = [2, 3, 4]
    assert matrix_rank(gf9, wide) == 3 and calls == [(3, 6), (3, 60)]
    calls.clear()
    wide[2] = wide[0]
    assert matrix_rank(gf9, wide) == 2 and calls == [(3, 6), (3, 60)]
    for shape in [(4, 4), (6, 2), (3, 11)]:  # stride <= 1: eliminated directly
        calls.clear()
        matrix_rank(gf9, np.ones(shape, dtype=np.int64))
        assert calls == [shape]
    with pytest.raises(ValueError):
        matrix_rank(gf9, np.arange(3))
