"""Gaussian elimination over GF(q^2) on matrices of element codes.

Matrices are numpy int arrays of codes; row operations go through the
context's vectorized arithmetic, so elimination on a k x m generator
matrix costs k pivot passes of whole-row table lookups.  Ranks and
products also take stacks of matrices (leading axes), so one elimination
pass serves every matrix of the stack at once.

The rank of a wide matrix is certified first: the rank of any column
subset S bounds it from below and the row count from above,
rank(M[:, S]) <= rank(M) <= rows, so when an evenly spread sample of about
SAMPLE_COLS_PER_ROW * rows columns already has full row rank that is the
exact answer.  Only a sample that falls short pays for the elimination over
every column.  Square and tall matrices are eliminated directly.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx

__all__ = ["row_reduce", "batch_rank", "matrix_rank", "mat_mul", "identity"]

# Columns of matrix_rank's certificate sample, per row of the matrix.
SAMPLE_COLS_PER_ROW = 2


def row_reduce(ctx: FieldCtx, matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    a = np.array(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = ctx.vmul(ctx.inv(int(a[r, c])), a[r])
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            factors = ctx.vneg(a[others, c])
            a[others] = ctx.vadd(a[others], ctx.vmul(factors[:, None], a[r][None, :]))
        pivots.append(c)
        r += 1
    return a, pivots


def batch_rank(ctx: FieldCtx, matrices) -> np.ndarray:
    """Ranks of a stack of matrices (..., rows, cols), as an int64 array of
    the stack's shape.  Column by column, every matrix that has a pivot
    candidate at or below its current rank swaps the first one up and clears
    the column beneath it, all in one vectorized step."""
    a = np.array(matrices, dtype=np.int64)
    if a.ndim < 2:
        raise ValueError("matrices must have at least two dimensions")
    stack, (rows, cols) = a.shape[:-2], a.shape[-2:]
    a = a.reshape(-1, rows, cols)
    rank = np.zeros(len(a), dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols):
        below = row_ids[None, :] >= rank[:, None]
        candidates = (a[:, :, c] != 0) & below
        todo = np.nonzero(candidates.any(axis=1))[0]
        if todo.size == 0:
            if (rank == rows).all():
                break
            continue
        top = rank[todo]
        piv = np.argmax(candidates[todo], axis=1)
        pivot_rows = a[todo, piv]
        a[todo, piv] = a[todo, top]
        a[todo, top] = pivot_rows
        factors = ctx.vmul(ctx.vneg(a[todo, :, c]), ctx.vinv(pivot_rows[:, c])[:, None])
        factors[~below[todo] | (row_ids[None, :] == top[:, None])] = 0
        a[todo] = ctx.vadd(a[todo], ctx.vmul(factors[:, :, None], pivot_rows[:, None, :]))
        rank[todo] += 1
    return rank.reshape(stack)


def matrix_rank(ctx: FieldCtx, matrix) -> int:
    """Exact rank over GF(q^2).

    A matrix with at least 2 * SAMPLE_COLS_PER_ROW columns per row is first
    eliminated on every stride-th column, stride cols // (SAMPLE_COLS_PER_ROW
    * rows), so the sample spreads over the whole column order (a prefix
    would not: the canonical point order lists the x_0 = 0 points first).
    If that sample has full row rank, so has the matrix, since
    rank(M[:, S]) <= rank(M) <= rows; otherwise every column is eliminated.
    A wide rank-deficient matrix thus costs about 1 + SAMPLE_COLS_PER_ROW *
    rows / cols times one full elimination; narrower matrices (stride 1,
    where the sample would be the whole matrix) are eliminated directly."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = a.shape
    stride = cols // (SAMPLE_COLS_PER_ROW * rows) if rows else 0
    if stride > 1 and len(row_reduce(ctx, a[:, ::stride])[1]) == rows:
        return rows
    return len(row_reduce(ctx, a)[1])


def mat_mul(ctx: FieldCtx, a, b) -> np.ndarray:
    """Matrix product; leading axes broadcast, so stacks multiply at once."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    if a.shape[-1] == 0:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        return np.zeros(shape, dtype=np.int64)
    out = ctx.vmul(a[..., :, 0, None], b[..., None, 0, :])
    for k in range(1, a.shape[-1]):
        out = ctx.vadd(out, ctx.vmul(a[..., :, k, None], b[..., None, k, :]))
    return out


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)
