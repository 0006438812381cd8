"""Hermitian matrices and varieties in P^n(GF(q^2)).

A Hermitian matrix is a nonzero (n+1) x (n+1) matrix H of element codes
with h_ij = h_ji^q (so the diagonal lies in GF(q)); its variety is the
zero set of x^T H x^(q).  The module provides form evaluation,
congruence reduction to diag(1,...,1,0,...,0), the standard rank-n cone
and nondegenerate varieties, closed-form point counts, polar tangent
hyperplanes, and hyperplane sections with their rank-based
classification.  Every route takes a stack of points or hyperplanes, and
form evaluation, the congruence transform and the congruence reduction
also take a stack of matrices, so sampled checks reduce and evaluate all
their trials at once.

Sections are computed for a whole stack of hyperplanes at once.  The rank
of each section is the rank of the Gram matrix B^T H B^(q) of the form in
a basis B of the hyperplane (a basis-completion matrix), read entrywise
from H and the dual in closed form, then one batched elimination over all
the Gram matrices.  The point count is read separately, as the zero count
of the linear form u.x on the variety's points from the exhaustive scan
kernel, so the two answers stay independently checkable.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .field import FieldCtx
from .linalg import batch_rank, identity, mat_mul
from .projspace import (
    CHUNK_ELEMS,
    check_point_budget,
    enumerate_points,
    hyperplane_point_counts,
    incidence_matrix,
    normalize_rows,
    normalize_vector,
    pi_count,
    point_index,
)

__all__ = [
    "is_hermitian",
    "validate_hermitian",
    "hermitian_form_values",
    "congruence_transform",
    "canonical_congruence",
    "HermitianVariety",
    "make_standard_cone",
    "make_nondegenerate",
    "count_points_formula",
    "tangent_hyperplanes",
    "hyperplane_sections",
]


def is_hermitian(ctx: FieldCtx, matrix) -> bool:
    """True when the matrix, or every matrix of a stack (..., n+1, n+1), is
    nonzero with H^T = H^(q)."""
    h = np.asarray(matrix, dtype=np.int64)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        return False
    if not h.any(axis=(-2, -1)).all():
        return False
    return bool(np.array_equal(h.swapaxes(-1, -2), ctx.vfrob(h)))


def validate_hermitian(ctx: FieldCtx, matrix) -> np.ndarray:
    h = np.asarray(matrix, dtype=np.int64)
    ctx.check_codes(h, "Hermitian matrix entry")
    if not is_hermitian(ctx, h):
        raise ValueError("matrix is not a nonzero Hermitian matrix (H^T must equal H^(q))")
    return h


def hermitian_form_values(ctx: FieldCtx, matrix, points: np.ndarray) -> np.ndarray:
    """x^T H x^(q) over an (N, n+1) point array, for one matrix H or a stack
    (..., n+1, n+1): the values have shape (..., N).  A coefficient h_ij is
    skipped when it is zero in every matrix of the stack."""
    h = np.asarray(matrix, dtype=np.int64)
    ctx.check_codes(h, "Hermitian matrix entry")
    dim = h.shape[-1]
    used = h.reshape(-1, dim, dim).any(axis=0)
    y = ctx.vfrob(points)
    shape = h.shape[:-2] + (len(points),)
    acc = np.zeros(shape, dtype=np.int64)
    for i in range(dim):
        row = np.zeros(shape, dtype=np.int64)
        for j in np.flatnonzero(used[i]):
            row = ctx.vadd(row, ctx.vmul(h[..., i, j, None], y[:, j]))
        acc = ctx.vadd(acc, ctx.vmul(points[:, i], row))
    return acc


def congruence_transform(ctx: FieldCtx, matrix, s) -> np.ndarray:
    """S^T H S^(q): the Gram matrix of the form in the basis given by the
    columns of S.  Leading axes of H and S broadcast, so a stack of
    matrices transforms at once."""
    h = np.asarray(matrix, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    return mat_mul(ctx, mat_mul(ctx, s.swapaxes(-1, -2), h), ctx.vfrob(s))


def canonical_congruence(ctx: FieldCtx, matrix) -> tuple[np.ndarray, int | np.ndarray]:
    """Invertible S with S^T H S^(q) = diag(1,...,1,0,...,0), plus the rank.

    Sesquilinear symmetric elimination with deterministic pivoting: the
    smallest remaining index with a nonzero diagonal entry is pivoted
    first; when the remaining diagonal vanishes, the lexicographically
    smallest nonzero off-diagonal entry h_ij is used to create a diagonal
    1 by the basis change e_i -> e_i + lam*e_j, where lam solves
    h_ij*lam^q + h_ij^q*lam = 1 through the trace preimage.  The pivot then
    moves to position t, the basis changes e_j -> e_j + c_j*e_t with
    c_j = -(h_tj / h_tt)^q clear row and column t at once, and e_t is
    scaled by the inverse norm preimage of h_tt.

    A stack (..., n+1, n+1) of matrices gives the stack of S and an int64
    array of ranks of the stack's shape.  Every matrix keeps its own pivot
    rule, and each pivot position is one vectorized step over the whole
    stack: a matrix whose reduction has stopped gets zero coefficients."""
    h = validate_hermitian(ctx, matrix)
    dim = h.shape[-1]
    a = h.reshape(-1, dim, dim).copy()
    s = np.zeros_like(a)
    s[:, np.arange(dim), np.arange(dim)] = 1
    rank = np.count_nonzero(a.diagonal(axis1=1, axis2=2), axis=1)
    # diag(1,...,1,0,...,0) itself, as the standard varieties' matrices are,
    # would take only steps that change nothing: S = I
    if not np.array_equal(a, s * (np.arange(dim) < rank[:, None])[:, None, :]):
        s, rank = _reduce_stack(ctx, a, s)
    if h.ndim == 2:
        return s[0], int(rank[0])
    return s.reshape(h.shape), rank.reshape(h.shape[:-2])


def _reduce_stack(ctx: FieldCtx, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pivot steps of :func:`canonical_congruence` on a (count, dim, dim)
    stack a, updated in step with the basis stack s: (S, ranks)."""
    count, dim = a.shape[:2]
    rank = np.zeros(count, dtype=np.int64)
    for t in range(dim):
        nonzero = a.diagonal(axis1=1, axis2=2)[:, t:] != 0
        pivot = t + nonzero.argmax(axis=1)
        live = nonzero.any(axis=1)
        if not live.all() and t < dim - 1:
            # no diagonal pivot left: the first nonzero h_ij, t <= i < j
            flat = np.flatnonzero(~live)
            upper = np.triu(a[flat, t:, t:] != 0, 1).reshape(len(flat), -1)
            found = upper.any(axis=1)
            k = flat[found]
            i, j = np.divmod(np.argmax(upper[found], axis=1), dim - t)
            i, j = i + t, j + t
            lam = ctx.vmul(ctx.trace_preimage(1), ctx.vinv(ctx.vfrob(a[k, i, j])))
            s[k, :, i] = ctx.vadd(s[k, :, i], ctx.vmul(lam[:, None], s[k, :, j]))
            a[k, :, i] = ctx.vadd(a[k, :, i], ctx.vmul(ctx.vfrob(lam)[:, None], a[k, :, j]))
            a[k, i, :] = ctx.vadd(a[k, i, :], ctx.vmul(lam[:, None], a[k, j, :]))
            pivot[k], live[k] = i, True
        if not live.any():
            break
        (moved,) = (pivot != t).nonzero()
        if moved.size:
            perm = np.tile(np.arange(dim), (len(moved), 1))
            perm[:, t] = pivot[moved]
            perm[np.arange(len(moved)), pivot[moved]] = t
            s[moved] = np.take_along_axis(s[moved], perm[:, None, :], axis=2)
            a[moved] = a[moved[:, None, None], perm[:, :, None], perm[:, None, :]]
        # a stopped matrix is zero in row t, so it gets zero coefficients
        diag = np.where(live, a[:, t, t], 1)
        row = a[:, t, :].copy()
        row[:, t] = 0
        if row.any():
            coeff = ctx.vfrob(ctx.vneg(ctx.vmul(row, ctx.vinv(diag)[:, None])))
            s = ctx.vadd(s, ctx.vmul(s[:, :, t, None], coeff[:, None, :]))
            a = ctx.vadd(a, ctx.vmul(coeff[:, :, None], a[:, None, t, :]))
            a[:, t, :t] = 0
            a[:, t, t + 1 :] = 0
        if (diag != 1).any():
            s[:, :, t] = ctx.vmul(ctx.vinv(ctx.vnorm_preimage(diag))[:, None], s[:, :, t])
            a[:, t, t] = live
        rank += live
    return s, rank


class HermitianVariety:
    """A Hermitian variety with its matrix, rank, and (for rank n) vertex.

    Points are materialized lazily, once, in canonical enumeration order.
    Instances are immutable after the point list exists and are safe to
    share between workers.

    ``base`` is the nondegenerate variety U in P^(n-1) that
    :func:`make_standard_cone` puts under the standard cone, and None for
    every other variety: a variety built from a matrix finds its points by
    evaluating the form over all of P^n.
    """

    def __init__(self, ctx: FieldCtx, matrix):
        self.ctx = ctx
        self.matrix = validate_hermitian(ctx, matrix)
        if self.matrix.ndim != 2:
            raise ValueError("a variety is defined by one matrix, not a stack")
        self.matrix.setflags(write=False)
        self.n = self.matrix.shape[0] - 1
        s, self.rank = canonical_congruence(ctx, self.matrix)
        self.vertex: tuple[int, ...] | None = None
        self.base: HermitianVariety | None = None
        if self.rank == self.n:
            # S^T H S^(q) = diag(1, ..., 1, 0) puts a zero row at n, so
            # (S e_n)^T H = 0: the last column of S is the singular point.
            self.vertex = normalize_vector(ctx, s[:, self.n])

    @property
    def is_nondegenerate(self) -> bool:
        return self.rank == self.n + 1

    @property
    def is_rank_n_cone(self) -> bool:
        return self.rank == self.n

    @cached_property
    def points(self) -> np.ndarray:
        """The standard cone's points are its vertex v = e_n and the points
        P + t v, t over every code, of the line over each base point P,
        normalized and put in canonical order; every other variety keeps
        the zeros of its form on P^n."""
        if self.base is None:
            space = enumerate_points(self.ctx, self.n)
            pts = space[hermitian_form_values(self.ctx, self.matrix, space) == 0]
        else:
            # P + t v with v = e_n, normalized: (P, 0) at t = 0, since P is,
            # and (P t^-1, 1) for t != 0, one vmul per t
            q2, n, base = self.ctx.q2, self.n, self.fibre_base
            pts = np.empty((1 + q2 * len(base), n + 1), dtype=np.int64)
            pts[0] = self.vertex
            lines = pts[1:].reshape(q2, len(base), n + 1)
            lines[0] = base
            lines[1:, :, n] = 1
            for t, inv in enumerate(self.ctx.vinv(np.arange(1, q2)), start=1):
                lines[t, :, :n] = self.ctx.vmul(inv, base[:, :n])
            # a counting sort on the distinct canonical positions, one int32
            # slot and one flag per point of P^n: it loads no sort kernel
            pos = point_index(self.ctx, pts)
            slot = np.empty(pi_count(n, q2), dtype=np.int32)
            slot[pos] = np.arange(len(pts), dtype=np.int32)
            taken = np.zeros(len(slot), dtype=bool)
            taken[pos] = True
            del pos  # freed before the sorted copy
            pts = pts[slot[taken]]
        pts.setflags(write=False)
        return pts

    @cached_property
    def fibre_base(self) -> np.ndarray:
        """The points of a rank-n cone with x_j = 0, where v_j = 1 is the
        vertex's last nonzero coordinate: one on each line through the
        vertex, in canonical order.  The standard cone lifts its base
        variety's points with x_n = 0; any other cone reads them off its
        points."""
        if not self.is_rank_n_cone:
            raise ValueError("fibres are defined for rank-n cones")
        if self.base is not None:
            base = self.base.points
            lifted = np.zeros((len(base), self.n + 1), dtype=np.int64)
            lifted[:, : self.n] = base
        else:
            lifted = self.points[self.points[:, np.flatnonzero(self.vertex)[-1]] == 0]
        lifted.setflags(write=False)
        return lifted

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianVariety(n={self.n}, rank={self.rank}, q={self.ctx.q})"


def make_standard_cone(ctx: FieldCtx, n: int) -> HermitianVariety:
    """The rank-n cone: diag(1,...,1,0) in P^n, vertex [0:...:0:1], over the
    base U = :func:`make_nondegenerate` (n - 1) in x_n = 0 (n >= 2); refused
    as :func:`enumerate_points` refuses P^n."""
    check_point_budget(ctx, n)
    h = identity(n + 1)
    h[n, n] = 0
    cone = HermitianVariety(ctx, h)
    if n > 1:  # the cone in P^1 is its vertex alone
        cone.base = make_nondegenerate(ctx, n - 1)
    return cone


def make_nondegenerate(ctx: FieldCtx, n: int) -> HermitianVariety:
    """The standard nondegenerate variety: the identity matrix in P^n;
    refused as :func:`enumerate_points` refuses P^n."""
    check_point_budget(ctx, n)
    return HermitianVariety(ctx, identity(n + 1))


def count_points_formula(n: int, rank_case: str, q: int) -> int:
    """Closed-form rational point counts: the nondegenerate variety in P^n
    (n >= 0; empty for n = 0), or the rank-n cone (1 + q^2 times the
    nondegenerate count one dimension down)."""
    if rank_case == "nondegenerate":
        if n < 0:
            raise ValueError("n must be >= 0")
        num = (q**n - (-1) ** n) * (q ** (n + 1) - (-1) ** (n + 1))
        return num // (q * q - 1)
    if rank_case == "rank_n_cone":
        if n < 1:
            raise ValueError("n must be >= 1")
        return 1 + q * q * count_points_formula(n - 1, "nondegenerate", q)
    raise ValueError(f"unknown rank_case {rank_case!r}")


def tangent_hyperplanes(ctx: FieldCtx, variety: HermitianVariety, points) -> np.ndarray:
    """Polar hyperplanes at a stack of smooth rational points: the dual
    vectors H * a^(q), normalized, one row per point.  Raises for points off
    the variety and for the cone vertex (where the polar vanishes)."""
    pts = normalize_rows(ctx, points)
    if pts.ndim != 2 or pts.shape[1] != variety.n + 1:
        raise ValueError("dimension mismatch between matrix and point")
    if hermitian_form_values(ctx, variety.matrix, pts).any():
        raise ValueError("tangent hyperplane requires a point on the variety")
    duals = mat_mul(ctx, ctx.vfrob(pts), variety.matrix.T)
    if not duals.any(axis=1).all():
        raise ValueError("point is singular (the cone vertex has no tangent hyperplane)")
    return normalize_rows(ctx, duals)


def _section_gram_matrices(ctx: FieldCtx, matrix: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """(D, n, n) Gram matrices B^T H B^(q) of the form on each hyperplane.
    B is the (n+1) x n basis-completion matrix of the normalized dual u: its
    columns are e_a - u_a e_l for every a except the position l of u's final
    nonzero entry (which is 1).  Entrywise, for a, b != l,

        (B^T H B^(q))_ab = H[a,b] - H[a,l] u_b^q - u_a (H[l,b] - H[l,l] u_b^q),

    read from gathers of H, without forming B."""
    count, dim = duals.shape
    last = dim - 1 - np.argmax(duals[:, ::-1] != 0, axis=1)
    cols = np.nonzero(np.arange(dim)[None, :] != last[:, None])[1].reshape(count, dim - 1)
    u = np.take_along_axis(duals, cols, axis=1)
    uq = ctx.vfrob(u)
    lcol = last[:, None]
    tail = ctx.vsub(matrix[lcol, cols], ctx.vmul(matrix[lcol, lcol], uq))
    gram = ctx.vsub(
        matrix[cols[:, :, None], cols[:, None, :]],
        ctx.vmul(matrix[cols, lcol][:, :, None], uq[:, None, :]),
    )
    return ctx.vsub(gram, ctx.vmul(u[:, :, None], tail[:, None, :]))


def hyperplane_sections(
    ctx: FieldCtx, variety: HermitianVariety, duals
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrict the form to each hyperplane of a (D, n+1) stack of duals and
    classify the sections: (ranks, point counts, kinds), one entry per dual.
    Requires a nondegenerate variety or a rank-n cone.  The duals are taken
    in blocks whose Gram matrices and their elimination hold about four
    arrays of (n+1)^2 codes per dual, each within a quarter of CHUNK_ELEMS
    codes (or one dual's)."""
    duals = normalize_rows(ctx, duals)
    if duals.ndim != 2 or duals.shape[1] != variety.n + 1:
        raise ValueError("dimension mismatch between hyperplane and variety")
    if not (variety.is_nondegenerate or variety.is_rank_n_cone):
        raise ValueError("sections are defined for nondegenerate varieties and rank-n cones")
    if not len(duals):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=str)
    step = max(1, CHUNK_ELEMS // 4 // (variety.n + 1) ** 2)
    ranks = np.concatenate(
        [
            batch_rank(ctx, _section_gram_matrices(ctx, variety.matrix, duals[lo : lo + step]))
            for lo in range(0, len(duals), step)
        ]
    )
    counts = hyperplane_point_counts(ctx, variety.points, duals)
    if variety.is_nondegenerate:
        kinds = np.where(ranks == variety.n - 1, "tangent", "non_tangent")
    else:
        on_vertex = incidence_matrix(ctx, [variety.vertex], duals)[0]
        kinds = np.where(on_vertex, "vertex_incident", "vertex_avoiding")
    return ranks, counts, kinds

