"""Hermitian matrices and varieties in P^n(GF(q^2)).

A Hermitian matrix is a nonzero (n+1) x (n+1) matrix H of element codes
with h_ij = h_ji^q (so the diagonal lies in GF(q)); its variety is the
zero set of x^T H x^(q).  The module provides form evaluation,
congruence reduction to diag(1,...,1,0,...,0), the standard rank-n cone
and nondegenerate varieties, closed-form point counts, polar tangent
hyperplanes, and hyperplane sections with their rank-based
classification.  Every route takes a stack of points or hyperplanes, and
form evaluation and the congruence transform also take a stack of
matrices, so sampled checks evaluate all their trials at once.

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
    h = np.asarray(matrix, dtype=np.int64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False
    if not h.any():
        return False
    return bool(np.array_equal(h.T, ctx.vfrob(h)))


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


def canonical_congruence(ctx: FieldCtx, matrix) -> tuple[np.ndarray, int]:
    """Invertible S with S^T H S^(q) = diag(1,...,1,0,...,0), plus the rank.

    Sesquilinear symmetric elimination with deterministic pivoting: the
    smallest remaining index with a nonzero diagonal entry is pivoted
    first; when the remaining diagonal vanishes, the lexicographically
    smallest nonzero off-diagonal entry h_ij is used to create a diagonal
    1 by the basis change e_i -> e_i + lam*e_j, where lam solves
    h_ij*lam^q + h_ij^q*lam = 1 through the trace preimage.
    """
    h0 = validate_hermitian(ctx, matrix)
    dim = h0.shape[0]
    a = h0.copy()
    s = identity(dim)

    def add_multiple(target: int, source: int, coeff: int) -> None:
        # basis change v_target += coeff * v_source
        cq = ctx.frob(coeff)
        s[:, target] = ctx.vadd(s[:, target], ctx.vmul(coeff, s[:, source]))
        a[:, target] = ctx.vadd(a[:, target], ctx.vmul(cq, a[:, source]))
        a[target, :] = ctx.vadd(a[target, :], ctx.vmul(coeff, a[source, :]))

    def swap(i: int, j: int) -> None:
        s[:, [i, j]] = s[:, [j, i]]
        a[:, [i, j]] = a[:, [j, i]]
        a[[i, j], :] = a[[j, i], :]

    def scale(i: int, factor: int) -> None:
        fq = ctx.frob(factor)
        s[:, i] = ctx.vmul(factor, s[:, i])
        a[:, i] = ctx.vmul(fq, a[:, i])
        a[i, :] = ctx.vmul(factor, a[i, :])

    t = 0
    while t < dim:
        pivot = next((i for i in range(t, dim) if a[i, i]), None)
        if pivot is None:
            off = next(
                ((i, j) for i in range(t, dim) for j in range(i + 1, dim) if a[i, j]),
                None,
            )
            if off is None:
                break
            i, j = off
            mu = ctx.trace_preimage(1)
            lam = ctx.mul(mu, ctx.inv(ctx.frob(int(a[i, j]))))
            add_multiple(i, j, lam)
            pivot = i
        if pivot != t:
            swap(t, pivot)
        diag = int(a[t, t])
        for j in range(dim):
            if j != t and a[t, j]:
                coeff = ctx.frob(ctx.neg(ctx.div(int(a[t, j]), diag)))
                add_multiple(j, t, coeff)
        factor = ctx.inv(ctx.norm_preimage(diag))
        if factor != 1:  # a diagonal 1 is already normalized
            scale(t, factor)
        t += 1

    return s, t


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
            q2, dim = self.ctx.q2, self.n + 1
            lines = np.repeat(self.fibre_base[None], q2, axis=0)
            lines[..., self.n] = np.arange(q2)[:, None]  # P + t v with v = e_n
            pts = np.concatenate([[self.vertex], normalize_rows(self.ctx, lines).reshape(-1, dim)])
            # a counting sort on the distinct canonical positions, one int32
            # slot and one flag per point of P^n: it loads no sort kernel
            pos = point_index(self.ctx, pts)
            slot = np.empty(pi_count(self.n, q2), dtype=np.int32)
            slot[pos] = np.arange(len(pts), dtype=np.int32)
            taken = np.zeros(len(slot), dtype=bool)
            taken[pos] = True
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

