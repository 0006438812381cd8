"""Points, hyperplanes, lines, and incidence for P^n(GF(q^2)).

A projective point is a length-(n+1) tuple/array of element codes,
normalized so the last nonzero coordinate is 1.  Enumeration order is
lexicographic on the normalized coordinate codes read left to right; it is
a pure function of the context and n, so column orders of every derived
matrix are reproducible across runs.  Hyperplanes are dual coefficient
vectors under the same normalization, and the dual space enumerates
identically.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx
from .limits import POINT_BUDGET, BudgetExceededError

__all__ = [
    "pi_count",
    "normalize_vector",
    "normalize_rows",
    "enumerate_points",
    "enumerate_hyperplanes",
    "incidence",
    "incidence_values",
    "line_through",
    "export_points_csv",
]

_POINT_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def pi_count(k: int, field_size: int) -> int:
    """1 + s + ... + s^k, the point count of P^k over a field of size s
    (0 for k = -1)."""
    if k < -1:
        raise ValueError("k must be >= -1")
    return sum(field_size**i for i in range(k + 1))


def normalize_vector(ctx: FieldCtx, vec) -> tuple[int, ...]:
    """Scale a nonzero coordinate vector so its last nonzero entry is 1."""
    vec = [int(c) for c in vec]
    last = -1
    for i in range(len(vec) - 1, -1, -1):
        if vec[i]:
            last = i
            break
    if last < 0:
        raise ValueError("zero vector does not define a projective point")
    if vec[last] == 1:
        return tuple(vec)
    s = ctx.inv(vec[last])
    return tuple(ctx.mul(s, c) for c in vec)


def normalize_rows(ctx: FieldCtx, rows) -> np.ndarray:
    """Vector twin of :func:`normalize_vector`: scale every coordinate vector
    along the last axis so its last nonzero entry is 1."""
    rows = np.asarray(rows, dtype=np.int64)
    nonzero = rows != 0
    if not nonzero.any(axis=-1).all():
        raise ValueError("zero vector does not define a projective point")
    last = rows.shape[-1] - 1 - np.argmax(nonzero[..., ::-1], axis=-1)
    lead = np.take_along_axis(rows, last[..., None], axis=-1)
    return ctx.vmul(ctx.vinv(lead), rows)


def _enumerate_points_raw(ctx: FieldCtx, n: int, budget: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = ctx.q2 ** (n + 1)
    if raw > budget:
        raise BudgetExceededError(
            f"enumerating P^{n}(GF({ctx.q2})) scans {raw} tuples > budget {budget}"
        )
    # Canonical (lexicographic) order without a sort: the normalized vectors
    # of length k + 1 are (0, x), then (1, 0, ..., 0), then (c, x) for
    # c = 1 .. q^2 - 1, with x running over those of length k in order.
    q2 = ctx.q2
    pts = np.ones((1, 1), dtype=np.int64)
    for k in range(1, n + 1):
        m = len(pts)
        out = np.zeros((q2 * m + 1, k + 1), dtype=np.int64)
        out[:m, 1:] = pts
        out[m, 0] = 1
        tail = out[m + 1 :].reshape(q2 - 1, m, k + 1)
        tail[:, :, 0] = np.arange(1, q2)[:, None]
        tail[:, :, 1:] = pts
        pts = out
    pts.setflags(write=False)
    return pts


def enumerate_points(ctx: FieldCtx, n: int, budget: int = POINT_BUDGET) -> np.ndarray:
    """All points of P^n(GF(q^2)) as an (N, n+1) array of codes, in
    canonical order.  N = pi_count(n, q^2).  The array is read-only and
    cached per (p, e, n)."""
    key = (ctx.p, ctx.e, n)
    cached = _POINT_CACHE.get(key)
    if cached is None:
        cached = _enumerate_points_raw(ctx, n, budget)
        _POINT_CACHE[key] = cached
    return cached


def enumerate_hyperplanes(ctx: FieldCtx, n: int, budget: int = POINT_BUDGET) -> np.ndarray:
    """All hyperplanes of P^n(GF(q^2)) as normalized dual vectors, in the
    same canonical order as the point enumeration."""
    return enumerate_points(ctx, n, budget)


def incidence(ctx: FieldCtx, point, hyperplane) -> bool:
    """True iff the point lies on the hyperplane (sum u_i x_i = 0)."""
    point = np.asarray(point)
    hyperplane = np.asarray(hyperplane)
    if point.shape != hyperplane.shape:
        raise ValueError("dimension mismatch between point and hyperplane")
    acc = 0
    for c, u in zip(point.tolist(), hyperplane.tolist()):
        acc = ctx.add(acc, ctx.mul(c, u))
    return acc == 0


def incidence_values(ctx: FieldCtx, points: np.ndarray, hyperplane) -> np.ndarray:
    """Vector of sum u_i x_i over a point array; == 0 gives the incidence mask."""
    hyperplane = np.asarray(hyperplane)
    acc = np.zeros(len(points), dtype=np.int64)
    for i, u in enumerate(hyperplane.tolist()):
        if u:
            acc = ctx.vadd(acc, ctx.vmul(u, points[:, i]))
    return acc


def line_through(ctx: FieldCtx, a, b) -> np.ndarray:
    """The q^2 + 1 rational points of the line through distinct points a, b,
    normalized, deduplicated, in canonical order."""
    a = normalize_vector(ctx, a)
    b = normalize_vector(ctx, b)
    if a == b:
        raise ValueError("line_through requires two distinct points")
    pts = {a}
    for t in range(ctx.q2):
        vec = [ctx.add(bc, ctx.mul(t, ac)) for ac, bc in zip(a, b)]
        pts.add(normalize_vector(ctx, vec))
    return np.array(sorted(pts), dtype=np.int64)


def export_points_csv(ctx: FieldCtx, n: int, points: np.ndarray, path) -> None:
    """Write a point list as CSV rows of codes, with a metadata header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n} p={ctx.p} e={ctx.e} modulus={ctx.modulus_token()}\n")
        for row in points:
            fh.write(",".join(str(int(c)) for c in row) + "\n")
