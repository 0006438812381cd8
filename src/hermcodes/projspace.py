"""Points, hyperplanes, lines, and incidence for P^n(GF(q^2)).

A projective point is a length-(n+1) tuple/array of element codes,
normalized so the last nonzero coordinate is 1.  Enumeration order is
lexicographic on the normalized coordinate codes read left to right; it is
a pure function of the context and n, so column orders of every derived
matrix are reproducible across runs.  A point's position in it has a
closed form (:func:`point_index`), so points are located without a search
and the enumeration is rebuilt on each call rather than kept.  Hyperplanes
are dual coefficient vectors under the same normalization, and the dual
space enumerates identically.

Lines are built directly, not found by walking point pairs: each line is
the row space of one reduced 2 x (n+1) echelon matrix (pivot columns
c1 < c2 plus free entries), its q^2 + 1 points are r1 and r2 + t*r1, and
their positions are read in closed form.  The lines through a stack of
point pairs are spanned the same way, all at once.  Incidence between many
points and many hyperplanes is one chunked product; the number of points
on each of many hyperplanes is read from the exhaustive scan kernel,
without the full incidence matrix.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx
from .forms import class_indices, scan_zero_counts
from .limits import POINT_BUDGET, BudgetExceededError, check_count_digits
from .linalg import mat_mul

__all__ = [
    "pi_count",
    "normalize_vector",
    "normalize_rows",
    "check_point_budget",
    "enumerate_points",
    "enumerate_hyperplanes",
    "point_index",
    "incidence_matrix",
    "hyperplane_point_counts",
    "line_through",
    "all_lines",
]

# Codes one block holds at once over all its full-size temporaries, in the
# steps that hold about four of them and give each a quarter: the line
# spans, the section Gram matrices and their elimination, the line checks'
# incidence and bounds.value_blocks.  incidence_matrix and verify's other
# blocks size a single temporary at CHUNK_ELEMS; callers of
# incidence_matrix that want less pass fewer points.
CHUNK_ELEMS = 1 << 18


def pi_count(k: int, field_size: int) -> int:
    """1 + s + ... + s^k, the point count of P^k over a field of size s
    (0 for k = -1)."""
    if k < -1:
        raise ValueError("k must be >= -1")
    return sum(field_size**i for i in range(k + 1))


def normalize_vector(ctx: FieldCtx, vec) -> tuple[int, ...]:
    """Scale a nonzero coordinate vector so its last nonzero entry is 1."""
    return tuple(normalize_rows(ctx, vec).tolist())


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


def check_point_budget(ctx: FieldCtx, n: int, budget: int = POINT_BUDGET) -> None:
    """Refuse P^n(GF(q^2)) for n < 1 (ValueError) and when enumerating it
    would scan more than ``budget`` coordinate tuples (BudgetExceededError)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_count_digits(ctx.q2, n)
    raw = ctx.q2 ** (n + 1)
    if raw > budget:
        raise BudgetExceededError(
            f"enumerating P^{n}(GF({ctx.q2})) scans {raw} tuples > budget {budget}"
        )


def enumerate_points(ctx: FieldCtx, n: int) -> np.ndarray:
    """All points of P^n(GF(q^2)) as a read-only (N, n+1) array of codes, in
    canonical order, built afresh on each call.  N = pi_count(n, q^2).
    Refused as :func:`check_point_budget` refuses P^n."""
    check_point_budget(ctx, n)
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


def enumerate_hyperplanes(ctx: FieldCtx, n: int) -> np.ndarray:
    """All hyperplanes of P^n(GF(q^2)) as normalized dual vectors, in the
    same canonical order as the point enumeration."""
    return enumerate_points(ctx, n)


def point_index(ctx: FieldCtx, rows) -> np.ndarray:
    """Canonical positions of the normalized points along the last axis:
    sum_i a_i N_(n-i) + #{i : a_i != 0} - 1, with N_t = (q^(2t) - 1) /
    (q^2 - 1) the number of normalized vectors of length t.  This is the
    enumeration's recursion in closed form: among the vectors of length
    k + 1, (0, x) sits at idx(x), (1, 0, ..., 0) at N_k and (c, x) at
    c N_k + 1 + idx(x)."""
    rows = np.asarray(rows, dtype=np.int64)
    sizes = (ctx.q2 ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64) - 1) // (ctx.q2 - 1)
    return (rows * sizes).sum(axis=-1) + np.count_nonzero(rows, axis=-1) - 1


def incidence_matrix(ctx: FieldCtx, points, duals) -> np.ndarray:
    """(P, D) boolean matrix: entry (i, j) says point i lies on hyperplane j.
    Built as the product points x duals^T a block of points at a time, each
    block's product holding at most CHUNK_ELEMS codes (or one row of D)."""
    points = np.asarray(points, dtype=np.int64)
    duals = np.asarray(duals, dtype=np.int64)
    if points.ndim != 2 or duals.ndim != 2 or points.shape[1] != duals.shape[1]:
        raise ValueError("dimension mismatch between point and hyperplane")
    out = np.empty((len(points), len(duals)), dtype=bool)
    step = max(1, CHUNK_ELEMS // max(len(duals), 1))
    for lo in range(0, len(points), step):
        out[lo : lo + step] = mat_mul(ctx, points[lo : lo + step], duals.T) == 0
    return out


def hyperplane_point_counts(ctx: FieldCtx, points, duals) -> np.ndarray:
    """Number of points of the (P, n+1) array on each hyperplane of a
    (D, n+1) stack of duals: the zero count of the linear form u.x, read
    from the scan kernel over the projectivized linear forms between the
    duals' smallest and largest class and mapped to the duals by class
    index.  Memory stays within the kernel's table and chunk sizes."""
    points = np.asarray(points, dtype=np.int64)
    duals = np.asarray(duals, dtype=np.int64)
    if points.ndim != 2 or duals.ndim != 2 or points.shape[1] != duals.shape[1]:
        raise ValueError("dimension mismatch between point and hyperplane")
    if not len(duals):
        return np.zeros(0, dtype=np.int64)
    index = class_indices(ctx, duals)
    lo, hi = int(index.min()), int(index.max()) + 1
    values = np.ascontiguousarray(points.T)
    counts = np.concatenate([c for _, c in scan_zero_counts(ctx, values, lo, hi)])
    return counts[index - lo]


def _span_points(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., q^2 + 1, n+1) normalized points of the lines spanned by the
    independent rows a, b: first a, then b + t*a for every code t.  The
    points are written into one array, so about three of that size are held
    at once."""
    t = np.arange(ctx.q2, dtype=np.int64)[:, None]
    pts = np.empty(a.shape[:-1] + (ctx.q2 + 1, a.shape[-1]), dtype=np.int64)
    pts[..., 0, :] = a
    pts[..., 1:, :] = ctx.vadd(b[..., None, :], ctx.vmul(t, a[..., None, :]))
    return normalize_rows(ctx, pts)


def line_through(ctx: FieldCtx, a, b) -> np.ndarray:
    """The q^2 + 1 rational points of the line through distinct points a, b,
    normalized, in canonical order.  a and b may be stacks (..., n+1) of
    pairs, giving (..., q^2 + 1, n+1); every pair must be distinct."""
    a, b = normalize_rows(ctx, [a, b])
    if (a == b).all(axis=-1).any():
        raise ValueError("line_through requires two distinct points")
    pts = _span_points(ctx, a, b)
    order = np.argsort(point_index(ctx, pts), axis=-1)
    return np.take_along_axis(pts, order[..., None], axis=-2)


def _echelon_pairs(q2: int, n: int) -> np.ndarray:
    """(L, 2, n+1) reduced echelon row pairs, one per line of P^n: row 1 has
    its leading 1 in column c1, row 2 in column c2 > c1 (where row 1 is 0),
    and every entry right of a leading 1 is free."""
    blocks = []
    for c1 in range(n + 1):
        for c2 in range(c1 + 1, n + 1):
            free = [(0, j) for j in range(c1 + 1, n + 1) if j != c2]
            free += [(1, j) for j in range(c2 + 1, n + 1)]
            size = q2 ** len(free)
            pairs = np.zeros((size, 2, n + 1), dtype=np.int64)
            pairs[:, 0, c1] = 1
            pairs[:, 1, c2] = 1
            index = np.arange(size, dtype=np.int64)
            for place, (row, col) in enumerate(reversed(free)):
                pairs[:, row, col] = index // q2**place % q2
            blocks.append(pairs)
    return np.concatenate(blocks)


def all_lines(ctx: FieldCtx, n: int, budget: int = POINT_BUDGET) -> np.ndarray:
    """Every line of P^n(GF(q^2)) once, as an (L, q^2 + 1) int64 array of
    indices into ``enumerate_points(ctx, n)``.  Each row increases, and the
    rows are ordered by their first two indices: the order in which a walk
    over point pairs (i < j) would first meet each line.  The budget bounds
    both the q^(2(n+1)) tuples of the point enumeration and the
    L * (q^2 + 1) line points; it is checked before anything is built, and
    n < 1 is refused as :func:`check_point_budget` refuses it.  A block of
    lines holds about four arrays of its span's size (the span, its
    normalization, the position sum), each within a quarter of
    CHUNK_ELEMS codes (or one line's)."""
    q2 = ctx.q2
    count = (q2 ** (n + 1) - 1) * (q2**n - 1) // ((q2 * q2 - 1) * (q2 - 1))
    tuples, visits = q2 ** (n + 1), count * (q2 + 1)
    if max(tuples, visits) > budget:
        raise BudgetExceededError(
            f"enumerating the lines of P^{n}(GF({q2})) scans {tuples} tuples and visits "
            f"{visits} points > budget {budget}"
        )
    check_point_budget(ctx, n, budget)
    pairs = _echelon_pairs(q2, n)
    lines = np.empty((count, q2 + 1), dtype=np.int64)
    step = max(1, CHUNK_ELEMS // 4 // ((q2 + 1) * (n + 1)))
    for lo in range(0, count, step):
        block = pairs[lo : lo + step]
        lines[lo : lo + step] = point_index(ctx, _span_points(ctx, block[:, 0], block[:, 1]))
    lines.sort(axis=1)
    return lines[np.lexsort((lines[:, 1], lines[:, 0]))]

