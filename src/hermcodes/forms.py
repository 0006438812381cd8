"""Homogeneous forms of degree d over GF(q^2): monomial bases, evaluation,
projectivized enumeration with deterministic sharding, and products of
linear forms.

The monomial basis is graded-lexicographic with x0 > x1 > ... > xn, so for
fixed degree the exponent tuples appear in descending lex order; a form is
a coefficient vector over that basis.  Projectivization fixes the first
nonzero coefficient to 1, and the global enumeration index space is
partitioned into contiguous segments by the position of that leading 1,
which is what makes contiguous-range sharding a partition of all nonzero
forms up to scalar.

:func:`coeffs_at_indices` decodes global indices into coefficient rows and
the scan kernel walks the same segments; both compute indices in int64 and
refuse a form space of 2^63 or more classes (BudgetExceededError).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, prod
from typing import Iterator

import numpy as np

from .field import FieldCtx, code_dtype
from .limits import check_index_space
from .linalg import mat_mul

__all__ = [
    "MonomialBasis",
    "HomogeneousForm",
    "monomial_basis",
    "monomial_values",
    "form_values",
    "intersection_count",
    "projective_form_count",
    "shard_range",
    "segments",
    "coeffs_at_indices",
    "class_indices",
    "combination_table",
    "scan_zero_counts",
    "multiply_linear",
    "product_of_hyperplanes",
    "projectivize_coeffs",
    "form_to_json",
]


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered exponent tuples of the degree-d monomials in n+1 variables."""

    n: int
    d: int
    exponents: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class HomogeneousForm:
    basis: MonomialBasis
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis):
            raise ValueError("coefficient vector does not match the basis length")
        if not any(self.coeffs):
            raise ValueError("the zero form is not a valid HomogeneousForm")


def _exponent_tuples(nvars: int, total: int) -> Iterator[tuple[int, ...]]:
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponent_tuples(nvars - 1, total - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> MonomialBasis:
    """C(n+d, d) exponent tuples in graded-lex order (x0^d first)."""
    if n < 1 or d < 1:
        raise ValueError("monomial basis requires n >= 1 and d >= 1")
    exps = tuple(_exponent_tuples(n + 1, d))
    assert len(exps) == comb(n + d, d)
    return MonomialBasis(n=n, d=d, exponents=exps)


def _power_table(ctx: FieldCtx, max_degree: int) -> np.ndarray:
    codes = np.arange(ctx.q2, dtype=np.int64)
    table = np.ones((ctx.q2, max_degree + 1), dtype=np.int64)
    for t in range(1, max_degree + 1):
        table[:, t] = ctx.vmul(table[:, t - 1], codes)
    return table


def monomial_values(ctx: FieldCtx, basis: MonomialBasis, points: np.ndarray) -> np.ndarray:
    """(k, m) matrix of monomial values at each point, rows in basis order,
    columns in point order, in the code dtype; each power column x_var^e is
    read once.  The arithmetic kernels widen what they read to int64."""
    dtype = code_dtype(ctx.q2)
    powers = _power_table(ctx, basis.d).astype(dtype)
    degrees = range(1, basis.d + 1)
    cols = {(v, e): powers[points[:, v], e] for v in range(basis.n + 1) for e in degrees}
    out = np.empty((len(basis), len(points)), dtype=dtype)
    for i, exps in enumerate(basis.exponents):
        out[i] = reduce(ctx.vmul, [cols[v, e] for v, e in enumerate(exps) if e])
    return out


def form_values(ctx: FieldCtx, form: HomogeneousForm, points: np.ndarray) -> np.ndarray:
    ctx.check_codes(form.coeffs, "form coefficient")
    powers = _power_table(ctx, form.basis.d)
    acc = np.zeros(len(points), dtype=np.int64)
    for coeff, exps in zip(form.coeffs, form.basis.exponents):
        if coeff == 0:
            continue
        term = np.full(len(points), coeff, dtype=np.int64)
        for var, e in enumerate(exps):
            if e:
                term = ctx.vmul(term, powers[points[:, var], e])
        acc = ctx.vadd(acc, term)
    return acc


def intersection_count(ctx: FieldCtx, form: HomogeneousForm, points: np.ndarray) -> int:
    """Number of points in the list at which the form vanishes."""
    if len(points) == 0:
        return 0
    return int((form_values(ctx, form, points) == 0).sum())


# ---------------------------------------------------------------------------
# Projectivized enumeration: every nonzero form up to scalar exactly once.
# ---------------------------------------------------------------------------

def projective_form_count(q2: int, k: int) -> int:
    return (q2**k - 1) // (q2 - 1)


def segments(q2: int, k: int) -> list[tuple[int, int, int]]:
    """(leading index t, global lo, global hi) for each leading-coefficient
    segment; segment t holds the forms with coeffs[0..t-1] = 0 and
    coeffs[t] = 1."""
    out = []
    lo = 0
    for t in range(k):
        size = q2 ** (k - 1 - t)
        out.append((t, lo, lo + size))
        lo += size
    return out


def shard_range(total: int, shard: tuple[int, int]) -> tuple[int, int]:
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"invalid shard {index}/{count}")
    return (total * index) // count, (total * (index + 1)) // count


def coeffs_at_indices(q2: int, k: int, g) -> np.ndarray:
    """(N, k) int64 coefficient rows of the projectivized forms with the
    given global indices: in segment t, entry t is 1, the entries before it
    are 0 and the entries after it are the base-q2 digits of g - lo_t."""
    total = projective_form_count(q2, k)
    check_index_space(total)
    g = np.asarray(g, dtype=np.int64).reshape(-1)
    outside = (g < 0) | (g >= total)
    if outside.any():
        raise IndexError(f"form index {g[outside][0]} out of range")
    seg_lo = np.array([lo for _, lo, _ in segments(q2, k)], dtype=np.int64)
    t = np.searchsorted(seg_lo, g, side="right")[:, None] - 1
    pos = np.arange(k)
    return np.where(pos > t, (g[:, None] - seg_lo[t]) // q2 ** (k - 1 - pos) % q2, pos == t)


def class_indices(ctx: FieldCtx, coeffs) -> np.ndarray:
    """Global index of the projectivized class of each nonzero coefficient
    vector, one per row of an (N, k) array: the inverse of
    :func:`coeffs_at_indices` up to scalar.  Within segment t the index is the
    base-q2 number formed by the entries after t, once entry t is scaled to 1."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    k = coeffs.shape[1]
    first = np.argmax(coeffs != 0, axis=1)
    lead = coeffs[np.arange(len(coeffs)), first]
    scaled = ctx.vmul(ctx.vinv(lead)[:, None], coeffs)
    tail = np.where(np.arange(k)[None, :] > first[:, None], scaled, 0)
    weights = ctx.q2 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    seg_lo = np.array([lo for _, lo, _ in segments(ctx.q2, k)], dtype=np.int64)
    return seg_lo[first] + (tail * weights).sum(axis=1)


# Scan kernel sizes, counted in array elements.  One point block's low table
# holds at most SCAN_TABLE_ELEMS codes; one block's comparison chunk, point
# axis first, holds at most SCAN_CHUNK_ELEMS booleans, or a single block
# table's worth when one prefix already needs more.
SCAN_TABLE_ELEMS = 1 << 20
SCAN_CHUNK_ELEMS = 1 << 20


def combination_table(ctx: FieldCtx, rows: np.ndarray) -> np.ndarray:
    """(m, q2^L) table of every linear combination of the L given rows, one
    column per combination, in the code dtype; a stack (..., L, m) of row
    sets gives a stack (..., m, q2^L) of tables.  Column j holds
    sum_i c_i * rows[i], where c_0 ... c_{L-1} are the base-q2 digits of j,
    most significant first: the enumeration-index order.

    The table is filled in place, last row first: its q2 multiples are
    column gathers over runs of points, each within ``SCAN_CHUNK_ELEMS``
    codes; once the combinations of the rows after row i fill the first
    ``size`` columns, column block c holds them plus c * rows[i], so each
    later int64 temporary is one block."""
    q2 = ctx.q2
    *stack, n_rows, m = rows.shape
    table = np.zeros((*stack, m, q2**n_rows), dtype=code_dtype(q2))
    run = max(1, SCAN_CHUNK_ELEMS // (q2 * prod(stack)))
    size = 1
    for i in range(n_rows - 1, -1, -1):
        if size == 1:
            for lo in range(0, m, run):
                span = slice(lo, lo + run)
                table[..., span, :q2] = ctx.vmul(rows[..., i, span, None], np.arange(q2))
        else:
            for c in range(1, q2):  # one statement: no block outlives its copy
                table[..., c * size : (c + 1) * size] = ctx.vadd(
                    table[..., :size], ctx.vmul(c, rows[..., i, :, None])
                )
        size *= q2
    return table


def _negated_prefixes(ctx: FieldCtx, rows: np.ndarray, h0: int, h1: int) -> np.ndarray:
    """(m, h1 - h0) columns -(rows[0] + digits x rows[1:]) for the
    high-digit prefixes h0 .. h1-1 of a segment whose leading row and high
    rows are ``rows``, one column of base-q2 digits each, built point-major
    so the columns come out contiguous in the code dtype."""
    q2 = ctx.q2
    n_high = len(rows) - 1
    prefix = np.arange(h0, h1, dtype=np.int64)
    digits = prefix // q2 ** np.arange(n_high - 1, -1, -1, dtype=np.int64)[:, None] % q2
    high = mat_mul(ctx, rows[1:].T, digits)
    return ctx.vneg(ctx.vadd(rows[0][:, None], high)).astype(code_dtype(q2))


def _segment_counts(
    ctx: FieldCtx,
    values: np.ndarray,
    table: np.ndarray,
    block: int,
    t: int,
    n_low: int,
    seg_lo: int,
    a: int,
    b: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """(global start, zero counts) of the forms at local indices [a, b) of
    segment t, which begins at global index ``seg_lo``, as consecutive
    pieces; the last n_low free digits are looked up in ``table``.

    The segment's leading and high rows are widened to int64 once, for
    every chunk's prefix product.  Each chunk walks the point blocks of
    ``block`` points: a block compares a (block, per, width) array, point
    axis first, and adds its planes, read as uint8, into the chunk's one
    reused accumulator of the narrowest dtype that holds the total m; the
    counts are widened to int64 once per chunk."""
    k, m = values.shape
    width = ctx.q2**n_low
    low = table[:, :width]
    rows = values[t : k - n_low].astype(np.int64, copy=False)
    per = max(1, SCAN_CHUNK_ELEMS // (width * block))
    last = (b - 1) // width + 1
    acc = np.empty((per, width), dtype=np.min_scalar_type(m))
    part = np.empty_like(acc) if m > block else None
    for h0 in range(a // width, last, per):
        h1 = min(h0 + per, last)
        counts = acc[: h1 - h0]
        for b0 in range(0, max(m, 1), block):
            span = slice(b0, b0 + block)
            neg = _negated_prefixes(ctx, rows[:, span], h0, h1)
            out = part[: h1 - h0] if b0 else counts
            np.add.reduce(
                (low[span, None, :] == neg[:, :, None]).view(np.uint8),  # bools are 0/1 bytes
                axis=0,
                dtype=acc.dtype,
                out=out,
            )
            if b0:
                counts += out
        flat = counts.ravel().astype(np.int64)
        base = h0 * width
        first = max(a, base)
        yield seg_lo + first, flat[first - base : min(b, h1 * width) - base]


def scan_zero_counts(
    ctx: FieldCtx, values: np.ndarray, lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (global start index, per-form zero counts) for every
    projectivized coefficient vector with global index in [lo, hi),
    evaluated against the (k, m) value matrix.

    The pieces are contiguous from ``lo``, in index order, and never cross
    a leading-coefficient segment; each is one of the kernel's comparison
    chunks.  Within segment t the free coefficients split into high digits
    (rows t+1 ..) and the last L low digits.  The (m, q2^L) table of all
    combinations of the last L rows is built once, one column per
    combination; each high-digit prefix is reduced once to a column of m
    codes, negated, and compared with every table column, as a + b = 0
    exactly when a = -b.  A form's zero count is the number of points where
    its table column equals its negated prefix.  The yielded counts are
    int64.

    Blocks: the point axis is cut into blocks of B = min(m,
    ``SCAN_TABLE_ELEMS`` // q2^2) points, at least one, so that a block's
    (B, q2^L) table keeps two low digits however long the code is.  A chunk
    is a run of max(1, ``SCAN_CHUNK_ELEMS`` // (B q2^L)) prefixes; each
    block compares its (B, prefixes, q2^L) booleans, point axis first, and
    adds its planes into the chunk's one accumulator, uint8 (m < 256),
    uint16 or wider as the total m needs, whatever the block.

    Depth: L is the largest value that is at most the free digits of the
    range's first segment, has q2^L B <= ``SCAN_TABLE_ELEMS``, and has
    q2^(2L) <= 128 N for the N classes of the range.  Building the table
    costs about m q2^L and reducing the prefixes about m N / q2^L, so the
    best depth has q2^(2L) in proportion to N; the factor 128 is where a
    sweep of every L over the benchmark's scans and shards put it.  A shard
    or a short range builds only the table its range needs.

    Memory: the tables of every block are held at once, m q2^L codes in the
    code dtype: at most ``SCAN_TABLE_ELEMS`` for one block, at most q2^2
    codes a point for several, and never more than m sqrt(128 N).  A
    block's comparison holds at most ``SCAN_CHUNK_ELEMS`` booleans, or one
    prefix's B q2^L when that is more.
    """
    k, m = values.shape
    q2 = ctx.q2
    check_index_space(projective_form_count(q2, k))
    ranges = [
        (t, seg_lo, max(lo, seg_lo) - seg_lo, min(hi, seg_hi) - seg_lo)
        for t, seg_lo, seg_hi in segments(q2, k)
        if max(lo, seg_lo) < min(hi, seg_hi)
    ]
    if not ranges:
        return
    classes = sum(b - a for _, _, a, b in ranges)
    block = max(1, min(m, SCAN_TABLE_ELEMS // q2**2))
    n_low = 0
    while (
        n_low < k - 1 - ranges[0][0]
        and q2 ** (n_low + 1) * block <= SCAN_TABLE_ELEMS
        and q2 ** (2 * n_low + 2) <= 128 * classes
    ):
        n_low += 1
    table = combination_table(ctx, values[k - n_low :])
    for t, seg_lo, a, b in ranges:
        yield from _segment_counts(
            ctx, values, table, block, t, min(n_low, k - 1 - t), seg_lo, a, b
        )


def multiply_linear(ctx: FieldCtx, form: HomogeneousForm, dual) -> HomogeneousForm:
    """The degree-(d+1) product of ``form`` with the linear form whose
    coefficient vector is ``dual``."""
    dual = [int(u) for u in dual]
    if len(dual) != form.basis.n + 1:
        raise ValueError("dimension mismatch between form and linear form")
    ctx.check_codes(form.coeffs, "form coefficient")
    ctx.check_codes(dual, "linear form coefficient")
    coeff_map: dict[tuple[int, ...], int] = {}
    for exps, c in zip(form.basis.exponents, form.coeffs):
        if c == 0:
            continue
        for var, u in enumerate(dual):
            if u == 0:
                continue
            key = exps[:var] + (exps[var] + 1,) + exps[var + 1 :]
            coeff_map[key] = ctx.add(coeff_map.get(key, 0), ctx.mul(c, u))
    basis = monomial_basis(form.basis.n, form.basis.d + 1)
    return HomogeneousForm(
        basis=basis, coeffs=tuple(coeff_map.get(exps, 0) for exps in basis.exponents)
    )


def product_of_hyperplanes(ctx: FieldCtx, duals) -> HomogeneousForm:
    """Coefficient vector of the product of the given linear forms; its zero
    set is the union of the hyperplanes."""
    duals = [list(map(int, u)) for u in duals]
    if not duals:
        raise ValueError("product_of_hyperplanes requires at least one hyperplane")
    nvars = len(duals[0])
    if any(len(u) != nvars for u in duals):
        raise ValueError("hyperplane duals must share one dimension")
    form = HomogeneousForm(basis=monomial_basis(nvars - 1, 1), coeffs=tuple(duals[0]))
    for dual in duals[1:]:
        form = multiply_linear(ctx, form, dual)
    return form


def projectivize_coeffs(ctx: FieldCtx, coeffs) -> tuple[int, ...]:
    """Scale a nonzero coefficient vector so its first nonzero entry is 1."""
    coeffs = [int(c) for c in coeffs]
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        raise ValueError("cannot projectivize the zero form")
    if lead == 1:
        return tuple(coeffs)
    s = ctx.inv(lead)
    return tuple(ctx.mul(s, c) for c in coeffs)


def form_to_json(form: HomogeneousForm) -> dict:
    return {"n": form.basis.n, "d": form.basis.d, "coeffs": list(form.coeffs)}

