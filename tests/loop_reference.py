"""Reference loops for the field, form-index and point-normalization
helpers, and the former per-degree intersection maxima.

These are the former scalar loops of ``field``, ``forms``,
``projspace`` and ``verify``, written one element or one index at a time.
The helpers now read tables or call the package's vectorised kernels; the
differential tests require them to agree with these loops exactly.
:func:`reference_known_max_intersection` and
:func:`reference_conjectured_max_intersection` write out each proven
degree's closed form on its own, as ``bounds`` did before it stated the
one section-maximum formula.
:func:`random_invertible` is the random-matrix helper the tests share.
"""

from __future__ import annotations

import numpy as np

from hermcodes.bounds import BoundValue
from hermcodes.field import code_dtype
from hermcodes.forms import (
    HomogeneousForm,
    monomial_basis,
    projective_form_count,
    segments,
    shard_range,
)
from hermcodes.hermitian import count_points_formula
from hermcodes.linalg import matrix_rank


def reference_pow(ctx, a: int, k: int) -> int:
    """Square-and-multiply power, negative k through the inverse."""
    if k < 0:
        a, k = ctx.inv(a), -k
    result, base = 1, a
    while k:
        if k & 1:
            result = ctx.mul(result, base)
        base = ctx.mul(base, base)
        k >>= 1
    return result


def reference_norm_preimage(ctx, b: int) -> int:
    if b == 0 or not ctx.in_base_field(b):
        raise ValueError(f"norm preimage requires b in GF(q)*, got {b}")
    for lam in range(1, ctx.q2):
        if ctx.norm(lam) == b:
            return lam
    raise AssertionError("norm is onto GF(q)*")


def reference_trace_preimage(ctx, b: int) -> int:
    if not ctx.in_base_field(b):
        raise ValueError(f"trace preimage requires b in GF(q), got {b}")
    for lam in range(ctx.q2):
        if ctx.trace(lam) == b:
            return lam
    raise AssertionError("trace is onto GF(q)")


def reference_normalize_vector(ctx, vec) -> tuple[int, ...]:
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


def random_invertible(ctx, size: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        s = rng.integers(0, ctx.q2, size=(size, size)).astype(np.int64)
        if matrix_rank(ctx, s) == size:
            return s


def reference_is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def reference_coeffs_at_index(q2: int, k: int, g: int) -> tuple[int, ...]:
    """Walk the segments to the one holding g, then peel its base-q2 digits."""
    for t, lo, hi in segments(q2, k):
        if lo <= g < hi:
            s = g - lo
            coeffs = [0] * k
            coeffs[t] = 1
            for pos in range(k - 1, t, -1):
                coeffs[pos] = s % q2
                s //= q2
            return tuple(coeffs)
    raise IndexError(f"form index {g} out of range")


def reference_enumerate_forms_projective(ctx, n: int, d: int, shard=(0, 1)):
    """Every nonzero degree-d form up to scalar in the shard, one segment
    walk per index."""
    basis = monomial_basis(n, d)
    lo, hi = shard_range(projective_form_count(ctx.q2, len(basis)), shard)
    for g in range(lo, hi):
        yield HomogeneousForm(basis=basis, coeffs=reference_coeffs_at_index(ctx.q2, len(basis), g))


def reference_missing_vertex_filter(q2: int, k: int, g) -> np.ndarray:
    """Whether the last coefficient of each form index is nonzero, from the
    index arithmetic alone: the lowest base-q2 digit of the in-segment index,
    or the leading 1 in the last segment."""
    g = np.asarray(g, dtype=np.int64)
    seg_lo = np.array([lo for _, lo, _ in segments(q2, k)])
    t = np.searchsorted(seg_lo, g, side="right") - 1
    return (t == k - 1) | ((g - seg_lo[t]) % q2 != 0)


def reference_combination_table(ctx, rows) -> np.ndarray:
    """The former combination-table build: an int64 (len, q2, m) sum per
    row, grown from the first row to the last, then cast to the code dtype."""
    m = rows.shape[1]
    q2 = ctx.q2
    codes = np.arange(q2, dtype=np.int64)[:, None]
    table = np.zeros((1, m), dtype=np.int64)
    for row in rows:
        multiples = ctx.vmul(codes, row[None, :])
        table = ctx.vadd(table[:, None, :], multiples[None, :, :]).reshape(len(table) * q2, m)
    return table.astype(code_dtype(q2))


def _u(j: int, q: int) -> int:
    return count_points_formula(j, "nondegenerate", q)


def reference_known_max_intersection(n: int, d: int, q: int) -> BoundValue:
    """The largest |U_n intersect V(F)| over degree-d hypersurfaces, 1 <= d
    <= q, one branch per proven case; Unknown where it is open."""
    if n == 2:
        return BoundValue(d * (q + 1), "theorem", "bezout-plane-curve")
    if n == 3:
        return BoundValue(d * (q**3 + q**2 - q) + q + 1, "theorem", "sorensen")
    even = n % 2 == 0
    if d == 1:
        value = _u(n - 1, q) if even else q * q * _u(n - 2, q) + 1
        return BoundValue(value, "theorem", "hyperplane-section")
    if d == 2:
        value = 2 * _u(n - 1, q) - _u(n - 2, q) if even else (2 * q * q - 1) * _u(n - 2, q) + 2
        return BoundValue(value, "theorem", "quadric-section")
    if d == 3 and q >= 7:
        value = 3 * _u(n - 1, q) - 2 * _u(n - 2, q) if even else (3 * q * q - 2) * _u(n - 2, q) + 3
        return BoundValue(value, "theorem", "cubic-section")
    return BoundValue(None, "unknown", "open-for-this-degree")


def reference_conjectured_max_intersection(n: int, d: int, q: int) -> BoundValue:
    """The conjectural closed form of the same maximum, n >= 3."""
    if n % 2 == 0:
        value = d * _u(n - 1, q) - (d - 1) * _u(n - 2, q)
    else:
        value = (d * q * q - d + 1) * _u(n - 2, q) + d
    return BoundValue(value, "conjecture", "edoukou-ling-xing")
