"""Intersection bounds for Hermitian varieties against hypersurfaces of
degree d <= q, extremal-configuration constructors, structural checkers for
the maximizers, and the exhaustive maximization oracle.

Bound values carry provenance.  Known theorem-grade values exist for the
plane curve case (Bezout) and the Hermitian surface (Sorensen).  For
n >= 4 one formula, the Edoukou-Ling-Xing value of the largest
|U_n intersect V(F)| (:func:`_section_max`), is proven for linear and
quadric sections and for cubic sections with q >= 7; other cells are
Unknown and stay Unknown unless the caller explicitly asks for the same
formula as a conjecture, which is tagged as such and never promoted.
The oracle bounds and the extremal witnesses rest on these values.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from typing import Iterator

import numpy as np

from .field import FieldCtx, code_dtype
from . import projspace
from .forms import (
    HomogeneousForm,
    MonomialBasis,
    SCAN_TABLE_ELEMS,
    coeffs_at_indices,
    combination_table,
    form_values,
    monomial_basis,
    monomial_values,
    product_of_hyperplanes,
    projective_form_count,
    projectivize_coeffs,
    scan_zero_counts,
    segments,
    shard_range,
)
from .hermitian import (
    HermitianVariety,
    count_points_formula,
    hermitian_form_values,
    make_nondegenerate,
    make_standard_cone,
    tangent_hyperplanes,
)
from .limits import EVAL_BUDGET, MAXIMIZER_CAP, check_index_space, check_scan_budget
from .projspace import (
    check_point_budget,
    enumerate_hyperplanes,
    enumerate_points,
    hyperplane_point_counts,
    incidence_matrix,
    line_through,
    normalize_vector,
)

__all__ = [
    "BoundValue",
    "serre_bound",
    "sorensen_max",
    "known_max_intersection",
    "conjectured_max_intersection",
    "cone_bound",
    "plane_cone_bound",
    "oracle_bound",
    "ExtremalWitness",
    "construct_extremal_form",
    "OracleResult",
    "oracle_target",
    "zero_count_summary",
    "cone_fibre_counts",
    "scan_summary",
    "bruteforce_max_intersection",
    "merge_oracle_results",
    "value_blocks",
    "fibre_root_counts",
    "check_union_of_cone_lines",
    "is_cone_with_vertex",
    "characterize_maximizers",
]


@dataclass(frozen=True)
class BoundValue:
    """An intersection bound: its integer value (None when unknown),
    provenance grade, and a descriptive source tag."""

    value: int | None
    provenance: str  # "theorem" | "conjecture" | "unknown"
    source: str

    @property
    def is_unknown(self) -> bool:
        return self.value is None


def _nondeg_count(j: int, q: int) -> int:
    return count_points_formula(j, "nondegenerate", q)


def _check_degree(d: int, q: int) -> None:
    if d < 1 or d > q:
        raise ValueError(f"degree d = {d} outside the regime 1 <= d <= q = {q}")


def serre_bound(n: int, d: int, field_size: int) -> int:
    """Maximum rational points of a degree-d hypersurface in P^n over a
    field of the given size, d <= size; attained exactly by d hyperplanes
    through a common codimension-2 flat."""
    if d < 1 or d > field_size:
        raise ValueError(f"degree d = {d} outside the regime d <= field size {field_size}")
    from .projspace import pi_count

    return d * field_size ** (n - 1) + pi_count(n - 2, field_size)


def sorensen_max(d: int, q: int) -> int:
    """Exact maximum of |U_3 intersect V(F)| over degree-d surfaces,
    d <= q: d(q^3 + q^2 - q) + q + 1."""
    _check_degree(d, q)
    return d * (q**3 + q**2 - q) + q + 1


def _section_max(n: int, d: int, q: int) -> int:
    """The Edoukou-Ling-Xing value of the largest |U_n intersect V(F)| over
    degree-d hypersurfaces of P^n: d|U_(n-1)| - (d-1)|U_(n-2)| for even n,
    (dq^2 - d + 1)|U_(n-2)| + d for odd n."""
    if n % 2 == 0:
        return d * _nondeg_count(n - 1, q) - (d - 1) * _nondeg_count(n - 2, q)
    return (d * q * q - d + 1) * _nondeg_count(n - 2, q) + d


def known_max_intersection(n: int, d: int, q: int) -> BoundValue:
    """Theorem-grade maximum of |U_n intersect V(F)| over degree-d
    hypersurfaces in P^n, where known; Unknown otherwise (d = 3 needs
    q >= 7 for n >= 4; d >= 4 is open for n >= 4)."""
    if n < 2:
        raise ValueError("known_max_intersection requires n >= 2")
    _check_degree(d, q)
    if n == 2:
        return BoundValue(d * (q + 1), "theorem", "bezout-plane-curve")
    if n == 3:
        return BoundValue(sorensen_max(d, q), "theorem", "sorensen")
    if d <= 2 or (d == 3 and q >= 7):
        source = ("hyperplane", "quadric", "cubic")[d - 1] + "-section"
        return BoundValue(_section_max(n, d, q), "theorem", source)
    return BoundValue(None, "unknown", "open-for-this-degree")


def conjectured_max_intersection(n: int, d: int, q: int) -> BoundValue:
    """The conjectural closed form for the maximum (n >= 3), tagged with
    conjecture provenance; never substituted into theorem-grade outputs."""
    if n < 3:
        raise ValueError("conjectured_max_intersection requires n >= 3")
    _check_degree(d, q)
    return BoundValue(_section_max(n, d, q), "conjecture", "edoukou-ling-xing")


def cone_bound(n: int, d: int, q: int, assume_conjecture: bool = False) -> BoundValue:
    """Upper bound for |rank-n cone intersect V(F)|, n >= 3: the larger of
    the vertex-avoiding-hyperplane branch and 1 + q^2 * (max over the base
    variety).  Unknown base maxima propagate unless assume_conjecture."""
    if n < 3:
        raise ValueError("cone_bound requires n >= 3 (use plane_cone_bound for n = 2)")
    _check_degree(d, q)
    base = known_max_intersection(n - 1, d, q)
    if base.is_unknown and assume_conjecture:
        base = conjectured_max_intersection(n - 1, d, q)
    if base.is_unknown:
        return BoundValue(None, "unknown", f"needs-open-base-maximum:{base.source}")
    hyperplane_branch = _nondeg_count(n - 1, q) + (d - 1) * (q + 1) * q ** (2 * n - 4)
    cone_branch = 1 + q * q * base.value
    return BoundValue(max(hyperplane_branch, cone_branch), base.provenance, base.source)


def plane_cone_bound(d: int, q: int) -> int:
    """Exact maximum of |plane cone intersect V(F)| over degree-d curves,
    d <= q: d*q^2 + 1, attained exactly by unions of d generator lines."""
    _check_degree(d, q)
    return d * q * q + 1


def oracle_bound(
    variety: str, n: int, d: int, q: int, assume_conjecture: bool = False
) -> BoundValue:
    """The bound an oracle run over ``variety`` is held to: the plane-cone
    maximum or :func:`cone_bound` for the cone, the known maximum for the
    nondegenerate variety, and the Serre bound over GF(q^2) for P^n."""
    if variety == "cone":
        if n == 2:
            return BoundValue(plane_cone_bound(d, q), "theorem", "plane-cone")
        return cone_bound(n, d, q, assume_conjecture=assume_conjecture)
    if variety == "nondegenerate":
        return known_max_intersection(n, d, q)
    if variety == "space":
        return BoundValue(serre_bound(n, d, q * q), "theorem", "serre")
    raise ValueError(f"unknown variety {variety!r}")


# ---------------------------------------------------------------------------
# Extremal witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalWitness:
    """A form attaining an intersection bound against the standard cone,
    with the attained count, a structural description tag, the duals of
    the linear factors whose product it is, and its codeword's support: the
    read-only positions of the cone points where the form does not vanish,
    from the one evaluation that checked the count."""

    form: HomogeneousForm
    predicted_count: int
    description: str
    factor_duals: tuple[tuple[int, ...], ...]
    support: np.ndarray = field(repr=False, compare=False)


def _generator_line_dual(ctx: FieldCtx, base_point) -> list[int]:
    # Line of P^2 through [0:0:1] and the base point [a:b:0]: dual (b, -a, 0).
    a, b = int(base_point[0]), int(base_point[1])
    return [b, ctx.neg(a), 0]


def _concurrent_secant_duals(ctx: FieldCtx, base: HermitianVariety, d: int) -> list[tuple[int, ...]]:
    """Duals of d concurrent secant lines of the base plane curve, through
    the first exterior point in enumeration order."""
    space = enumerate_points(ctx, base.n)
    exterior = space[np.flatnonzero(hermitian_form_values(ctx, base.matrix, space))[:1]]
    hyps = enumerate_hyperplanes(ctx, base.n)
    through = hyps[incidence_matrix(ctx, exterior, hyps)[0]]
    secants = through[hyperplane_point_counts(ctx, base.points, through) == ctx.q + 1]
    if len(secants) < d:
        raise RuntimeError("geometry bug: fewer secant lines through the exterior point than d")
    return [tuple(int(c) for c in dual) for dual in secants[:d]]


def _tangent_plane_duals_through_secant(
    ctx: FieldCtx, base: HermitianVariety, d: int
) -> list[tuple[int, ...]]:
    """Duals of d tangent planes of the base surface taken at d points of
    the first secant chord in enumeration order; such planes share the
    polar line of the chord, which is secant."""
    pts = base.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            chord = line_through(ctx, pts[i], pts[j])
            on_variety = chord[hermitian_form_values(ctx, base.matrix, chord) == 0]
            if len(on_variety) == ctx.q + 1:
                return list(map(tuple, tangent_hyperplanes(ctx, base, on_variety[:d]).tolist()))
    raise RuntimeError("geometry bug: no secant chord found on the base surface")


def construct_extremal_form(ctx: FieldCtx, variety: HermitianVariety, d: int) -> ExtremalWitness:
    """Construct a degree-d form attaining the exact intersection bound for
    the standard rank-n cone, n in {2, 3, 4}.

    The extremal configuration is built inside the vertex-avoiding
    hyperplane x_n = 0 against the base variety (d generator base points
    for n = 2; d concurrent secant lines through an exterior point for
    n = 3; d tangent planes through a common secant line for n = 4) and
    coned by omitting x_n from every linear factor.
    """
    q = ctx.q
    _check_degree(d, q)
    n = variety.n
    if not variety.is_rank_n_cone or variety.vertex != tuple([0] * n + [1]):
        raise ValueError("witness construction expects the standard cone (vertex last)")
    if n == 2:
        base = make_nondegenerate(ctx, 1)
        lifted = [_generator_line_dual(ctx, p) for p in base.points[:d]]
        description = f"union-of-{d}-generator-lines"
    elif n == 3:
        base = make_nondegenerate(ctx, 2)
        duals = _concurrent_secant_duals(ctx, base, d)
        lifted = [list(u) + [0] for u in duals]
        description = f"cone-over-{d}-concurrent-secant-lines"
    elif n == 4:
        base = make_nondegenerate(ctx, 3)
        duals = _tangent_plane_duals_through_secant(ctx, base, d)
        lifted = [list(u) + [0] for u in duals]
        description = f"cone-over-{d}-tangent-planes-through-secant"
    else:
        raise ValueError("witness construction covers n in {2, 3, 4}")
    predicted = oracle_bound("cone", n, d, q).value
    form = product_of_hyperplanes(ctx, lifted)
    form = HomogeneousForm(basis=form.basis, coeffs=projectivize_coeffs(ctx, form.coeffs))
    support = np.flatnonzero(form_values(ctx, form, variety.points))
    support.setflags(write=False)
    attained = len(variety.points) - len(support)
    if attained != predicted:
        raise RuntimeError(
            f"geometry bug: witness attains {attained}, predicted {predicted}"
        )
    return ExtremalWitness(
        form=form,
        predicted_count=predicted,
        description=description,
        factor_duals=tuple(tuple(int(c) for c in u) for u in lifted),
        support=support,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Exact maximum of the intersection count over a contiguous shard of
    all projectivized degree-d forms, with every maximizer (list capped,
    exact tally always reported)."""

    n: int
    d: int
    q2: int
    k: int
    n_points: int
    total_forms: int
    lo: int
    hi: int
    max_count: int
    n_maximizers: int
    maximizers: tuple[tuple[int, ...], ...]
    cap: int


def oracle_target(ctx: FieldCtx, variety: str, n: int):
    """The point set an oracle run over ``variety`` scans: the standard cone
    or nondegenerate variety, or the (N, n+1) point array of all of P^n.
    The cone and the nondegenerate variety have a bound for n >= 2 only, so
    n = 1 is refused here, before any scan."""
    if variety in ("cone", "nondegenerate") and n < 2:
        raise ValueError(f"the {variety} oracle requires n >= 2, got n = {n}")
    if variety == "cone":
        return make_standard_cone(ctx, n)
    if variety == "nondegenerate":
        return make_nondegenerate(ctx, n)
    if variety == "space":
        return enumerate_points(ctx, n)
    raise ValueError(f"unknown variety {variety!r}")


def zero_count_summary(
    ctx: FieldCtx, values: np.ndarray, lo: int, hi: int, cap: int
) -> tuple[np.ndarray, list[int]]:
    """One pass of the exhaustive scan over the global form indices [lo, hi)
    against the (k, m) value matrix, reduced to (histogram, maximizers).

    ``histogram[z]`` is the number of forms with exactly z zeros (int64,
    length m + 1); ``maximizers`` holds the global indices, in order, of the
    first ``cap`` forms whose zero count is the largest.  The weight
    distribution, the minimum distance and the maximum intersection with its
    maximizers are all read off these two.
    """
    return _summarize(scan_zero_counts(ctx, values, lo, hi), values.shape[1], cap)


def _summarize(pieces, m: int, cap: int) -> tuple[np.ndarray, list[int]]:
    """(histogram, maximizers) of :func:`zero_count_summary` from the
    (global start, zero counts) pieces of a scan over m points."""
    hist = np.zeros(m + 1, dtype=np.int64)
    best = -1
    kept: list[int] = []
    for start, zeros in pieces:
        hist += np.bincount(zeros, minlength=len(hist))
        piece_best = int(zeros.max())
        if piece_best > best:
            best, kept = piece_best, []
        if piece_best == best and len(kept) < cap:
            hits = np.flatnonzero(zeros == best)[: cap - len(kept)]
            kept.extend((hits + start).tolist())
    return hist, kept


def cone_fibre_counts(
    ctx: FieldCtx, cone: HermitianVariety, lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(global start, zero counts) pieces of the projectivized linear forms
    with global index in [lo, hi) on the standard rank-n cone, as
    :func:`forms.scan_zero_counts` yields them over all of its points, read
    from one scan of its base U alone.

    Write F = G(x') + c x_n.  On the line through the vertex v = e_n and a
    base point P, F(P + t v) = G(P) + t c and F(v) = c.  So F has |U| zeros
    (one on each line) when c != 0, and 1 + q^2 z_U(G) when c = 0, where
    z_U(G) is F's zero count on the base points, each with x_n = 0.  c is
    the last coefficient: the last base-q2 digit of the index within a
    segment, except in the last segment, the form x_n alone.  The scan's
    pieces never cross a segment, so each piece reads its segment once."""
    base = cone.fibre_base
    values = monomial_values(ctx, monomial_basis(cone.n, 1), base)
    q2, k, size = ctx.q2, len(values), len(base)
    starts = [seg_lo for _, seg_lo, _ in segments(q2, k)]
    for start, zeros in scan_zero_counts(ctx, values, lo, hi):
        t = bisect_right(starts, start) - 1
        c_zero = ((start - starts[t] + np.arange(len(zeros))) % q2 == 0) & (t < k - 1)
        yield start, np.where(c_zero, 1 + q2 * zeros, size)


def scan_summary(
    ctx: FieldCtx,
    target,
    basis: MonomialBasis,
    lo: int,
    hi: int,
    cap: int,
    budget: int = EVAL_BUDGET,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray, list[int]]:
    """(histogram, maximizers) of :func:`zero_count_summary` for the forms
    over ``basis`` with global index in [lo, hi) on the target's points, a
    HermitianVariety or an (N, n+1) point array.  The linear forms on the
    standard rank-n cone are counted by :func:`cone_fibre_counts` at its |U|
    base points; every other scan evaluates each form at every point, from
    ``values`` when given (the (k, N) monomial value matrix of the points).

    Each route is priced by the evaluations it makes, classes x |U| or
    classes x N, and more than ``budget`` are refused (BudgetExceededError)
    before anything is evaluated, as is a form space past int64."""
    fibres = basis.d == 1 and isinstance(target, HermitianVariety) and target.base is not None
    if fibres:
        points = target.fibre_base
    else:
        points = target.points if isinstance(target, HermitianVariety) else np.asarray(target)
    check_scan_budget((hi - lo) * len(points), budget)
    check_index_space(projective_form_count(ctx.q2, len(basis)))
    if fibres:
        return _summarize(cone_fibre_counts(ctx, target, lo, hi), 1 + ctx.q2 * len(points), cap)
    if values is None:
        values = monomial_values(ctx, basis, points)
    return zero_count_summary(ctx, values, lo, hi, cap)


def bruteforce_max_intersection(
    ctx: FieldCtx,
    target,
    n: int,
    d: int,
    shard: tuple[int, int] = (0, 1),
    budget: int = EVAL_BUDGET,
    cap: int = MAXIMIZER_CAP,
) -> OracleResult:
    """Exact global maximum of |target points intersect V(F)| over all
    projectivized degree-d forms in the shard, plus every maximizing form.

    ``target`` is a HermitianVariety or a raw (N, n+1) point array.  The
    scan is a pure map over contiguous index ranges followed by a
    deterministic (max, argmax-merge) reduction, so any sharding that
    partitions the index space yields the same merged answer.  An empty
    shard reports max_count -1 and no maximizers.
    """
    basis = monomial_basis(n, d)
    k = len(basis)
    total = projective_form_count(ctx.q2, k)
    lo, hi = shard_range(total, shard)
    hist, kept = scan_summary(ctx, target, basis, lo, hi, cap, budget)
    reached = np.flatnonzero(hist)
    best = int(reached[-1]) if reached.size else -1
    return OracleResult(
        n=n,
        d=d,
        q2=ctx.q2,
        k=k,
        n_points=len(hist) - 1,
        total_forms=total,
        lo=lo,
        hi=hi,
        max_count=best,
        n_maximizers=int(hist[best]) if best >= 0 else 0,
        maximizers=tuple(map(tuple, coeffs_at_indices(ctx.q2, k, kept).tolist())),
        cap=cap,
    )


def merge_oracle_results(parts: list[OracleResult]) -> OracleResult:
    """Merge contiguous shard results into the result for their combined
    index range.  Merging is associative, so any grouping of the shards of
    a full run reproduces the unsharded answer."""
    if not parts:
        raise ValueError("nothing to merge")
    parts = sorted(parts, key=lambda r: r.lo)
    head = parts[0]
    config = attrgetter("n", "d", "q2", "k", "n_points", "total_forms", "cap")
    if any(config(r) != config(head) for r in parts):
        raise ValueError("shard results disagree on the scan configuration")
    for prev, cur in zip(parts, parts[1:]):
        if prev.hi != cur.lo:
            raise ValueError("shards are not contiguous")
    best = max(r.max_count for r in parts)
    tied = [r for r in parts if r.max_count == best]
    return replace(
        head,
        hi=parts[-1].hi,
        max_count=best,
        n_maximizers=sum(r.n_maximizers for r in tied),
        maximizers=tuple(chain.from_iterable(r.maximizers for r in tied))[: head.cap],
    )


# ---------------------------------------------------------------------------
# Structural checkers for maximizers
# ---------------------------------------------------------------------------


def value_blocks(ctx: FieldCtx, coeffs: np.ndarray, values: np.ndarray):
    """Yield (first row, block) over the (N, k) coefficient stack against the
    (k, m) monomial value matrix, k >= 2: ``block[i, j]`` is the value of
    form ``first + i`` at point j, and ``block == 0`` its zero mask.  A block
    holds at most a quarter of ``projspace.CHUNK_ELEMS`` entries (or one
    row).

    The monomials split into G groups of L, the last one zero-padded in
    the code dtype;
    L <= k - 1 is the largest with q2^L <= max(q2, N) and
    q2^L * m <= ``SCAN_TABLE_ELEMS``, or 1.  A form picks one row of each
    group's row-major (q2^L, m) :func:`forms.combination_table`, named by
    its group coefficients as base-q2 digits, most significant first, and
    its values are the sum of those rows: a block costs one gather and
    G - 1 ``vadd``.  One build makes as many tables as fit in
    ``SCAN_TABLE_ELEMS`` codes."""
    (n_forms, k), m, q2 = coeffs.shape, values.shape[1], ctx.q2
    cap = min(max(q2, n_forms), SCAN_TABLE_ELEMS // max(m, 1))  # bounds q2^L
    width = 1
    while width < k - 1 and q2 ** (width + 1) <= cap:
        width += 1
    groups, size = -(-k // width), q2**width
    padded = np.zeros((groups * width, m), dtype=code_dtype(q2))
    padded[:k] = values
    digits = np.zeros((n_forms, groups * width), dtype=np.int64)
    digits[:, :k] = coeffs
    tables = np.empty((groups, size, m), dtype=code_dtype(q2))
    per_build = max(1, SCAN_TABLE_ELEMS // (size * max(m, 1)))
    for g in range(0, groups, per_build):
        part = padded[g * width : (g + per_build) * width].reshape(-1, width, m)
        tables[g : g + per_build] = combination_table(ctx, part).swapaxes(1, 2)
    # each form's row in each group's table, as a row of the stacked tables
    at = digits.reshape(n_forms, groups, width) @ q2 ** np.arange(width - 1, -1, -1)
    at += np.arange(groups) * size
    tables = tables.reshape(groups * size, m)
    step = max(1, projspace.CHUNK_ELEMS // 4 // max(m, 1))
    for lo in range(0, n_forms, step):
        picked = tables[at[lo : lo + step]]
        total = picked[:, 0]
        for g in range(1, groups):
            total = ctx.vadd(total, picked[:, g])
        yield lo, total


def _root_counts(ctx: FieldCtx, d: int) -> np.ndarray:
    """(q2^(d+1),) table of root counts.  Entry j, whose base-q2 digits are
    y_0 .. y_(d-1), c (most significant first), is the number of s in
    GF(q^2) where the polynomial f of degree <= d < q^2 with f(i) = y_i at
    the codes i = 0 .. d-1 and t^d coefficient c vanishes.  That f is
    sum_k y_k L_k + c prod_i (t - i), with L_k the Lagrange basis of the d
    nodes, so column j of the :func:`forms.combination_table` of the rows
    L_0 .. L_(d-1), prod_i (s - i) over every s holds f(s)."""
    s = np.arange(ctx.q2, dtype=np.int64)
    rows = np.ones((d + 1, ctx.q2), dtype=np.int64)
    for k in range(d):
        scale = 1
        for i in range(d):
            if i != k:
                rows[k] = ctx.vmul(rows[k], ctx.vsub(s, i))
                scale = ctx.mul(scale, ctx.add(k, ctx.neg(i)))
        rows[k] = ctx.vmul(rows[k], ctx.inv(scale))
        rows[d] = ctx.vmul(rows[d], ctx.vsub(s, k))
    return (combination_table(ctx, rows) == 0).sum(axis=0, dtype=np.min_scalar_type(ctx.q2))


def fibre_root_counts(ctx: FieldCtx, basis: MonomialBasis, coeffs: np.ndarray, base, vertex):
    """Yield (first row, at vertex, roots) for consecutive row blocks of the
    (N, k) coefficient stack: ``at_vertex[i]`` says form ``first + i``
    vanishes at ``vertex``, and ``roots[i, b]`` is its number of zeros other
    than the vertex on the line through the vertex and base point b.

    With v the normalized vertex and v_j = 1 its last nonzero coordinate,
    every base point must have x_j = 0; each line through v is then v and
    the q^2 points P + t v of exactly one such P.  On it F(P + t v) is a
    polynomial in t of degree <= d < q^2 whose t^d coefficient is F(v), so
    d + 1 points of the line decide it: the vertex, shared by every line,
    and P + t v at the codes t = 0 .. d-1.  Their values name its entry of
    :func:`_root_counts`, built once per call.  When that build would hold
    q2^(d+2) > ``SCAN_TABLE_ELEMS`` codes (GF(16) at d = 4, GF(25) at
    d >= 3), every point P + t v is read instead, t over all q^2 codes, and
    the zeros are counted along t.  The vertex and the points P + t v go
    through :func:`value_blocks`, so blocks stay within its chunk size."""
    vertex = np.asarray(normalize_vector(ctx, vertex), dtype=np.int64)
    base = np.asarray(base, dtype=np.int64).reshape(-1, len(vertex))
    if base[:, np.flatnonzero(vertex)[-1]].any():
        raise ValueError("fibre base points must have x_j = 0 where v_j = 1 is the vertex's last nonzero")
    d, q2 = basis.d, ctx.q2
    every_point = q2 ** (d + 2) > SCAN_TABLE_ELEMS
    nodes = q2 if every_point else d
    lines = ctx.vadd(base, ctx.vmul(np.arange(nodes)[:, None, None], vertex))
    points = np.concatenate([vertex[None], lines.reshape(-1, len(vertex))])
    roots = None if every_point else _root_counts(ctx, d)
    for lo, block in value_blocks(ctx, coeffs, monomial_values(ctx, basis, points)):
        at_v, on_lines = block[:, 0], block[:, 1:].reshape(len(block), nodes, len(base))
        if every_point:
            found = (on_lines == 0).sum(axis=1, dtype=np.min_scalar_type(q2))
        else:
            code = 0
            for values in on_lines.swapaxes(0, 1):
                code = code * q2 + values  # the digits y_0 .. y_(d-1), then F(v)
            found = roots[code * q2 + at_v[:, None]]
        yield lo, at_v == 0, found


def _form_stack(ctx: FieldCtx, forms) -> tuple[bool, MonomialBasis | None, np.ndarray | None]:
    """(single, basis, (N, k) coefficients) of one form or of a sequence of
    forms over one basis; basis and coefficients are None for an empty
    sequence.  Every coefficient must be a code of ``ctx``."""
    single = isinstance(forms, HomogeneousForm)
    forms = [forms] if single else list(forms)
    if not forms:
        return single, None, None
    basis = forms[0].basis
    if any(f.basis != basis for f in forms):
        raise ValueError("a stack of forms must share one monomial basis")
    coeffs = np.array([f.coeffs for f in forms], dtype=np.int64)
    ctx.check_codes(coeffs, "form coefficient")
    return single, basis, coeffs


def _stack_fibre_cover(ctx: FieldCtx, basis, coeffs, base, vertex):
    """(broken, whole, vertex is a zero) per form of the stack, from
    :func:`fibre_root_counts` over ``base``: whether some line through the
    vertex holds zeros but is not wholly zero, and how many are wholly zero
    (all q^2 points other than the vertex)."""
    q2 = ctx.q2
    blocks = [
        (((roots > 0) & (roots < q2)).any(axis=1), (roots == q2).sum(axis=1), at_vertex)
        for _, at_vertex, roots in fibre_root_counts(ctx, basis, coeffs, base, vertex)
    ]
    return tuple(np.concatenate(part) for part in zip(*blocks))


def check_union_of_cone_lines(ctx: FieldCtx, variety: HermitianVariety, forms):
    """Whether the intersection of a form's zero set with the rank-n cone
    is a union of full generator lines through the vertex, and how many.
    The vertex lies on every generator line, so it never counts separately.

    The count is the number of generator lines that lie wholly in the zero
    set, whether the check passes or fails; it is 0 when the vertex is not a
    zero or is the only one.

    ``forms`` is one HomogeneousForm, which gives one ``(ok, lines)``, or a
    sequence of forms over one basis, which gives a list with one
    ``(ok, lines)`` per form, in order.

    The whole stack shares one :func:`fibre_root_counts` pass over the
    cone's ``fibre_base``, its points with x_j = 0, one on each generator
    line (v_j = 1 is the vertex's last nonzero coordinate): the base U of
    the standard cone.  A form passes iff no generator line
    is broken (holds zeros without being wholly zero) and, when the vertex
    is a zero, some line is whole.  Its count comes from the same pass."""
    if not variety.is_rank_n_cone:
        raise ValueError("checker requires a rank-n cone")
    single, basis, coeffs = _form_stack(ctx, forms)
    if basis is None:
        return []
    base, vertex = variety.fibre_base, variety.vertex
    broken, lines, at_vertex = _stack_fibre_cover(ctx, basis, coeffs, base, vertex)
    # a passing form's zeros are the vertex and ``lines`` whole lines, or
    # none; the vertex alone is no union of lines
    results = [(bool(o), int(c)) for o, c in zip(~broken & ((lines > 0) | ~at_vertex), lines)]
    return results[0] if single else results


def is_cone_with_vertex(ctx: FieldCtx, forms, vertex):
    """True iff a form's zero set in P^n is a union of full lines through
    the given vertex: every rational zero other than the vertex extends to
    a line of zeros through it.

    ``forms`` is one HomogeneousForm, which gives one bool, or a sequence
    of forms over one basis, which gives a list with one bool per form, in
    order.

    The whole stack shares one :func:`fibre_root_counts` pass over the
    points of P^n with x_j = 0, one on each line through the vertex
    (v_j = 1 is its last nonzero coordinate): a form passes iff no such line
    holds zeros without being wholly zero.  A wholly zero line puts the
    vertex among the zeros, so a form that misses the vertex passes only
    without zeros."""
    single, basis, coeffs = _form_stack(ctx, forms)
    if basis is None:
        return []
    n = basis.n
    check_point_budget(ctx, n)
    j = int(np.flatnonzero(normalize_vector(ctx, vertex))[-1])
    hyperplane = enumerate_points(ctx, n - 1) if n > 1 else np.ones((1, 1), dtype=np.int64)
    ok = ~_stack_fibre_cover(ctx, basis, coeffs, np.insert(hyperplane, j, 0, axis=1), vertex)[0]
    results = [bool(o) for o in ok]
    return results[0] if single else results


def characterize_maximizers(ctx: FieldCtx, cone, result: OracleResult) -> dict | None:
    """An oracle report's ``characterization``, None off a rank-n cone: whether each listed
    maximizer meets the cone in a union of generator lines, the sorted line counts, and
    whether each maximizer's zero set in P^n is a cone with the same vertex.

    The listed maximizers go to each checker as one stack, so the whole
    list costs one call of each, not one per maximizer."""
    if not isinstance(cone, HermitianVariety) or not cone.is_rank_n_cone:
        return None
    basis = monomial_basis(result.n, result.d)
    forms = [HomogeneousForm(basis=basis, coeffs=coeffs) for coeffs in result.maximizers]
    covers = check_union_of_cone_lines(ctx, cone, forms)
    return {
        "union_of_generator_lines": all(ok for ok, _ in covers),
        "generator_lines": sorted({lines for _, lines in covers}),
        "cone_with_vertex": all(is_cone_with_vertex(ctx, forms, cone.vertex)),
    }
