"""Reference loops for the batched geometry routes.

These are the former per-point, per-line, per-hyperplane, per-matrix and
per-trial loops of ``projspace``, ``hermitian`` and ``verify``: one scalar
field operation, one hyperplane, one matrix or one sampled trial at a
time.  The differential tests require the batched routes to give the same
values, and ``test_verify_geometry.py`` runs the ``projspace`` and
``hermitian`` suites on the reference checks below to compare every
(name, passed, detail).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from hermcodes.hermitian import (
    count_points_formula,
    make_nondegenerate,
    make_standard_cone,
)
from hermcodes.linalg import identity, mat_mul, matrix_rank, row_reduce
from hermcodes.projspace import (
    enumerate_hyperplanes,
    enumerate_points,
    pi_count,
)
from hermcodes.verify import CheckResult, random_hermitian
from loop_reference import reference_norm_preimage, reference_normalize_vector


@dataclass(frozen=True)
class SectionInfo:
    """A hyperplane section of a Hermitian variety: the rank of the
    restricted form, the section's rational point count, and the section
    type (tangent / non_tangent for nondegenerate varieties,
    vertex_avoiding / vertex_incident for rank-n cones)."""

    rank: int
    point_count: int
    kind: str


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def reference_incidence(ctx, point, hyperplane) -> bool:
    point = np.asarray(point)
    hyperplane = np.asarray(hyperplane)
    if point.shape != hyperplane.shape:
        raise ValueError("dimension mismatch between point and hyperplane")
    acc = 0
    for c, u in zip(point.tolist(), hyperplane.tolist()):
        acc = ctx.add(acc, ctx.mul(c, u))
    return acc == 0


def reference_incidence_values(ctx, points, hyperplane) -> np.ndarray:
    """Vector of sum u_i x_i over a point array, one hyperplane at a time;
    == 0 gives the incidence mask."""
    hyperplane = np.asarray(hyperplane)
    acc = np.zeros(len(points), dtype=np.int64)
    for i, u in enumerate(hyperplane.tolist()):
        if u:
            acc = ctx.vadd(acc, ctx.vmul(u, points[:, i]))
    return acc


def reference_incidence_matrix(ctx, points, duals, chunk) -> np.ndarray:
    """The (P, D) incidence mask as a sum of vmul/vadd terms over the
    coordinates, a block of at most ``chunk`` // D points at a time."""
    points = np.asarray(points, dtype=np.int64)
    duals = np.asarray(duals, dtype=np.int64)
    out = np.empty((len(points), len(duals)), dtype=bool)
    step = max(1, chunk // max(len(duals), 1))
    for lo in range(0, len(points), step):
        block = points[lo : lo + step, None, :]
        acc = np.zeros((len(block), len(duals)), dtype=np.int64)
        for i in range(points.shape[1]):
            acc = ctx.vadd(acc, ctx.vmul(block[:, :, i], duals[None, :, i]))
        out[lo : lo + step] = acc == 0
    return out


def reference_line_through(ctx, a, b) -> np.ndarray:
    a = reference_normalize_vector(ctx, a)
    b = reference_normalize_vector(ctx, b)
    if a == b:
        raise ValueError("line_through requires two distinct points")
    pts = {a}
    for t in range(ctx.q2):
        vec = [ctx.add(bc, ctx.mul(t, ac)) for ac, bc in zip(a, b)]
        pts.add(reference_normalize_vector(ctx, vec))
    return np.array(sorted(pts), dtype=np.int64)


def reference_iter_all_lines(ctx, n, line_through=reference_line_through):
    """Every line of P^n exactly once, by the pair-coverage walk: the first
    uncovered pair (i, j) in lexicographic order yields the line through
    it, and every pair on that line is marked covered."""
    pts = enumerate_points(ctx, n)
    index = {tuple(int(c) for c in p): i for i, p in enumerate(pts)}
    covered: set[tuple[int, int]] = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (i, j) in covered:
                continue
            line = line_through(ctx, pts[i], pts[j])
            idxs = sorted(index[tuple(int(c) for c in r)] for r in line)
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    covered.add((idxs[a], idxs[b]))
            yield line


def reference_hermitian_form_values(ctx, matrix, points) -> np.ndarray:
    """x^T H x^(q) for one matrix over an (N, n+1) point array, one
    coefficient h_ij at a time, skipping the zero ones."""
    h = np.asarray(matrix, dtype=np.int64)
    y = ctx.vfrob(points)
    acc = np.zeros(len(points), dtype=np.int64)
    for i in range(h.shape[0]):
        row = np.zeros(len(points), dtype=np.int64)
        for j in range(h.shape[1]):
            if h[i, j]:
                row = ctx.vadd(row, ctx.vmul(int(h[i, j]), y[:, j]))
        acc = ctx.vadd(acc, ctx.vmul(points[:, i], row))
    return acc


def reference_congruence_transform(ctx, matrix, s) -> np.ndarray:
    """S^T H S^(q) for one matrix H and one basis change S."""
    s = np.asarray(s, dtype=np.int64)
    return mat_mul(ctx, mat_mul(ctx, s.T, np.asarray(matrix, dtype=np.int64)), ctx.vfrob(s))


def reference_canonical_congruence(ctx, matrix) -> tuple[np.ndarray, int]:
    """The congruence reduction of one matrix, one basis change at a time:
    the diagonal pivot or the created one moves to position t, then every
    nonzero h_tj is cleared by its own e_j -> e_j + c_j e_t and e_t is
    scaled unless its norm preimage is 1."""
    h = np.asarray(matrix, dtype=np.int64)
    dim = h.shape[0]
    a = h.copy()
    s = identity(dim)

    def add_multiple(target, source, coeff):
        cq = ctx.frob(coeff)
        s[:, target] = ctx.vadd(s[:, target], ctx.vmul(coeff, s[:, source]))
        a[:, target] = ctx.vadd(a[:, target], ctx.vmul(cq, a[:, source]))
        a[target, :] = ctx.vadd(a[target, :], ctx.vmul(coeff, a[source, :]))

    t = 0
    while t < dim:
        pivot = next((i for i in range(t, dim) if a[i, i]), None)
        if pivot is None:
            off = next(
                ((i, j) for i in range(t, dim) for j in range(i + 1, dim) if a[i, j]), None
            )
            if off is None:
                break
            i, j = off
            lam = ctx.mul(ctx.trace_preimage(1), ctx.inv(ctx.frob(int(a[i, j]))))
            add_multiple(i, j, lam)
            pivot = i
        if pivot != t:
            s[:, [t, pivot]] = s[:, [pivot, t]]
            a[:, [t, pivot]] = a[:, [pivot, t]]
            a[[t, pivot], :] = a[[pivot, t], :]
        diag = int(a[t, t])
        for j in range(dim):
            if j != t and a[t, j]:
                add_multiple(j, t, ctx.frob(ctx.neg(ctx.div(int(a[t, j]), diag))))
        factor = ctx.inv(reference_norm_preimage(ctx, diag))
        if factor != 1:
            s[:, t] = ctx.vmul(factor, s[:, t])
            a[:, t] = ctx.vmul(ctx.frob(factor), a[:, t])
            a[t, :] = ctx.vmul(factor, a[t, :])
        t += 1
    return s, t


def reference_section_gram_matrices(ctx, matrix, duals) -> np.ndarray:
    """(D, n, n) Gram matrices B^T H B^(q) as two products with the stack of
    basis-completion matrices B: the columns of B are e_i - u_i e_last for
    every i except the position ``last`` of the dual's final nonzero
    entry."""
    duals = np.asarray(duals, dtype=np.int64)
    count, dim = duals.shape
    last = dim - 1 - np.argmax(duals[:, ::-1] != 0, axis=1)
    cols = np.nonzero(np.arange(dim)[None, :] != last[:, None])[1].reshape(count, dim - 1)
    stack, place = np.arange(count)[:, None], np.arange(dim - 1)[None, :]
    basis = np.zeros((count, dim, dim - 1), dtype=np.int64)
    basis[stack, cols, place] = 1
    basis[stack, last[:, None], place] = ctx.vneg(np.take_along_axis(duals, cols, axis=1))
    return mat_mul(ctx, mat_mul(ctx, basis.swapaxes(1, 2), matrix), ctx.vfrob(basis))


def reference_evaluate_hermitian_form(ctx, matrix, x) -> int:
    h = np.asarray(matrix, dtype=np.int64)
    x = [int(c) for c in x]
    if len(x) != h.shape[0]:
        raise ValueError("dimension mismatch between matrix and point")
    y = [ctx.frob(c) for c in x]
    acc = 0
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = 0
        for j, yj in enumerate(y):
            row = ctx.add(row, ctx.mul(int(h[i, j]), yj))
        acc = ctx.add(acc, ctx.mul(xi, row))
    return acc


def reference_tangent_hyperplane(ctx, variety, a) -> tuple[int, ...]:
    a = reference_normalize_vector(ctx, a)
    if reference_evaluate_hermitian_form(ctx, variety.matrix, a) != 0:
        raise ValueError("tangent hyperplane requires a point on the variety")
    h = variety.matrix
    aq = [ctx.frob(c) for c in a]
    dual = [0] * (variety.n + 1)
    for i in range(variety.n + 1):
        acc = 0
        for j, yj in enumerate(aq):
            acc = ctx.add(acc, ctx.mul(int(h[i, j]), yj))
        dual[i] = acc
    if not any(dual):
        raise ValueError("point is singular (the cone vertex has no tangent hyperplane)")
    return reference_normalize_vector(ctx, dual)


def reference_hyperplane_section(ctx, variety, dual) -> SectionInfo:
    """One hyperplane at a time: the Gram matrix in a basis-completion
    matrix, its rank by ``row_reduce``, and the point count by filtering the
    variety's points with ``incidence_values``."""
    dual = reference_normalize_vector(ctx, dual)
    if len(dual) != variety.n + 1:
        raise ValueError("dimension mismatch between hyperplane and variety")
    if not (variety.is_nondegenerate or variety.is_rank_n_cone):
        raise ValueError("sections are defined for nondegenerate varieties and rank-n cones")
    dim = len(dual)
    last = max(i for i in range(dim) if dual[i])
    cols = [i for i in range(dim) if i != last]
    basis = np.zeros((dim, dim - 1), dtype=np.int64)
    for idx, i in enumerate(cols):
        basis[i, idx] = 1
        basis[last, idx] = ctx.neg(dual[i])
    restricted = mat_mul(ctx, mat_mul(ctx, basis.T, variety.matrix), ctx.vfrob(basis))
    section_rank = len(row_reduce(ctx, restricted)[1]) if restricted.any() else 0
    on_plane = reference_incidence_values(ctx, variety.points, dual) == 0
    count = int(on_plane.sum())
    if variety.is_nondegenerate:
        kind = "tangent" if section_rank == variety.n - 1 else "non_tangent"
    else:
        vertex = np.asarray([variety.vertex], dtype=np.int64)
        vertex_on = reference_incidence_values(ctx, vertex, dual)[0] == 0
        kind = "vertex_incident" if vertex_on else "vertex_avoiding"
    return SectionInfo(rank=section_rank, point_count=count, kind=kind)


# ---------------------------------------------------------------------------
# The former check bodies, on the loops above
# ---------------------------------------------------------------------------


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def reference_check_incidence_duality(ctx, n):
    pts = enumerate_points(ctx, n)
    hyps = enumerate_hyperplanes(ctx, n)
    per_hyp = np.array([int((reference_incidence_values(ctx, pts, h) == 0).sum()) for h in hyps])
    expected = pi_count(n - 1, ctx.q2)
    ok = bool((per_hyp == expected).all())
    total = int(per_hyp.sum())
    ok &= total == len(pts) * expected
    fixed = pts[0]
    missing = sum(1 for h in hyps if not reference_incidence(ctx, fixed, h))
    ok &= missing == ctx.q2**n
    second = pts[1]
    both = sum(
        1
        for h in hyps
        if reference_incidence(ctx, fixed, h) and reference_incidence(ctx, second, h)
    )
    ok &= both == pi_count(n - 2, ctx.q2)
    ok &= expected - pi_count(n - 2, ctx.q2) == ctx.q2 ** (n - 1)
    return _result(
        "incidence_duality",
        ok,
        f"each hyperplane holds pi_{n - 1} points; {ctx.q2**n} hyperplanes miss a fixed "
        f"point; pi_{n - 2} pass through two fixed points",
    )


def reference_check_line_basics(ctx, n, seed=0):
    rng = random.Random(seed)
    pts = enumerate_points(ctx, n)
    ok = True
    for _ in range(20):
        i, j = rng.sample(range(len(pts)), 2)
        line = reference_line_through(ctx, pts[i], pts[j])
        ok &= len(line) == ctx.q2 + 1
        ok &= np.array_equal(line, reference_line_through(ctx, pts[j], pts[i]))
        duals = [
            h
            for h in enumerate_hyperplanes(ctx, n)
            if reference_incidence(ctx, pts[i], h) and reference_incidence(ctx, pts[j], h)
        ]
        for h in duals:
            ok &= bool((reference_incidence_values(ctx, line, h) == 0).all())
    return _result("line_basics", ok, "q^2+1 points, symmetric, hyperplane-collinear")


def reference_check_congruence_reduction(ctx, n, trials, seed=1):
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        h = random_hermitian(ctx, n, rng)
        s, r = reference_canonical_congruence(ctx, h)
        ok &= matrix_rank(ctx, s) == n + 1
        diag = reference_congruence_transform(ctx, h, s)
        expected = np.zeros_like(diag)
        for i in range(r):
            expected[i, i] = 1
        ok &= np.array_equal(diag, expected)
        ok &= r == matrix_rank(ctx, h)
        if n <= 3:
            space = enumerate_points(ctx, n)
            before = int((reference_hermitian_form_values(ctx, h, space) == 0).sum())
            after = int((reference_hermitian_form_values(ctx, diag, space) == 0).sum())
            ok &= before == after
    return _result(
        "congruence_reduction",
        ok,
        f"{trials} random Hermitian matrices reduce to diag(1..1,0..0) with rank and "
        "point count preserved",
    )


def reference_check_line_trichotomy(ctx, n):
    q = ctx.q
    variety = make_nondegenerate(ctx, n)
    allowed = {1, q + 1} if n == 2 else {1, q + 1, q * q + 1}
    tally: dict[int, int] = {}
    for line in reference_iter_all_lines(ctx, n):
        count = int((reference_hermitian_form_values(ctx, variety.matrix, line) == 0).sum())
        tally[count] = tally.get(count, 0) + 1
    ok = set(tally) <= allowed
    return _result(
        "line_trichotomy",
        ok,
        f"U_{n}, q={q}: intersection tallies {tally} within {sorted(allowed)}",
    )


def reference_check_section_dichotomy(ctx, n):
    q = ctx.q
    variety = make_nondegenerate(ctx, n)
    tangent_count = 1 + q * q * count_points_formula(n - 2, "nondegenerate", q) if n >= 2 else None
    nontangent_count = count_points_formula(n - 1, "nondegenerate", q)
    polar_duals = {reference_tangent_hyperplane(ctx, variety, p) for p in variety.points}
    ok = True
    n_tangent = 0
    for dual in enumerate_hyperplanes(ctx, n):
        sec = reference_hyperplane_section(ctx, variety, dual)
        if sec.kind == "tangent":
            n_tangent += 1
            ok &= sec.rank == n - 1 and sec.point_count == tangent_count
            ok &= tuple(int(c) for c in dual) in polar_duals
        else:
            ok &= sec.rank == n and sec.point_count == nontangent_count
    ok &= n_tangent == len(polar_duals) == len(variety.points)
    return _result(
        "hyperplane_section_dichotomy",
        ok,
        f"U_{n}, q={q}: {n_tangent} tangent sections (rank {n - 1}, {tangent_count} points), "
        f"others rank {n} with {nontangent_count} points; tangent set equals the polar duals",
    )


def reference_check_vertex_avoiding_sections(ctx, n):
    q = ctx.q
    cone = make_standard_cone(ctx, n)
    expected = count_points_formula(n - 1, "nondegenerate", q)
    checked = 0
    ok = True
    for dual in enumerate_hyperplanes(ctx, n):
        if reference_incidence(ctx, cone.vertex, dual):
            continue
        sec = reference_hyperplane_section(ctx, cone, dual)
        ok &= sec.kind == "vertex_avoiding" and sec.point_count == expected
        if n >= 2:
            ok &= sec.rank == n
        checked += 1
    ok &= checked == ctx.q2**n
    return _result(
        "vertex_avoiding_sections",
        ok,
        f"cone in P^{n}, q={q}: all {checked} vertex-avoiding sections have {expected} points",
    )


def reference_check_vertex_incident_sections(ctx, n):
    q = ctx.q
    cone = make_standard_cone(ctx, n)
    nontangent_base = count_points_formula(n - 2, "nondegenerate", q)
    tangent_base = 1 + q * q * count_points_formula(n - 3, "nondegenerate", q) if n >= 3 else 1
    allowed = {
        (1 + q * q * nontangent_base, n - 1),
        (1 + q * q * tangent_base, n - 2),
    }
    tally: dict[tuple[int, int], int] = {}
    ok = True
    for dual in enumerate_hyperplanes(ctx, n):
        if not reference_incidence(ctx, cone.vertex, dual):
            continue
        sec = reference_hyperplane_section(ctx, cone, dual)
        ok &= sec.kind == "vertex_incident"
        tally[(sec.point_count, sec.rank)] = tally.get((sec.point_count, sec.rank), 0) + 1
    ok &= set(tally) <= allowed
    n_tangent_type = sum(v for (c, r), v in tally.items() if r == n - 2)
    ok &= n_tangent_type == count_points_formula(n - 1, "nondegenerate", q)
    ok &= sum(tally.values()) == pi_count(n - 1, ctx.q2)
    return _result(
        "vertex_incident_sections",
        ok,
        f"cone in P^{n}, q={q}: (count, rank) tallies {tally} within {sorted(allowed)}",
    )


def reference_check_tangent_hyperplanes(ctx, n):
    variety = make_nondegenerate(ctx, n)
    q = ctx.q
    expected = 1 + q * q * count_points_formula(n - 2, "nondegenerate", q) if n >= 3 else 1
    ok = True
    for a in variety.points:
        dual = reference_tangent_hyperplane(ctx, variety, a)
        on = reference_incidence_values(ctx, variety.points, dual) == 0
        ok &= reference_incidence(ctx, a, dual)
        if n == 2:
            ok &= int(on.sum()) == 1
        else:
            ok &= int(on.sum()) == expected
    pts = variety.points
    for i in range(min(len(pts), 8)):
        for j in range(min(len(pts), 8)):
            di = reference_tangent_hyperplane(ctx, variety, pts[i])
            dj = reference_tangent_hyperplane(ctx, variety, pts[j])
            ok &= reference_incidence(ctx, pts[j], di) == reference_incidence(ctx, pts[i], dj)
    return _result(
        "tangent_hyperplanes",
        ok,
        f"U_{n}, q={q}: polar sections sized {expected if n >= 3 else 1} at every point, "
        "polar incidence symmetric",
    )


def reference_check_cone_sections(ctx, n):
    """The two cone-section references, in the order ``check_cone_sections``
    returns its checks."""
    return (
        reference_check_vertex_avoiding_sections(ctx, n),
        reference_check_vertex_incident_sections(ctx, n),
    )


# verify's check name -> its reference, for monkeypatching the suites
REFERENCE_CHECKS = {
    "check_incidence_duality": reference_check_incidence_duality,
    "check_line_basics": reference_check_line_basics,
    "check_congruence_reduction": reference_check_congruence_reduction,
    "check_line_trichotomy": reference_check_line_trichotomy,
    "check_section_dichotomy": reference_check_section_dichotomy,
    "check_cone_sections": reference_check_cone_sections,
    "check_tangent_hyperplanes": reference_check_tangent_hyperplanes,
}
