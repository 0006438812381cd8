"""Named verification checks over the package's closed-form claims.

Every check is a pure function returning a :class:`CheckResult`; suites
group them for the command-line ``verify`` runner, and the test suite
asserts them directly.  Checks are exhaustive wherever the configuration
is desk-scale (the default q = 2, 3 cells) and say so in their detail
strings.  Sampled checks draw from ``random.Random(seed)``, the standard
library generator that importing numpy already loads, and no detail string
names what was drawn.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from . import bounds as bnd
from . import codes as cds
from .field import FieldCtx, code_dtype
from .forms import (
    HomogeneousForm,
    form_values,
    monomial_basis,
    monomial_values,
    multiply_linear,
    product_of_hyperplanes,
)
from .hermitian import (
    HermitianVariety,
    canonical_congruence,
    congruence_transform,
    count_points_formula,
    hermitian_form_values,
    hyperplane_sections,
    make_nondegenerate,
    make_standard_cone,
    tangent_hyperplanes,
)
from .limits import POINT_BUDGET, BudgetExceededError
from .linalg import batch_rank, mat_mul
from .projspace import (
    CHUNK_ELEMS,
    all_lines,
    check_point_budget,
    enumerate_hyperplanes,
    enumerate_points,
    hyperplane_point_counts,
    incidence_matrix,
    line_through,
    pi_count,
    point_index,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "random_hermitian"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def random_hermitian(ctx: FieldCtx, n: int, rng: random.Random) -> np.ndarray:
    """Random nonzero Hermitian matrix: diagonal from the base field,
    off-diagonal free with the conjugate mirrored."""
    dim = n + 1
    while True:
        h = np.zeros((dim, dim), dtype=np.int64)
        for i in range(dim):
            h[i, i] = ctx.base_embed[rng.randrange(ctx.q)]
            for j in range(i + 1, dim):
                c = rng.randrange(ctx.q2)
                h[i, j] = c
                h[j, i] = ctx.frob(c)
        if h.any():
            return h


def iter_all_lines(ctx: FieldCtx, n: int) -> Iterator[np.ndarray]:
    """Every line of P^n(GF(q^2)) exactly once, in blocks of consecutive
    rows of :func:`all_lines` (point indices into ``enumerate_points``),
    each block holding at most about CHUNK_ELEMS indices."""
    lines = all_lines(ctx, n)
    step = max(1, CHUNK_ELEMS // lines.shape[1])
    for lo in range(0, len(lines), step):
        yield lines[lo : lo + step]


# ---------------------------------------------------------------------------
# Field checks
# ---------------------------------------------------------------------------


def _generators(table: np.ndarray) -> list[int]:
    """Codes that generate the magma (codes, table), chosen in ascending
    order: a code becomes a generator when it is not in the closure of the
    generators before it.  The closure grows by the products of its newest
    members with all members, both ways round, until no product is new, so
    it is the true closure for any table of codes, commutative or not; a
    table where nothing generates anything else makes every code a
    generator.  Each round reads its products in blocks of at most about
    CHUNK_ELEMS entries (or one newest member's)."""
    inside = np.zeros(len(table), dtype=bool)
    gens = []
    for k in range(len(table)):
        if inside[k]:
            continue
        gens.append(k)
        inside[k] = True
        new = np.array([k])
        while new.size:
            have = np.flatnonzero(inside)
            grown = inside.copy()
            step = max(1, CHUNK_ELEMS // len(have))
            for lo in range(0, len(new), step):
                part = new[lo : lo + step]
                grown[table[np.ix_(part, have)]] = True
                grown[table[np.ix_(have, part)]] = True
            new = np.flatnonzero(grown & ~inside)
            inside = grown
    return gens


def _row_blocks(q2: int) -> Iterator[slice]:
    """Consecutive row blocks of a q2 x q2 table, each of at most
    CHUNK_ELEMS entries (or one row), so that no pass over all pairs of
    codes holds a full-size int64 or index temporary."""
    step = max(1, CHUNK_ELEMS // q2)
    for lo in range(0, q2, step):
        yield slice(lo, lo + step)


def _code_table(q2: int, op) -> tuple[bool, np.ndarray]:
    """Whether op maps every pair of codes to a code, and its q2 x q2 table
    in the code dtype, read a row block at a time."""
    codes = np.arange(q2)
    table = np.empty((q2, q2), dtype=code_dtype(q2))
    closed = True
    for rows in _row_blocks(q2):
        block = op(codes[rows, None], codes[None, :])
        closed &= bool(block.min() >= 0 and block.max() < q2)
        table[rows] = block
    return closed, table


# The law helpers take square tables whose every entry is a code (a row
# index), so their gathers use mode="wrap", which never wraps here and lets
# take write straight into the buffers made once per call.  Both sides of a
# law are compared one row block of :func:`_row_blocks` at a time, so the
# tables are the only full-size arrays.


def _block_buffers(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two buffers shaped like the table's first, and largest, row block."""
    first = table[next(_row_blocks(len(table)))]
    return np.empty_like(first), np.empty_like(first)


def _symmetric(table: np.ndarray) -> bool:
    """x*y = y*x for all codes x, y."""
    return all(np.array_equal(table[rows], table[:, rows].T) for rows in _row_blocks(len(table)))


def _associative(table: np.ndarray, gens: list[int]) -> bool:
    """(x*s)*y = x*(s*y) for all codes x, y and every s in gens."""
    left, right = _block_buffers(table)
    for s in gens:
        for rows in _row_blocks(len(table)):
            block = table[rows]
            lhs, rhs = left[: len(block)], right[: len(block)]
            table.take(block[:, s], 0, out=lhs, mode="wrap")
            block.take(table[s], 1, out=rhs, mode="wrap")
            if not np.array_equal(lhs, rhs):
                return False
    return True


def _distributive(mul: np.ndarray, add: np.ndarray, gens: list[int]) -> bool:
    """a*(b+c) = a*b + a*c for all codes a, b and every c in gens."""
    q2 = len(add)
    flat = add.ravel()
    left, right = _block_buffers(mul)
    for c in gens:
        sums = add[:, c]  # b + c for every b
        for rows in _row_blocks(q2):
            block = mul[rows]
            lhs, rhs = left[: len(block)], right[: len(block)]
            block.take(sums, 1, out=lhs, mode="wrap")
            index = np.multiply(block, q2, dtype=np.intp)
            index += block[:, c, None]  # a*b + a*c is flat[(a*b) * q2 + a*c]
            flat.take(index, out=rhs, mode="wrap")
            if not np.array_equal(lhs, rhs):
                return False
    return True


def check_field_axioms(ctx: FieldCtx) -> CheckResult:
    """Field laws over all of GF(q^2)^3, with the exhaustive check's verdict
    for every pair of tables.  The product and sum of every pair are read
    once through vmul/vadd into dense tables mul/add of codes.  Closure (every
    entry a code), commutativity and the identity, negation and inverse laws
    are one comparison each over the tables (commutativity a row block at a
    time).  The three-variable laws run over generators only (Light's
    associativity test; Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1.2):

    - Associativity.  Let S be the set of s with (x*s)*y = x*(s*y) for all
      x, y.  S is closed under *: for s, t in S and any x, y,
        (x*(s*t))*y = ((x*s)*t)*y      (s in S)
                    = (x*s)*(t*y)      (t in S)
                    = x*(s*(t*y))      (s in S)
                    = x*((s*t)*y)      (t in S).
      So S holds the closure of any generators it holds, and the law holds
      on all triples exactly when it holds with a generator in the middle.
    - Distributivity, run only once + is associative.  For fixed a let D be
      the set of c with a*(b+c) = a*b + a*c for all b.  For c, c' in D,
        a*(b+(c+c')) = a*((b+c)+c') = a*(b+c) + a*c'
                     = (a*b + a*c) + a*c' = a*b + (a*c + a*c'),
      and a*c + a*c' = a*(c+c') (c' in D, b = c); so D is closed under +
      and the law holds for all c once it holds for additive generators.

    The generators come from :func:`_generators`, which is exact for any
    table, so a corrupted or degenerate table gets the same verdict as the
    triple scan.  The cost is q2^2 * (|G_mul| + 2|G_add|) comparisons, not
    about 5 * q2^3; GF(289) has 7 product and 3 sum generators."""
    q2 = ctx.q2
    codes = np.arange(q2)
    mul_closed, mul = _code_table(q2, ctx.vmul)
    add_closed, add = _code_table(q2, ctx.vadd)
    nonzero = codes[1:]
    ok = (
        mul_closed
        and add_closed
        and _symmetric(mul)
        and _symmetric(add)
        and np.array_equal(mul[1], codes)
        and np.array_equal(add[0], codes)
        and not add[codes, ctx.vneg(codes)].any()
        and bool((mul[nonzero, ctx.vinv(nonzero)] == 1).all())
        and _associative(mul, _generators(mul))
    )
    if ok:
        add_gens = _generators(add)
        ok = _associative(add, add_gens) and _distributive(mul, add, add_gens)
    return _result("field_axioms", ok, f"exhaustive over GF({q2})^3")


def check_norm_trace_maps(ctx: FieldCtx) -> CheckResult:
    q, q2 = ctx.q, ctx.q2
    codes = np.arange(q2, dtype=np.int64)
    norm = ctx.vnorm(codes)
    trace = ctx.vtrace(codes)
    multiplicative = additive = True
    for rows in _row_blocks(q2):
        a, b = codes[rows, None], codes[None, :]
        multiplicative &= np.array_equal(
            ctx.vnorm(ctx.vmul(a, b)), ctx.vmul(norm[rows, None], norm[None, :])
        )
        additive &= np.array_equal(
            ctx.vtrace(ctx.vadd(a, b)), ctx.vadd(trace[rows, None], trace[None, :])
        )
    frob = ctx.vfrob(codes)
    fixed = tuple(int(c) for c in codes[frob == codes]) == ctx.base_embed
    involution = bool((ctx.vfrob(frob) == codes).all())
    values, counts = np.unique(norm[1:], return_counts=True)
    norm_ok = set(values.tolist()) == set(ctx.base_embed) - {0} and bool((counts == q + 1).all())
    values, counts = np.unique(trace, return_counts=True)
    trace_ok = set(values.tolist()) == set(ctx.base_embed) and bool((counts == q).all())
    ok = multiplicative and fixed and involution and norm_ok and trace_ok and additive
    return _result(
        "norm_trace_maps",
        ok,
        f"norm fibers {q + 1} onto GF({q})*, trace fibers {q} onto GF({q}), "
        "conjugation involutive with fixed field GF(q)",
    )


def check_preimage_solvers(ctx: FieldCtx) -> CheckResult:
    ok = True
    for b in ctx.base_embed:
        if b:
            lam = ctx.norm_preimage(b)
            sols = [a for a in range(1, ctx.q2) if ctx.norm(a) == b]
            ok &= ctx.norm(lam) == b and lam == min(sols) and len(sols) == ctx.q + 1
        lam = ctx.trace_preimage(b)
        sols = [a for a in range(ctx.q2) if ctx.trace(a) == b]
        ok &= ctx.trace(lam) == b and lam == min(sols) and len(sols) == ctx.q
    return _result("preimage_solvers", ok, "smallest-code solutions, exhaustive fibers")


# ---------------------------------------------------------------------------
# Projective space checks
# ---------------------------------------------------------------------------


def check_point_enumeration(ctx: FieldCtx, n: int) -> CheckResult:
    """From the definition: every row is a normalized vector of codes and
    row i has the closed-form canonical position i, for i < pi_n -- so the
    rows are exactly the points of P^n, in canonical order.  The recursion
    that builds the rows and the closed form are two routes to the order."""
    pts = enumerate_points(ctx, n)
    in_range = bool(((pts >= 0) & (pts < ctx.q2)).all())
    nonzero = pts != 0
    last = n - np.argmax(nonzero[:, ::-1], axis=1)
    lead = pts[np.arange(len(pts)), last]
    normalized = bool(nonzero.any(axis=1).all() and (lead == 1).all())
    in_place = np.array_equal(point_index(ctx, pts), np.arange(pi_count(n, ctx.q2)))
    ok = in_range and normalized and in_place
    return _result(
        "point_enumeration",
        ok,
        f"|P^{n}(GF({ctx.q2}))| = {len(pts)} = pi_{n}, order reproducible",
    )


def check_incidence_duality(ctx: FieldCtx, n: int) -> CheckResult:
    pts = enumerate_points(ctx, n)
    hyps = enumerate_hyperplanes(ctx, n)
    per_hyp = hyperplane_point_counts(ctx, pts, hyps)
    on = incidence_matrix(ctx, pts[:2], hyps)
    expected = pi_count(n - 1, ctx.q2)
    ok = bool((per_hyp == expected).all())
    total = int(per_hyp.sum())
    ok &= total == len(pts) * expected  # double count <=> points see pi_{n-1} hyperplanes
    missing = int((~on[0]).sum())  # hyperplanes missing the fixed point pts[0]
    ok &= missing == ctx.q2**n
    both = int((on[0] & on[1]).sum())  # through pts[0] and pts[1]
    ok &= both == pi_count(n - 2, ctx.q2)
    ok &= expected - pi_count(n - 2, ctx.q2) == ctx.q2 ** (n - 1)
    return _result(
        "incidence_duality",
        ok,
        f"each hyperplane holds pi_{n - 1} points; {ctx.q2**n} hyperplanes miss a fixed "
        f"point; pi_{n - 2} pass through two fixed points",
    )


def check_line_basics(ctx: FieldCtx, n: int, seed: int = 0) -> CheckResult:
    """20 sampled pairs of distinct points: the line through each pair has
    q^2 + 1 distinct points in canonical order, is the same line from
    either end, and lies on every hyperplane through the pair.  The pairs
    are checked as stacks; a block's incidence product holds about four
    arrays of its size, each within a quarter of CHUNK_ELEMS entries (or
    one pair's)."""
    rng = random.Random(seed)
    pts = enumerate_points(ctx, n)
    hyps = enumerate_hyperplanes(ctx, n)
    pairs = pts[np.array([rng.sample(range(len(pts)), 2) for _ in range(20)])]
    ok = True
    step = max(1, CHUNK_ELEMS // 4 // ((ctx.q2 + 3) * len(hyps)))
    for lo in range(0, len(pairs), step):
        a, b = pairs[lo : lo + step, 0], pairs[lo : lo + step, 1]
        k = len(a)
        lines = line_through(ctx, np.concatenate([a, b]), np.concatenate([b, a]))
        lines, backward = lines[:k], lines[k:]
        ok &= lines.shape[1] == ctx.q2 + 1 and np.array_equal(lines, backward)
        ok &= bool((np.diff(point_index(ctx, lines), axis=1) > 0).all())
        on = incidence_matrix(ctx, np.concatenate([a, b, lines.reshape(-1, n + 1)]), hyps)
        through = on[:k] & on[k : 2 * k]
        ok &= bool((on[2 * k :].reshape(k, -1, len(hyps)) | ~through[:, None]).all())
    return _result("line_basics", ok, "q^2+1 points, symmetric, hyperplane-collinear")


# ---------------------------------------------------------------------------
# Hermitian geometry checks
# ---------------------------------------------------------------------------


def check_point_count_formulas(ctx: FieldCtx, n_max: int) -> CheckResult:
    """The closed-form point counts, and the standard cone's points, built
    from the lines over its base, byte-equal to the zeros of the same
    matrix on P^n: that fibre construction has 1 + q^2 |U| points by
    construction, so only the P^n route checks the cone's count."""
    q = ctx.q
    details = []
    ok = True
    for n in range(1, n_max + 1):
        nondeg = make_nondegenerate(ctx, n)
        expected = count_points_formula(n, "nondegenerate", q)
        ok &= len(nondeg.points) == expected
        cone = make_standard_cone(ctx, n)
        space_route = HermitianVariety(ctx, cone.matrix).points
        expected_cone = count_points_formula(n, "rank_n_cone", q)
        ok &= len(space_route) == expected_cone
        ok &= (cone.points.dtype, cone.points.shape) == (space_route.dtype, space_route.shape)
        ok &= cone.points.tobytes() == space_route.tobytes()
        details.append(f"n={n}: |U|={expected}, |cone|={expected_cone}")
    return _result("point_count_formulas", ok, "; ".join(details))


def check_congruence_reduction(ctx: FieldCtx, n: int, trials: int, seed: int = 1) -> CheckResult:
    """Random Hermitian matrices H reduce to diag(1..1, 0..0) under their
    canonical congruence S, with S invertible and the rank of H kept; for
    n <= 3 also H and the diagonal form have as many zeros on P^n.  The
    trials are drawn first, reduced in one stacked call and checked as one
    stack, the point counts in blocks of at most about CHUNK_ELEMS form
    values (or one matrix's)."""
    rng = random.Random(seed)
    dim = n + 1
    hs = np.array([random_hermitian(ctx, n, rng) for _ in range(trials)]).reshape(-1, dim, dim)
    s, ranks = canonical_congruence(ctx, hs)
    diag = congruence_transform(ctx, hs, s)
    expected = np.zeros_like(diag)
    expected[:, np.arange(dim), np.arange(dim)] = np.arange(dim)[None, :] < ranks[:, None]
    ok = bool((batch_rank(ctx, s) == dim).all())
    ok &= np.array_equal(diag, expected)
    ok &= np.array_equal(ranks, batch_rank(ctx, hs))
    if n <= 3:
        space = enumerate_points(ctx, n)
        step = max(1, CHUNK_ELEMS // len(space))
        for lo in range(0, len(hs), step):
            before = (hermitian_form_values(ctx, hs[lo : lo + step], space) == 0).sum(axis=1)
            after = (hermitian_form_values(ctx, diag[lo : lo + step], space) == 0).sum(axis=1)
            ok &= np.array_equal(before, after)
    return _result(
        "congruence_reduction",
        ok,
        f"{trials} random Hermitian matrices reduce to diag(1..1,0..0) with rank and "
        "point count preserved",
    )


def check_line_trichotomy(ctx: FieldCtx, n: int) -> CheckResult:
    q = ctx.q
    variety = make_nondegenerate(ctx, n)
    allowed = {1, q + 1} if n == 2 else {1, q + 1, q * q + 1}
    zero = hermitian_form_values(ctx, variety.matrix, enumerate_points(ctx, n)) == 0
    # first-appearance order of the counts, as the detail prints them
    counts: Counter = Counter()
    for block in iter_all_lines(ctx, n):
        counts.update(zero[block].sum(axis=1).tolist())
    tally = dict(counts)
    ok = set(tally) <= allowed
    return _result(
        "line_trichotomy",
        ok,
        f"U_{n}, q={q}: intersection tallies {tally} within {sorted(allowed)}",
    )


def check_section_dichotomy(ctx: FieldCtx, n: int) -> CheckResult:
    q = ctx.q
    variety = make_nondegenerate(ctx, n)
    tangent_count = 1 + q * q * count_points_formula(n - 2, "nondegenerate", q) if n >= 2 else None
    nontangent_count = count_points_formula(n - 1, "nondegenerate", q)
    hyps = enumerate_hyperplanes(ctx, n)
    polar = np.zeros(len(hyps), dtype=bool)
    polar[point_index(ctx, tangent_hyperplanes(ctx, variety, variety.points))] = True
    ranks, counts, kinds = hyperplane_sections(ctx, variety, hyps)
    tangent = kinds == "tangent"
    n_tangent = int(tangent.sum())
    ok = bool((ranks[tangent] == n - 1).all() and (counts[tangent] == tangent_count).all())
    ok &= np.array_equal(polar, tangent)
    ok &= bool((ranks[~tangent] == n).all() and (counts[~tangent] == nontangent_count).all())
    ok &= n_tangent == len(variety.points)
    return _result(
        "hyperplane_section_dichotomy",
        ok,
        f"U_{n}, q={q}: {n_tangent} tangent sections (rank {n - 1}, {tangent_count} points), "
        f"others rank {n} with {nontangent_count} points; tangent set equals the polar duals",
    )


def check_cone_sections(ctx: FieldCtx, n: int) -> tuple[CheckResult, CheckResult]:
    """One classification of every hyperplane section of the rank-n cone,
    two checks.  Vertex-avoiding sections are nondegenerate varieties one
    dimension down.  Through-vertex sections are cones over the base
    variety's hyperplane sections: allowed (count, restricted-rank) pairs
    follow the tangent / non-tangent dichotomy one dimension down."""
    q = ctx.q
    cone = make_standard_cone(ctx, n)
    hyps = enumerate_hyperplanes(ctx, n)
    ranks, counts, kinds = hyperplane_sections(ctx, cone, hyps)
    through = incidence_matrix(ctx, [cone.vertex], hyps)[0]

    expected = count_points_formula(n - 1, "nondegenerate", q)
    away = ~through
    ok = bool((kinds[away] == "vertex_avoiding").all() and (counts[away] == expected).all())
    if n >= 2:
        ok &= bool((ranks[away] == n).all())
    checked = int(away.sum())
    ok &= checked == ctx.q2**n
    avoiding = _result(
        "vertex_avoiding_sections",
        ok,
        f"cone in P^{n}, q={q}: all {checked} vertex-avoiding sections have {expected} points",
    )

    # cone over the base's non-tangent section vs cone over its tangent section
    nontangent_base = count_points_formula(n - 2, "nondegenerate", q)
    tangent_base = 1 + q * q * count_points_formula(n - 3, "nondegenerate", q) if n >= 3 else 1
    allowed = {
        (1 + q * q * nontangent_base, n - 1),
        (1 + q * q * tangent_base, n - 2),
    }
    ok = bool((kinds[through] == "vertex_incident").all())
    # first-appearance order of the pairs, as the detail prints them
    tally = dict(Counter(zip(counts[through].tolist(), ranks[through].tolist())))
    ok &= set(tally) <= allowed
    # tangent-type sections match the base variety's point count, the rest
    # fill up the pi_(n-1) hyperplanes through the vertex
    n_tangent_type = sum(v for (c, r), v in tally.items() if r == n - 2)
    ok &= n_tangent_type == count_points_formula(n - 1, "nondegenerate", q)
    ok &= sum(tally.values()) == pi_count(n - 1, ctx.q2)
    incident = _result(
        "vertex_incident_sections",
        ok,
        f"cone in P^{n}, q={q}: (count, rank) tallies {tally} within {sorted(allowed)}",
    )
    return avoiding, incident


def check_tangent_hyperplanes(ctx: FieldCtx, n: int) -> CheckResult:
    variety = make_nondegenerate(ctx, n)
    q = ctx.q
    expected = 1 + q * q * count_points_formula(n - 2, "nondegenerate", q) if n >= 3 else 1
    pts = variety.points
    duals = tangent_hyperplanes(ctx, variety, pts)
    # every point lies on its own polar hyperplane (the dot products u_j . a_j)
    ok = not mat_mul(ctx, pts[:, None, :], duals[:, :, None]).any()
    # a tangent line (n = 2) touches only at the point
    ok &= bool((hyperplane_point_counts(ctx, pts, duals) == (1 if n == 2 else expected)).all())
    # polar symmetry on a sample of pairs: point i on the polar of point j
    sample = incidence_matrix(ctx, pts[:8], duals[:8])
    ok &= bool((sample == sample.T).all())
    return _result(
        "tangent_hyperplanes",
        ok,
        f"U_{n}, q={q}: polar sections sized {expected if n >= 3 else 1} at every point, "
        "polar incidence symmetric",
    )


# ---------------------------------------------------------------------------
# Bounds and extremal checks
# ---------------------------------------------------------------------------


def check_cone_oracle(ctx: FieldCtx, n: int, d: int) -> tuple[CheckResult, CheckResult]:
    """One oracle scan of the rank-n cone, two checks: the maximum equals
    the cone bound, and every maximizer is a union of generator lines of
    the expected cardinality, and (for n = 3) a cone with vertex at the
    singular point."""
    if n not in (2, 3, 4):
        raise ValueError(f"maximizer structure is known for n in 2..4 only, got n = {n}")
    q = ctx.q
    cone = bnd.oracle_target(ctx, "cone", n)
    expected = bnd.oracle_bound("cone", n, d, q).value  # refuses d > q before the scan
    result = bnd.bruteforce_max_intersection(ctx, cone, n, d)
    bound = _result(
        f"oracle_cone_n{n}_d{d}",
        result.max_count == expected,
        f"max |cone ^ V(F)| = {result.max_count} over {result.total_forms} forms, "
        f"bound {expected}, {result.n_maximizers} maximizers",
    )
    expected_lines = {2: d, 3: d * (q + 1), 4: bnd.sorensen_max(d, q) if d == 1 else None}[n]
    found = bnd.characterize_maximizers(ctx, cone, result)
    ok = result.n_maximizers == len(result.maximizers)  # cap not hit at desk scale
    ok &= found["union_of_generator_lines"] and found["generator_lines"] == [expected_lines]
    ok &= n != 3 or found["cone_with_vertex"]
    structure = _result(
        f"maximizer_structure_n{n}_d{d}",
        ok,
        f"{result.n_maximizers} maximizers are unions of exactly {expected_lines} "
        "generator lines" + (" and cones with vertex P" if n == 3 else ""),
    )
    return bound, structure


def check_oracle_nondegenerate(ctx: FieldCtx, n: int, d: int) -> CheckResult:
    variety = bnd.oracle_target(ctx, "nondegenerate", n)
    expected = bnd.oracle_bound("nondegenerate", n, d, ctx.q).value  # refuses d > q first
    result = bnd.bruteforce_max_intersection(ctx, variety, n, d)
    ok = result.max_count == expected
    return _result(
        f"oracle_nondegenerate_n{n}_d{d}",
        ok,
        f"max |U_{n} ^ V(F)| = {result.max_count}, known maximum {expected}, "
        f"{result.n_maximizers} maximizers",
    )


def check_serre_equality(ctx: FieldCtx, n: int, d: int) -> CheckResult:
    """d hyperplanes through a common codimension-2 flat attain the plane
    bound exactly; for n = 2 the oracle confirms it is the global maximum."""
    space = bnd.oracle_target(ctx, "space", n)
    # hyperplanes x_0 = c*x_1 for distinct c, all containing x_0 = x_1 = 0
    form = product_of_hyperplanes(ctx, [[1, ctx.neg(c)] + [0] * (n - 1) for c in range(d)])
    count = int((form_values(ctx, form, space) == 0).sum())
    expected = bnd.oracle_bound("space", n, d, ctx.q).value
    ok = count == expected
    detail = f"union of {d} concurrent hyperplanes in P^{n} has {count} = {expected} points"
    if n == 2:
        result = bnd.bruteforce_max_intersection(ctx, space, n, d)
        ok &= result.max_count == expected
        detail += f"; oracle max over all forms = {result.max_count}"
    return _result(f"serre_equality_n{n}_d{d}", ok, detail)


def check_bound_identities(q: int) -> CheckResult:
    ok = True
    m4 = count_points_formula(4, "rank_n_cone", q)
    for d in range(1, q + 1):
        lhs = m4 - (1 + q * q * bnd.sorensen_max(d, q))
        rhs = cds.theoretical_parameters(4, d, q).dmin
        ok &= lhs == rhs
        ok &= bnd.conjectured_max_intersection(3, d, q).value == bnd.sorensen_max(d, q)
        ok &= bnd.cone_bound(3, d, q).value == 1 + q * q * d * (q + 1)
    prev = None
    for d in range(1, q + 1):
        val = bnd.cone_bound(4, d, q).value
        ok &= prev is None or val >= prev
        prev = val
    return _result(
        "bound_identities",
        ok,
        f"q={q}: cone count minus Sorensen branch equals the closed-form distance; "
        "conjectured n=3 value equals the proven one; cone bound nondecreasing in d",
    )


def check_hyperplane_margin(ctx: FieldCtx, n: int, d: int, seed: int = 2) -> CheckResult:
    """Forms containing a vertex-avoiding hyperplane meet the cone off that
    hyperplane in at most (d-1)(q+1)q^(2n-4) points (sampled cofactors)."""
    q = ctx.q
    rng = random.Random(seed)
    cone = make_standard_cone(ctx, n)
    margin = (d - 1) * (q + 1) * q ** (2 * n - 4)
    plane_dual = [0] * n + [1]  # x_n = 0 misses the vertex
    basis_cof = monomial_basis(n, d - 1) if d > 1 else None
    ok = True
    for _ in range(10):
        if d == 1:
            form = product_of_hyperplanes(ctx, [plane_dual])
        else:
            coeffs = tuple(rng.randrange(ctx.q2) for _ in range(len(basis_cof)))
            if not any(coeffs):
                continue
            cof = HomogeneousForm(basis=basis_cof, coeffs=coeffs)
            form = multiply_linear(ctx, cof, plane_dual)
        vals = form_values(ctx, form, cone.points)
        off_plane = ~incidence_matrix(ctx, cone.points, [plane_dual])[:, 0]
        ok &= int(((vals == 0) & off_plane).sum()) <= margin
    return _result(
        f"hyperplane_margin_n{n}_d{d}",
        ok,
        f"off-hyperplane intersection stays within {margin}",
    )


def check_missing_vertex_margin(ctx: FieldCtx, n: int, d: int) -> CheckResult:
    """Exhaustive over all degree-d forms not vanishing at the vertex:
    intersection with the cone is at most d * |base variety|."""
    cone = make_standard_cone(ctx, n)
    basis = monomial_basis(n, d)
    # the value at the vertex [0:...:0:1] is the coefficient of x_n^d, the
    # last graded-lex monomial; with the rows reversed it leads, so the forms
    # off the vertex, up to scalar, are segment 0 (x_n^d with coefficient 1)
    assert basis.exponents[-1] == tuple([0] * n + [d])
    values = monomial_values(ctx, basis, cone.points)[::-1]
    hist, _ = bnd.zero_count_summary(ctx, values, 0, ctx.q2 ** (len(basis) - 1), cap=0)
    worst = int(np.flatnonzero(hist)[-1])
    limit = d * count_points_formula(n - 1, "nondegenerate", ctx.q)
    ok = worst <= limit
    return _result(
        f"missing_vertex_margin_n{n}_d{d}",
        ok,
        f"max intersection over forms off the vertex = {worst} <= {limit}",
    )


def check_tangent_section_structure(ctx: FieldCtx, d: int, samples: int, seed: int) -> CheckResult:
    """Degree-d forms through the vertex attaining the cone bound restrict,
    on vertex-avoiding hyperplanes, to the extremal tangent-plane
    configuration of the base surface (exhaustive maximizer set for q = 2,
    d = 1; witness at sampled hyperplanes otherwise)."""
    q = ctx.q
    cone = make_standard_cone(ctx, 4)
    base_max = bnd.sorensen_max(d, q)
    hyps = enumerate_hyperplanes(ctx, 4)
    avoiding = hyps[~incidence_matrix(ctx, [cone.vertex], hyps)[0]]
    if samples and samples < len(avoiding):
        avoiding = avoiding[random.Random(seed).sample(range(len(avoiding)), samples)]
    witness = None
    if q == 2 and d == 1:
        result = bnd.bruteforce_max_intersection(ctx, cone, 4, 1)
        basis, coeffs = monomial_basis(4, 1), np.array(result.maximizers, dtype=np.int64)
    else:
        witness = bnd.construct_extremal_form(ctx, cone, d)
        basis, coeffs = witness.form.basis, np.array([witness.form.coeffs], dtype=np.int64)
    # row j: the points on the j-th sampled vertex-avoiding hyperplane
    sigma_masks = incidence_matrix(ctx, cone.points, avoiding).T
    ok = True
    values = monomial_values(ctx, basis, cone.points)
    for _, block in bnd.value_blocks(ctx, coeffs, values):
        # entry (i, j): the zeros of form i on the j-th hyperplane
        ok &= bool(((block == 0).astype(np.int64) @ sigma_masks.T == base_max).all())
    # witness factor structure: each tangent-plane factor meets the section
    # in the tangent-section count and pairwise intersections are secant
    if witness is not None:
        tangent_count = 1 + q * q * (q + 1)
        factor_masks = incidence_matrix(ctx, cone.points, witness.factor_duals).T
        ok &= bool((factor_masks.astype(np.int64) @ sigma_masks.T == tangent_count).all())
        i, j = np.triu_indices(len(factor_masks), 1)
        pair_masks = factor_masks[i] & factor_masks[j]
        ok &= bool((pair_masks.astype(np.int64) @ sigma_masks.T == q + 1).all())
    return _result(
        f"tangent_section_structure_d{d}",
        ok,
        f"q={q}, d={d}: sections on {len(avoiding)} vertex-avoiding hyperplanes all "
        f"attain {base_max}",
    )


# ---------------------------------------------------------------------------
# Code checks
# ---------------------------------------------------------------------------


def check_injectivity(ctx: FieldCtx, n: int, d: int) -> CheckResult:
    cone = make_standard_cone(ctx, n)
    code = cds.build_code(ctx, cone, d)
    k = cds.code_dimension(ctx, code)
    expected = comb(n + d, d)
    return _result(
        f"injectivity_n{n}_d{d}",
        k == expected,
        f"generator rank {k} = C({n}+{d},{d}) = {expected} over {code.m} points",
    )


def check_exact_parameters(ctx: FieldCtx, n: int, d: int) -> CheckResult:
    cone = make_standard_cone(ctx, n)
    code = cds.build_code(ctx, cone, d)
    theory = cds.theoretical_parameters(n, d, ctx.q)
    params = cds.min_distance(ctx, code, "exhaustive_messages")
    ok = (params.m, params.k, params.dmin) == (theory.m, theory.k, theory.dmin)
    ok &= params.dmin <= params.m - params.k + 1  # Singleton sanity
    detail = f"[{params.m},{params.k},{params.dmin}] matches the closed form"
    return _result(f"exact_parameters_n{n}_d{d}", ok, detail)


def check_witness_weight(ctx: FieldCtx, n: int, d: int) -> CheckResult:
    cone = make_standard_cone(ctx, n)
    code = cds.build_code(ctx, cone, d)
    witness = bnd.construct_extremal_form(ctx, cone, d)
    theory = cds.theoretical_parameters(n, d, ctx.q)
    params = cds.min_distance(ctx, code, "witness_only", witnesses=[witness.form])
    ok = params.dmin == theory.dmin and params.dmin_status == cds.WITNESS_UPPER_BOUND_ONLY
    return _result(
        f"witness_weight_n{n}_d{d}",
        ok,
        f"witness weight {params.dmin} equals the closed-form distance "
        f"(status {params.dmin_status})",
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _field_suite(ctx: FieldCtx, n: int | None, d: int | None, seed: int) -> list[CheckResult]:
    # the axiom check reads all q^4 ordered pairs, the raw tuple count of P^1
    pairs = ctx.q2**2
    if pairs > POINT_BUDGET:
        raise BudgetExceededError(
            f"the field suite reads {pairs} ordered pairs of GF({ctx.q2}) > budget {POINT_BUDGET}"
        )
    return [
        check_field_axioms(ctx),
        check_norm_trace_maps(ctx),
        check_preimage_solvers(ctx),
    ]


def _projspace_suite(ctx: FieldCtx, n: int | None, d: int | None, seed: int) -> list[CheckResult]:
    n = 2 if n is None else n
    return [
        check_point_enumeration(ctx, n),
        check_incidence_duality(ctx, n),
        check_line_basics(ctx, n, seed=seed),
    ]


def _hermitian_suite(ctx: FieldCtx, n: int | None, d: int | None, seed: int) -> list[CheckResult]:
    n_max = n if n is not None else (4 if ctx.q <= 3 else 3)
    check_point_budget(ctx, n_max)  # the largest P^n first, before P^1 .. P^(n_max - 1)
    out = [
        check_point_count_formulas(ctx, n_max),
        check_congruence_reduction(ctx, 2, trials=25, seed=seed),
        check_congruence_reduction(ctx, 3, trials=10, seed=seed + 1),
    ]
    for nn in range(2, min(n_max, 3 if ctx.q >= 3 else 4) + 1):
        out.append(check_line_trichotomy(ctx, nn))
    for nn in range(2, min(n_max, 3) + 1):
        out.append(check_section_dichotomy(ctx, nn))
        out.append(check_tangent_hyperplanes(ctx, nn))
    for nn in range(2, n_max + 1):
        out.extend(check_cone_sections(ctx, nn))
    return out


def _bounds_suite(ctx: FieldCtx, n: int | None, d: int | None, seed: int) -> list[CheckResult]:
    out: list[CheckResult] = [check_bound_identities(ctx.q)]
    if n is not None and d is not None:
        out.extend(check_cone_oracle(ctx, n, d))
        if n == 3:
            out.append(check_oracle_nondegenerate(ctx, n, d))
        return out
    if ctx.q == 2:
        for nn, dd in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
            out.extend(check_cone_oracle(ctx, nn, dd))
        out.append(check_oracle_nondegenerate(ctx, 3, 1))
        out.append(check_oracle_nondegenerate(ctx, 3, 2))
        out.append(check_serre_equality(ctx, 2, 1))
        out.append(check_serre_equality(ctx, 2, 2))
        out.append(check_serre_equality(ctx, 3, 2))
        out.append(check_hyperplane_margin(ctx, 3, 2, seed=seed))
        out.append(check_missing_vertex_margin(ctx, 3, 1))
        out.append(check_missing_vertex_margin(ctx, 3, 2))
        out.append(check_tangent_section_structure(ctx, 1, samples=0, seed=seed))
    else:
        for dd in range(1, min(ctx.q, 2) + 1):
            out.extend(check_cone_oracle(ctx, 2, dd))
        out.append(check_tangent_section_structure(ctx, 1, samples=12, seed=seed))
        out.append(check_tangent_section_structure(ctx, 2, samples=12, seed=seed))
    return out


def _codes_suite(ctx: FieldCtx, n: int | None, d: int | None, seed: int) -> list[CheckResult]:
    q = ctx.q
    out: list[CheckResult] = []
    cells = [(nn, dd) for nn in (2, 3, 4) for dd in range(1, min(q, 2) + 1)]
    if q == 3:
        cells.append((2, 3))
    for nn, dd in cells:
        out.append(check_injectivity(ctx, nn, dd))
    exact_cells = {
        2: [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)],
        3: [(2, 1), (2, 2)],
    }.get(q, [(2, 1)])
    for nn, dd in exact_cells:
        out.append(check_exact_parameters(ctx, nn, dd))
    witness_cells = {2: [(4, 2)], 3: [(2, 3), (3, 1), (3, 2), (3, 3)]}.get(q, [])
    for nn, dd in witness_cells:
        out.append(check_witness_weight(ctx, nn, dd))
    return out


SUITES = {
    "field": _field_suite,
    "projspace": _projspace_suite,
    "hermitian": _hermitian_suite,
    "bounds": _bounds_suite,
    "codes": _codes_suite,
}


def run_suite(
    name: str, ctx: FieldCtx, n: int | None = None, d: int | None = None, seed: int = 0
) -> list[CheckResult]:
    if n is not None and n < 1:
        raise ValueError("n must be >= 1")
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(ctx, n, d, seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](ctx, n, d, seed)
