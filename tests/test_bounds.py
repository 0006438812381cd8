"""Bound calculators, extremal constructions, the exhaustive oracle, and the
structural checkers for maximizers.

``reference_oracle_bound`` and ``reference_characterize`` are the bound rule
and the per-maximizer loop the command line carried before ``bounds`` owned
them; ``oracle_bound`` and ``characterize_maximizers`` must agree with them.

``reference_line_walk`` and the two reference checkers below are direct
per-point loops, one scalar ``line_through`` and one tuple set per line.
They are slow, which is why they live here.  The package checkers take
whole stacks of forms.  ``bounds.value_blocks`` reads each form's values
off combination tables, and both checkers decide from
``bounds.fibre_root_counts``: each form's zero count on every line through
the vertex, read from a root table indexed by its values at d + 1 points of
the line, or from every point of the line when that table would not fit.
The walk decides whether a form passes; a form's line count, passing or
not, is the number of lines through the vertex that lie wholly in its zero
set, which the checker reads from the same pass.  The values are held to
``form_values``, which evaluates through power tables only.
"""

import dataclasses
import sys
from collections import Counter
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geometry_reference import reference_evaluate_hermitian_form, reference_tangent_hyperplane
from hermcodes import (
    BoundValue,
    BudgetExceededError,
    HermitianVariety,
    HomogeneousForm,
    bruteforce_max_intersection,
    check_union_of_cone_lines,
    cone_bound,
    conjectured_max_intersection,
    construct_extremal_form,
    is_cone_with_vertex,
    known_max_intersection,
    make_field,
    make_nondegenerate,
    make_standard_cone,
    merge_oracle_results,
    monomial_basis,
    plane_cone_bound,
    product_of_hyperplanes,
    serre_bound,
    sorensen_max,
)
from hermcodes import bounds, projspace
from hermcodes.bounds import (
    _concurrent_secant_duals,
    _tangent_plane_duals_through_secant,
    characterize_maximizers,
    oracle_bound,
    oracle_target,
)
from hermcodes.forms import form_values, monomial_values, projective_form_count, scan_zero_counts
from hermcodes.hermitian import congruence_transform, count_points_formula
from hermcodes.linalg import matrix_rank
from hermcodes.limits import POINT_BUDGET
from hermcodes.projspace import (
    enumerate_hyperplanes,
    enumerate_points,
    incidence_matrix,
    line_through,
    normalize_rows,
)
from hermcodes.verify import (
    check_hyperplane_margin,
    check_missing_vertex_margin,
    check_tangent_section_structure,
    run_suite,
)
from loop_reference import (
    reference_conjectured_max_intersection,
    reference_known_max_intersection,
    reference_missing_vertex_filter,
    reference_normalize_vector,
)


def test_serre_bound_values():
    assert serre_bound(2, 1, 4) == 5
    assert serre_bound(2, 2, 4) == 9
    assert serre_bound(4, 2, 4) == 2 * 64 + 21 == 149
    with pytest.raises(ValueError):
        serre_bound(2, 5, 4)


def test_sorensen_values():
    assert sorensen_max(1, 2) == 13
    assert sorensen_max(2, 2) == 23
    for q in (2, 3, 4):
        assert sorensen_max(q, q) == q**4 + q**3 - q**2 + q + 1
    with pytest.raises(ValueError):
        sorensen_max(3, 2)


def test_known_max_intersection():
    assert known_max_intersection(2, 3, 3).value == 12  # d(q+1) plane curves
    assert known_max_intersection(3, 2, 2).value == 23
    # quadric sections in P^4: 2|U_3| - |U_2|
    u3 = count_points_formula(3, "nondegenerate", 2)
    u2 = count_points_formula(2, "nondegenerate", 2)
    assert known_max_intersection(4, 2, 2).value == 2 * u3 - u2 == 81
    # odd-dimension linear sections: q^2|U_(n-2)| + 1
    assert known_max_intersection(5, 1, 2).value == 4 * u3 + 1
    assert known_max_intersection(4, 1, 2).value == u3
    # cubic sections are proven only for q >= 7
    assert known_max_intersection(4, 3, 7).value is not None
    assert known_max_intersection(4, 3, 3).value is None
    assert known_max_intersection(5, 4, 5).value is None
    assert known_max_intersection(5, 4, 5).provenance == "unknown"


def test_conjectured_max_intersection():
    for q in (2, 3):
        for d in range(1, q + 1):
            assert conjectured_max_intersection(3, d, q).value == sorensen_max(d, q)
    # d = 1 conjecture agrees with the proven hyperplane-section values
    for n in (4, 5, 6):
        assert (
            conjectured_max_intersection(n, 1, 3).value
            == known_max_intersection(n, 1, 3).value
        )
    assert conjectured_max_intersection(4, 2, 2).provenance == "conjecture"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_section_maxima_match_per_degree_reference(q):
    # value, provenance and source, on every n = 2..8 and 1 <= d <= q
    for n in range(2, 9):
        for d in range(1, q + 1):
            assert known_max_intersection(n, d, q) == reference_known_max_intersection(n, d, q)
            if n >= 3:
                want = reference_conjectured_max_intersection(n, d, q)
                assert conjectured_max_intersection(n, d, q) == want


def test_cone_bound_values():
    for q in (2, 3):
        for d in range(1, q + 1):
            assert cone_bound(3, d, q).value == 1 + q * q * d * (q + 1)
            assert cone_bound(4, d, q).value == 1 + q * q * sorensen_max(d, q)
    assert cone_bound(4, 2, 2).value == 93
    assert count_points_formula(4, "rank_n_cone", 2) - 93 == 88
    unknown = cone_bound(5, 4, 5)
    assert unknown.value is None
    assumed = cone_bound(5, 4, 5, assume_conjecture=True)
    assert assumed.value is not None and assumed.provenance == "conjecture"
    with pytest.raises(ValueError):
        cone_bound(2, 1, 2)


def test_plane_cone_bound():
    assert plane_cone_bound(1, 2) == 5
    assert plane_cone_bound(2, 2) == 9
    assert plane_cone_bound(3, 3) == 28


@pytest.mark.parametrize(
    "p,n,d,expected",
    [
        (2, 2, 1, 5),
        (2, 2, 2, 9),
        (2, 3, 1, 13),
        (2, 3, 2, 25),
        (2, 4, 1, 53),
        (2, 4, 2, 93),
        (3, 2, 1, 10),
        (3, 2, 3, 28),
        (3, 3, 3, 109),
        (3, 4, 2, 1 + 9 * sorensen_max(2, 3)),
    ],
)
def test_construct_extremal(p, n, d, expected):
    ctx = make_field(p, 1)
    cone = make_standard_cone(ctx, n)
    witness = construct_extremal_form(ctx, cone, d)
    assert witness.predicted_count == expected
    # the witness count is validated at construction; cross-check anyway
    from hermcodes.forms import form_values, intersection_count

    assert intersection_count(ctx, witness.form, cone.points) == expected
    # the support is read from the same evaluation: the nonzero positions
    support = np.flatnonzero(form_values(ctx, witness.form, cone.points))
    assert np.array_equal(witness.support, support) and not witness.support.flags.writeable
    assert len(cone.points) - len(witness.support) == expected


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2)])
def test_construct_extremal_refuses_a_missed_count(monkeypatch, n, d):
    # the witness is evaluated once; a count off its prediction still raises
    ctx = make_field(3, 1)
    cone = make_standard_cone(ctx, n)
    real = bounds.oracle_bound

    def off_by_one(*args):
        bound = real(*args)
        return dataclasses.replace(bound, value=bound.value + 1)

    monkeypatch.setattr(bounds, "oracle_bound", off_by_one)
    with pytest.raises(RuntimeError, match="witness attains"):
        construct_extremal_form(ctx, cone, d)


def test_concurrent_secants_attain_bezout():
    # three concurrent secant lines meet the q = 3 plane curve in exactly
    # d(q+1) = 12 points, the plane-curve maximum
    ctx = make_field(3, 1)
    base = make_nondegenerate(ctx, 2)
    from hermcodes.forms import intersection_count

    duals = _concurrent_secant_duals(ctx, base, 3)
    form = product_of_hyperplanes(ctx, duals)
    assert intersection_count(ctx, form, base.points) == 12
    assert known_max_intersection(2, 3, 3).value == 12


def reference_concurrent_secant_duals(ctx, base, d):
    """The builder's former exterior-point search, one scalar form
    evaluation per point."""
    space = enumerate_points(ctx, base.n)
    exterior = next(
        tuple(int(c) for c in p)
        for p in space
        if reference_evaluate_hermitian_form(ctx, base.matrix, p) != 0
    )
    hyps = enumerate_hyperplanes(ctx, base.n)
    through = hyps[incidence_matrix(ctx, [exterior], hyps)[0]]
    secants = through[incidence_matrix(ctx, base.points, through).sum(axis=0) == ctx.q + 1]
    return [tuple(int(c) for c in dual) for dual in secants[:d]]


def reference_tangent_plane_duals(ctx, base, d):
    """The builder's former chord walk: the first secant (q + 1 points on
    the variety), found one scalar form evaluation per chord point, then one
    polar hyperplane per point at a time."""
    pts = base.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            chord = line_through(ctx, pts[i], pts[j])
            on_variety = [
                tuple(int(c) for c in x)
                for x in chord
                if reference_evaluate_hermitian_form(ctx, base.matrix, x) == 0
            ]
            if len(on_variety) == ctx.q + 1:
                return [reference_tangent_hyperplane(ctx, base, x) for x in on_variety[:d]]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_witness_duals_match_former_loops(p, e):
    ctx = make_field(p, e)
    curve, surface = make_nondegenerate(ctx, 2), make_nondegenerate(ctx, 3)
    for d in range(1, ctx.q + 1):
        want = reference_concurrent_secant_duals(ctx, curve, d)
        assert _concurrent_secant_duals(ctx, curve, d) == want
        want = reference_tangent_plane_duals(ctx, surface, d)
        assert _tangent_plane_duals_through_secant(ctx, surface, d) == want


def test_construct_extremal_rejects_bad_input(gf4):
    cone = make_standard_cone(gf4, 2)
    with pytest.raises(ValueError):
        construct_extremal_form(gf4, cone, 3)  # d > q
    with pytest.raises(ValueError):
        construct_extremal_form(gf4, make_nondegenerate(gf4, 2), 1)


def test_oracle_plane_cone(gf4):
    cone = make_standard_cone(gf4, 2)
    result = bruteforce_max_intersection(gf4, cone, 2, 1)
    assert result.max_count == 5
    assert result.n_maximizers == 3
    assert result.total_forms == 21
    basis = monomial_basis(2, 1)
    for coeffs in result.maximizers:
        ok, lines = check_union_of_cone_lines(gf4, cone, HomogeneousForm(basis, coeffs))
        assert ok and lines == 1


def test_oracle_budget_and_cap(gf4):
    cone = make_standard_cone(gf4, 2)
    with pytest.raises(BudgetExceededError):
        bruteforce_max_intersection(gf4, cone, 2, 2, budget=1000)
    capped = bruteforce_max_intersection(gf4, cone, 2, 1, cap=2)
    assert capped.n_maximizers == 3 and len(capped.maximizers) == 2


def test_oracle_refuses_a_form_space_past_int64_before_evaluating(gf4, monkeypatch):
    def unexpected(*args):
        raise AssertionError("monomial_values built for a refused scan")

    monkeypatch.setattr(bounds, "monomial_values", unexpected)
    point = np.ones((1, 8), dtype=np.int64)  # n = 7, d = 2: 36 coefficients, 1.6e21 classes
    for shard in ((68 * 10**17, 10**19), (0, 10**19)):
        with pytest.raises(BudgetExceededError, match="int64"):
            bruteforce_max_intersection(gf4, point, 7, 2, shard=shard)


def test_oracle_shard_merge(gf4):
    cone = make_standard_cone(gf4, 2)
    full = bruteforce_max_intersection(gf4, cone, 2, 2)
    parts = [bruteforce_max_intersection(gf4, cone, 2, 2, shard=(i, 4)) for i in range(4)]
    merged = merge_oracle_results(parts)
    assert merged == full
    # merging is associative and order-insensitive: any grouping agrees
    assert merge_oracle_results(list(reversed(parts))) == full
    left = merge_oracle_results(parts[:2])
    right = merge_oracle_results(parts[2:])
    assert merge_oracle_results([left, right]) == full
    with pytest.raises(ValueError):
        merge_oracle_results([parts[0], parts[2]])  # gap in coverage


def test_oracle_works_on_raw_points(gf4):
    space = enumerate_points(gf4, 2)
    result = bruteforce_max_intersection(gf4, space, 2, 2)
    assert result.max_count == serre_bound(2, 2, 4) == 9
    assert result.n_maximizers == 210  # unordered pairs of distinct lines


def test_union_checker(gf4):
    cone = make_standard_cone(gf4, 3)
    witness = construct_extremal_form(gf4, cone, 1)
    ok, lines = check_union_of_cone_lines(gf4, cone, witness.form)
    assert ok and lines == 3  # d(q+1) generator lines
    # a vertex-avoiding hyperplane section contains no full generator line
    basis = monomial_basis(3, 1)
    x3 = HomogeneousForm(basis, (0, 0, 0, 1))
    assert check_union_of_cone_lines(gf4, cone, x3) == (False, 0)


def test_union_checker_vertex_only(gf4):
    # a form whose only zero on the cone is the vertex: not a union of lines
    cone = make_standard_cone(gf4, 2)
    basis = monomial_basis(2, 2)
    coeffs = [0] * 6
    coeffs[basis.exponents.index((2, 0, 0))] = 1
    coeffs[basis.exponents.index((1, 1, 0))] = 2
    coeffs[basis.exponents.index((0, 2, 0))] = 3
    form = HomogeneousForm(basis, tuple(coeffs))
    from hermcodes.forms import form_values

    zeros = form_values(gf4, form, cone.points) == 0
    if int(zeros.sum()) == 1:  # depends on the chosen conic; assert the contract
        assert check_union_of_cone_lines(gf4, cone, form) == (False, 0)


def test_cone_checker(gf4):
    cone = make_standard_cone(gf4, 3)
    vertex = cone.vertex
    through = product_of_hyperplanes(gf4, [(1, 0, 0, 0), (0, 1, 2, 0)])
    assert is_cone_with_vertex(gf4, through, vertex)
    missing = product_of_hyperplanes(gf4, [(0, 0, 0, 1)])
    assert not is_cone_with_vertex(gf4, missing, vertex)


def test_sorensen_oracle_small(gf4):
    u3 = make_nondegenerate(gf4, 3)
    result = bruteforce_max_intersection(gf4, u3, 3, 1)
    assert result.max_count == sorensen_max(1, 2) == 13
    assert result.n_maximizers == 45  # one tangent plane per point


def test_margin_checks(gf4):
    assert check_hyperplane_margin(gf4, 3, 2).passed
    assert check_missing_vertex_margin(gf4, 3, 1).passed
    assert check_missing_vertex_margin(gf4, 3, 2).passed


@pytest.mark.parametrize("p,n,d", [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_missing_vertex_margin_matches_filtered_full_scan(p, n, d):
    # reference: scan every form and keep those whose x_n^d coefficient,
    # read from the index arithmetic alone, is nonzero
    ctx = make_field(p, 1)
    basis = monomial_basis(n, d)
    k = len(basis)
    values = monomial_values(ctx, basis, make_standard_cone(ctx, n).points)
    worst = -1
    for start, zeros in scan_zero_counts(ctx, values, 0, projective_form_count(ctx.q2, k)):
        off_vertex = reference_missing_vertex_filter(ctx.q2, k, start + np.arange(len(zeros)))
        if off_vertex.any():
            worst = max(worst, int(zeros[off_vertex].max()))
    detail = check_missing_vertex_margin(ctx, n, d).detail
    assert detail.startswith(f"max intersection over forms off the vertex = {worst} <= ")


def test_tangent_section_structure_q3():
    ctx = make_field(3, 1)
    assert check_tangent_section_structure(ctx, 1, samples=8, seed=0).passed
    assert check_tangent_section_structure(ctx, 2, samples=8, seed=0).passed


@pytest.mark.parametrize("d,corrupt", [(1, "moved"), (2, "moved"), (2, "repeated")])
def test_tangent_section_structure_reads_the_witness_factors(monkeypatch, d, corrupt):
    # the form is the true witness; only the factor duals the check reads
    # are wrong: one factor moved to the plane x_0 = 0, or the second factor
    # a repeat of the first (whose pair meets a section in 1 + q^2 (q + 1)
    # points, not q + 1)
    ctx = make_field(3, 1)
    construct = bounds.construct_extremal_form

    def corrupted(ctx, variety, d):
        witness = construct(ctx, variety, d)
        duals = list(witness.factor_duals)
        if corrupt == "moved":
            duals[0] = (1, 0, 0, 0, 0)
        else:
            duals[1] = duals[0]
        return dataclasses.replace(witness, factor_duals=tuple(duals))

    monkeypatch.setattr(bounds, "construct_extremal_form", corrupted)
    assert not check_tangent_section_structure(ctx, d, samples=8, seed=0).passed


@pytest.mark.parametrize("p,scans", [(2, 10), (3, 2)])
def test_bounds_suite_scans_each_cone_cell_once(p, scans, monkeypatch):
    seen = []
    real = bounds.bruteforce_max_intersection

    def spy(ctx, target, n, d, *args, **kwargs):
        seen.append((n, d))
        return real(ctx, target, n, d, *args, **kwargs)

    monkeypatch.setattr(bounds, "bruteforce_max_intersection", spy)
    checks = run_suite("bounds", make_field(p, 1))
    assert len(seen) == scans and all(c.passed for c in checks)
    # each cone cell's bound check is followed by its maximizer check
    names = [c.name for c in checks]
    cells = [name.removeprefix("oracle_cone_") for name in names if name.startswith("oracle_cone_")]
    assert cells and len(set(cells)) == len(cells)
    for cell in cells:
        assert names[names.index(f"oracle_cone_{cell}") + 1] == f"maximizer_structure_{cell}"
    assert sum(name.startswith("maximizer_structure_") for name in names) == len(cells)


# ---------------------------------------------------------------------------
# The vectorised line cover against the per-point loops
# ---------------------------------------------------------------------------


def reference_line_walk(ctx, zset, vertex):
    """Walk the zeros in canonical order and take the line through the
    vertex at each point no earlier line covers: whether every line taken
    lies inside the zero set, and how many of them do."""
    covered = {vertex}
    inside, n_lines = True, 0
    for x in sorted(zset):
        if x in covered:
            continue
        line = {tuple(int(c) for c in p) for p in line_through(ctx, vertex, x)}
        covered |= line
        if line <= zset:
            n_lines += 1
        else:
            inside = False
    return inside, n_lines


def _zero_set(ctx, form, points):
    return {tuple(int(c) for c in p) for p in points[form_values(ctx, form, points) == 0]}


def reference_check_union_of_cone_lines(ctx, variety, form):
    zset = _zero_set(ctx, form, variety.points)
    if not zset:
        return True, 0
    if variety.vertex not in zset or len(zset) == 1:
        return False, 0
    return reference_line_walk(ctx, zset, variety.vertex)


def reference_is_cone_with_vertex(ctx, form, vertex):
    space = enumerate_points(ctx, form.basis.n)
    return reference_line_walk(ctx, _zero_set(ctx, form, space), tuple(int(c) for c in vertex))[0]


CONE_FIELDS = [make_field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (11, 1))]
CONE_CELLS = [
    (ctx, n) for ctx in CONE_FIELDS for n in (2, 3, 4) if ctx.q2 ** (n + 1) <= POINT_BUDGET
]
# The GF(25) rank-4 cone (81,901 points) costs the reference loops seconds
# per form; it gets one fixed example instead of random draws.
LARGEST_CELL = (CONE_FIELDS[3], 4)
CONES = {}


def _cone(ctx, n):
    key = (ctx.q2, n)
    if key not in CONES:
        CONES[key] = make_standard_cone(ctx, n)
    return CONES[key]


def _random_dual(ctx, rng, n, through_vertex):
    """A nonzero dual vector; the standard vertex e_n lies on the hyperplane
    iff the last coordinate is 0."""
    dual = rng.integers(0, ctx.q2, size=n + 1)
    dual[n] = 0 if through_vertex else rng.integers(1, ctx.q2)
    if not dual.any():
        dual[rng.integers(0, n)] = 1
    return [int(c) for c in dual]


def _anisotropic_binary_quadric(ctx, n):
    """x0^2 + x0 x1 + b x1^2 with t^2 + t + b irreducible: its zeros are the
    points with x0 = x1 = 0."""
    t = np.arange(ctx.q2)
    for b in range(1, ctx.q2):
        if not (ctx.vadd(ctx.vadd(ctx.vmul(t, t), t), b) == 0).any():
            break
    basis = monomial_basis(n, 2)
    coeffs = [0] * len(basis)
    for exps, c in (((2, 0), 1), ((1, 1), 1), ((0, 2), b)):
        coeffs[basis.exponents.index(exps + (0,) * (n - 1))] = c
    return HomogeneousForm(basis, tuple(coeffs))


@st.composite
def cone_forms(draw):
    """A cone cell and a form on it: random, missing the vertex, a product of
    hyperplanes through the vertex, such a product with one hyperplane that
    misses it (the partial failures), or one whose zeros on the n = 2, 3
    cones are the vertex alone."""
    ctx, n = draw(st.sampled_from([c for c in CONE_CELLS if c != LARGEST_CELL]))
    kind = draw(st.sampled_from(["random", "misses_vertex", "through_vertex", "partial", "vertex_only"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2 if kind == "partial" else 1, min(ctx.q, 3)))
    if kind == "vertex_only":
        return ctx, n, _anisotropic_binary_quadric(ctx, n)
    if kind in ("through_vertex", "partial"):
        duals = [_random_dual(ctx, rng, n, through_vertex=True) for _ in range(d)]
        if kind == "partial":
            duals[-1] = _random_dual(ctx, rng, n, through_vertex=False)
            if draw(st.booleans()):
                # zeros with x0 = 0 sort first, so full lines precede the break
                duals[0] = [1] + [0] * n
        return ctx, n, product_of_hyperplanes(ctx, duals)
    basis = monomial_basis(n, d)
    coeffs = rng.integers(0, ctx.q2, size=len(basis))
    if kind == "misses_vertex":
        coeffs[basis.exponents.index((0,) * n + (d,))] = rng.integers(1, ctx.q2)
    if not coeffs.any():
        coeffs[0] = 1
    return ctx, n, HomogeneousForm(basis, tuple(int(c) for c in coeffs))


def _assert_checkers_match(ctx, n, form):
    cone = _cone(ctx, n)
    assert check_union_of_cone_lines(ctx, cone, form) == reference_check_union_of_cone_lines(
        ctx, cone, form
    )
    assert is_cone_with_vertex(ctx, form, cone.vertex) == reference_is_cone_with_vertex(
        ctx, form, cone.vertex
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cone_forms())
def test_checkers_match_reference_loops(case):
    _assert_checkers_match(*case)


def test_checkers_match_reference_loops_on_largest_cone():
    ctx, n = LARGEST_CELL
    assert len(_cone(ctx, n).points) == 81901
    rng = np.random.default_rng(5)
    for through_vertex in (True, False):
        form = product_of_hyperplanes(ctx, [_random_dual(ctx, rng, n, through_vertex)])
        _assert_checkers_match(ctx, n, form)


# Product forms that fail with whole lines, and the expected pair, which is
# ``reference_check_union_of_cone_lines``'s: the count is every whole line.
# The last two have whole lines after their first zero on a broken line, so
# a count that stopped at the break would miss some.
PARTIAL_FORMS = {
    # three whole lines (x_0 = 0), which sort first; x_3 = 0 breaks every other line
    "x0x3": (CONE_FIELDS[0], 3, False, [(1, 0, 0, 0), (0, 0, 0, 1)], (False, 3)),
    # a vertex off the last coordinate: four whole lines, three before the break
    "congruent GF(9)": (CONE_FIELDS[1], 3, True, [(6, 8, 3, 4), (8, 8, 2, 0)], (False, 4)),
    # q2^(d+2) > SCAN_TABLE_ELEMS, so every point is read: two whole lines, one before the break
    "direct GF(16)": (
        CONE_FIELDS[2], 2, False, [(14, 9, 0), (8, 8, 0), (11, 12, 0), (8, 6, 1)], (False, 2)
    ),
}


@pytest.mark.parametrize("name", list(PARTIAL_FORMS))
def test_partial_counts_match_reference_walk(name):
    ctx, n, congruent, duals, expected = PARTIAL_FORMS[name]
    cone = _congruent_cone(ctx, n) if congruent else _cone(ctx, n)
    form = product_of_hyperplanes(ctx, duals)
    assert check_union_of_cone_lines(ctx, cone, form) == expected
    assert reference_check_union_of_cone_lines(ctx, cone, form) == expected
    assert (ctx.q2 ** (form.basis.d + 2) > bounds.SCAN_TABLE_ELEMS) is (name == "direct GF(16)")


def test_checker_edge_cases_match_reference_walk(gf4, gf9):
    # zeros that are the vertex alone, on a rank-3 cone and a plane cone
    for ctx, cone in ((gf4, make_standard_cone(gf4, 3)), (gf9, make_standard_cone(gf9, 2))):
        form = _anisotropic_binary_quadric(ctx, cone.n)
        assert check_union_of_cone_lines(ctx, cone, form) == (False, 0)
        assert reference_check_union_of_cone_lines(ctx, cone, form) == (False, 0)
    # in P^2 the same quadric vanishes at the vertex only
    quadric = _anisotropic_binary_quadric(gf4, 2)
    assert is_cone_with_vertex(gf4, quadric, (0, 0, 1))
    assert reference_is_cone_with_vertex(gf4, quadric, (0, 0, 1))
    # a vertex given unnormalized is the same point
    for duals, cone_ok in (([(1, 0, 0, 0)], True), ([(1, 0, 0, 0), (0, 0, 0, 1)], False)):
        form = product_of_hyperplanes(gf4, duals)
        assert is_cone_with_vertex(gf4, form, (0, 0, 0, 3)) is cone_ok
        assert reference_is_cone_with_vertex(gf4, form, (0, 0, 0, 1)) is cone_ok


# Fields of the value-block test: XOR add (GF(4), GF(16)), flat gathers (GF(9),
# GF(25)) and the sparse log/spread tables (GF(289)).
MASK_FIELDS = [make_field(p, e) for p, e in ((2, 1), (2, 2), (3, 1), (5, 1), (17, 1))]


@st.composite
def mask_stacks(draw):
    """A field, a monomial basis (k from 2), a point set with the zero vector
    in it (every form vanishes there), and a stack of 1 to about 300 nonzero
    coefficient rows, some sparse and some repeated."""
    ctx = draw(st.sampled_from(MASK_FIELDS))
    n, d = draw(st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]))
    basis = monomial_basis(n, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(0, ctx.q2, size=(draw(st.integers(1, 60)), n + 1))
    points[0] = 0
    coeffs = rng.integers(0, ctx.q2, size=(draw(st.integers(1, 300)), len(basis)))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0
    coeffs[:, 0] |= ~coeffs.any(axis=1)
    coeffs[1::7] = coeffs[::7][: len(coeffs[1::7])]
    return ctx, basis, points, coeffs


def _assert_blocks_match_form_values(ctx, basis, points, coeffs):
    values = monomial_values(ctx, basis, points)
    blocks = list(bounds.value_blocks(ctx, coeffs, values))
    assert [lo for lo, _ in blocks] == list(range(0, len(coeffs), len(blocks[0][1])))
    got = np.concatenate([block for _, block in blocks])
    assert got.shape == (len(coeffs), len(points))
    for row, vals in zip(coeffs, got):
        form = HomogeneousForm(basis, tuple(int(c) for c in row))
        assert np.array_equal(vals, form_values(ctx, form, points))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mask_stacks(), st.sampled_from(["as is", "one digit", "blocks"]))
def test_zero_masks_match_form_values(case, patch):
    ctx, basis, points, coeffs = case
    if patch == "one digit":  # q2^2 * m > SCAN_TABLE_ELEMS: groups of one monomial
        with mock.patch.object(bounds, "SCAN_TABLE_ELEMS", ctx.q2 * len(points)):
            _assert_blocks_match_form_values(*case)
    elif patch == "blocks":  # at most 3 rows per block
        with mock.patch.object(projspace, "CHUNK_ELEMS", 4 * 3 * len(points)):
            _assert_blocks_match_form_values(*case)
    else:
        _assert_blocks_match_form_values(*case)


@pytest.mark.parametrize(
    "n_forms, table_elems, widths",
    [
        (15, None, {1}),  # 4^2 > 15 rows
        (16, None, {2}),
        (64, None, {3}),
        (300, None, {3}),  # L <= k - 1 = 3
        (300, 4 * 40, {1}),
        (300, 16 * 40, {2}),
    ],
)
def test_zero_mask_group_width(n_forms, table_elems, widths):
    # GF(4), n = 3, d = 1 (k = 4) on 40 points: the group width L, read off
    # the tables built, and the values against form_values
    ctx = CONE_FIELDS[0]
    basis = monomial_basis(3, 1)
    rng = np.random.default_rng(n_forms)
    points = rng.integers(0, 4, size=(40, 4))
    coeffs = rng.integers(0, 4, size=(n_forms, 4))
    coeffs[:, 0] |= ~coeffs.any(axis=1)
    built = []
    build = bounds.combination_table

    def recording(ctx, rows):
        built.append(rows.shape[-2])
        return build(ctx, rows)

    with mock.patch.object(bounds, "combination_table", recording):
        with mock.patch.object(bounds, "SCAN_TABLE_ELEMS", table_elems or bounds.SCAN_TABLE_ELEMS):
            _assert_blocks_match_form_values(ctx, basis, points, coeffs)
    assert set(built) == widths


# Cells whose oracle maximizers are cheap to list, with the degrees drawn.
STACK_CELLS = [
    (CONE_FIELDS[0], 2, (1, 2)),
    (CONE_FIELDS[0], 3, (1, 2)),
    (CONE_FIELDS[0], 4, (1,)),
    (CONE_FIELDS[1], 2, (1, 2)),
    (CONE_FIELDS[1], 3, (1,)),
]
MAXIMIZERS = {}


def _maximizers(ctx, n, d):
    key = (ctx.q2, n, d)
    if key not in MAXIMIZERS:
        MAXIMIZERS[key] = bruteforce_max_intersection(ctx, _cone(ctx, n), n, d).maximizers
    return MAXIMIZERS[key]


STACK_KINDS = ["maximizer", "random", "misses_vertex", "through_vertex", "partial", "vertex_only", "repeat"]


@st.composite
def cone_form_stacks(draw):
    """A cone cell and a stack of degree-d forms on it, one kind per row:
    oracle maximizers, random forms, forms missing the vertex, products of
    hyperplanes through it, such products broken by one hyperplane that
    misses it, the form whose only cone zero is the vertex (d = 2), and
    repeats of earlier rows."""
    ctx, n, degrees = draw(st.sampled_from(STACK_CELLS))
    d = draw(st.sampled_from(degrees))
    basis = monomial_basis(n, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=12)):
        if kind == "maximizer":
            found = _maximizers(ctx, n, d)
            coeffs = found[rng.integers(len(found))]
        elif kind == "repeat" and rows:
            coeffs = rows[rng.integers(len(rows))]
        elif kind == "vertex_only" and d == 2:
            coeffs = _anisotropic_binary_quadric(ctx, n).coeffs
        elif kind in ("through_vertex", "partial"):
            duals = [_random_dual(ctx, rng, n, through_vertex=True) for _ in range(d)]
            if kind == "partial":
                duals[-1] = _random_dual(ctx, rng, n, through_vertex=False)
            coeffs = product_of_hyperplanes(ctx, duals).coeffs
        else:
            values = rng.integers(0, ctx.q2, size=len(basis))
            if kind == "misses_vertex":
                values[-1] = rng.integers(1, ctx.q2)  # x_n^d is the last monomial
            values[0] |= not values.any()
            coeffs = tuple(int(c) for c in values)
        rows.append(tuple(coeffs))
    return ctx, n, [HomogeneousForm(basis, coeffs) for coeffs in rows], draw(st.integers(1, 4))


def _stacked(ctx, cone, stack):
    return check_union_of_cone_lines(ctx, cone, stack), is_cone_with_vertex(ctx, stack, cone.vertex)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cone_form_stacks())
def test_stacked_checkers_match_reference_loops_row_by_row(case):
    ctx, n, stack, rows_per_block = case
    cone = _cone(ctx, n)
    unions, cones = _stacked(ctx, cone, stack)
    assert unions == [reference_check_union_of_cone_lines(ctx, cone, f) for f in stack]
    assert cones == [reference_is_cone_with_vertex(ctx, f, cone.vertex) for f in stack]
    assert all(type(ok) is bool and type(lines) is int for ok, lines in unions)
    assert all(type(ok) is bool for ok in cones)
    # split across blocks of rows_per_block rows on the cone (and fewer on
    # the larger P^n; a block takes a quarter of CHUNK_ELEMS): the same answers
    with mock.patch.object(projspace, "CHUNK_ELEMS", 4 * rows_per_block * len(cone.points)):
        assert _stacked(ctx, cone, stack) == (unions, cones)


def test_stacked_checkers_split_into_blocks(gf4, monkeypatch):
    cone = _cone(gf4, 3)
    stack = [HomogeneousForm(monomial_basis(3, 2), c) for c in _maximizers(gf4, 3, 2)]
    stack += [_anisotropic_binary_quadric(gf4, 3), stack[0]]
    whole = _stacked(gf4, cone, stack)
    blocks = []
    original = bounds.value_blocks

    def recording(*args):
        for lo, block in original(*args):
            blocks.append((lo, len(block)))
            yield lo, block

    monkeypatch.setattr(bounds, "value_blocks", recording)
    monkeypatch.setattr(projspace, "CHUNK_ELEMS", 4 * 3 * len(cone.points))
    assert _stacked(gf4, cone, stack) == whole
    # each checker evaluates the whole stack in blocks of at most
    # CHUNK_ELEMS // 4 = 3 * 37 codes: 111 // 19 = 5 rows at the vertex and
    # two more points on each of the cone's 9 lines, 111 // 43 = 2 rows on
    # the 21 lines of P^3 through it
    sizes = [size for _, size in blocks]
    assert sum(sizes) == 2 * len(stack) and set(sizes) == {5, 4, 2} and len(sizes) > 2
    # the vertex-only quadric and the repeated first maximizer
    assert whole[0][-2:] == [(False, 0), whole[0][0]]


def test_stacked_checkers_take_empty_stacks_and_one_basis(gf4):
    cone = _cone(gf4, 3)
    assert check_union_of_cone_lines(gf4, cone, []) == []
    assert is_cone_with_vertex(gf4, (), cone.vertex) == []
    mixed = [_anisotropic_binary_quadric(gf4, 3), HomogeneousForm(monomial_basis(3, 1), (1, 0, 0, 0))]
    with pytest.raises(ValueError, match="one monomial basis"):
        check_union_of_cone_lines(gf4, cone, mixed)
    with pytest.raises(ValueError, match="one monomial basis"):
        is_cone_with_vertex(gf4, mixed, cone.vertex)
    # codes outside [0, q2) are refused, not read from another table entry
    for bad in (-1, gf4.q2):
        stack = [HomogeneousForm(monomial_basis(3, 1), (1, 0, bad, 0))]
        with pytest.raises(ValueError, match="outside the codes"):
            check_union_of_cone_lines(gf4, cone, stack)
        with pytest.raises(ValueError, match="outside the codes"):
            is_cone_with_vertex(gf4, stack[0], cone.vertex)


def test_characterize_maximizers_checks_the_whole_stack_at_once(monkeypatch):
    # oracle --p 3 --n 4 --d 1: 280 maximizers, one call of each checker and
    # no per-form evaluation
    ctx = make_field(3, 1)
    cone = oracle_target(ctx, "cone", 4)
    result = bruteforce_max_intersection(ctx, cone, 4, 1)
    assert len(result.maximizers) == result.n_maximizers == 280
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    evaluate = sys.modules["hermcodes.forms"].form_values
    for module in [m for key, m in sys.modules.items() if key.startswith("hermcodes.")]:
        if getattr(module, "form_values", None) is evaluate:
            monkeypatch.setattr(module, "form_values", counted("form_values", evaluate))
    for name in ("check_union_of_cone_lines", "is_cone_with_vertex"):
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    found = characterize_maximizers(ctx, cone, result)
    assert calls == {"check_union_of_cone_lines": 1, "is_cone_with_vertex": 1}
    assert found == {
        "union_of_generator_lines": True,
        "generator_lines": [sorensen_max(1, 3)],
        "cone_with_vertex": True,
    }


# ---------------------------------------------------------------------------
# Fibre root counts: the checkers' route, against the reference loops
# ---------------------------------------------------------------------------


FIBRE_FIELDS = CONE_FIELDS[:3]  # GF(4), GF(9), GF(16)
CONGRUENT_CONES = {}


def _congruent_cone(ctx, n):
    """A rank-n cone other than the standard one: S^T H S^(q) for the
    standard matrix H and the first invertible S, drawn from fixed seeds,
    that puts the vertex S^-1 e_n off the last coordinate (so the fibres
    lie in a hyperplane x_j = 0 with j < n)."""
    key = (ctx.q2, n)
    if key not in CONGRUENT_CONES:
        h = make_standard_cone(ctx, n).matrix
        for seed in range(1000):
            s = np.random.default_rng(seed).integers(0, ctx.q2, size=(n + 1, n + 1))
            if matrix_rank(ctx, s) == n + 1:
                cone = HermitianVariety(ctx, congruence_transform(ctx, h, s))
                if cone.vertex[n] == 0:
                    break
        assert cone.is_rank_n_cone and cone.vertex[n] == 0
        CONGRUENT_CONES[key] = cone
    return CONGRUENT_CONES[key]


def _dual_through(ctx, rng, vertex, through_vertex):
    """A nonzero dual vector u with u . vertex = 0 iff through_vertex,
    vertex normalized: u_j absorbs the dot product, v_j = 1 being the
    vertex's last nonzero coordinate."""
    j = int(np.flatnonzero(vertex)[-1])
    while True:
        dual = rng.integers(0, ctx.q2, size=len(vertex))
        dot = int(reduce(ctx.vadd, ctx.vmul(dual, np.asarray(vertex)), 0))
        dual[j] = ctx.add(int(dual[j]), ctx.neg(dot))  # now u . v = 0
        if not through_vertex:
            dual[j] = ctx.add(int(dual[j]), 1)
        if dual.any():
            return [int(c) for c in dual]


FIBRE_KINDS = ["random", "misses_vertex", "whole_lines", "partial", "base_cone"]


@st.composite
def fibre_cases(draw):
    """A cone over GF(4), GF(9) or GF(16) (standard, n = 2 or 3, or the
    congruent rank-3 cone over GF(9)), a nonzero scalar for the vertex, and
    a form of degree d <= q on it: random; missing the vertex; a product of
    hyperplanes through the vertex, a union of whole lines; such a product
    broken by one hyperplane that misses it; or, on a standard cone, a
    random form in x_0 .. x_(n-1), the cone over a base hypersurface."""
    ctx = draw(st.sampled_from(FIBRE_FIELDS))
    n = draw(st.sampled_from([2, 3]))
    congruent = ctx.q2 == 9 and n == 3 and draw(st.booleans())
    cone = _congruent_cone(ctx, n) if congruent else _cone(ctx, n)
    kinds = FIBRE_KINDS[:-1] if congruent else FIBRE_KINDS
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(2 if kind == "partial" else 1, ctx.q))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertex = cone.vertex
    if kind in ("whole_lines", "partial"):
        duals = [_dual_through(ctx, rng, vertex, True) for _ in range(d)]
        if kind == "partial":
            duals[-1] = _dual_through(ctx, rng, vertex, False)
        form = product_of_hyperplanes(ctx, duals)
    else:
        basis = monomial_basis(n, d)
        coeffs = rng.integers(0, ctx.q2, size=len(basis))
        if kind == "base_cone":
            coeffs[[e[n] > 0 for e in basis.exponents]] = 0
        if kind == "misses_vertex":  # add c - F(v) x_j^d, c != 0: x_j^d is 1 at v
            coeffs[0] |= not coeffs.any()
            form = HomogeneousForm(basis, tuple(int(c) for c in coeffs))
            at_v = form_values(ctx, form, np.array([vertex]))
            j = int(np.flatnonzero(vertex)[-1])
            pure = basis.exponents.index(tuple(d * (i == j) for i in range(n + 1)))
            shift = ctx.add(int(rng.integers(1, ctx.q2)), ctx.neg(int(at_v[0])))
            coeffs[pure] = ctx.add(int(coeffs[pure]), shift)
        coeffs[0] |= not coeffs.any()
        form = HomogeneousForm(basis, tuple(int(c) for c in coeffs))
    return ctx, cone, form, int(draw(st.integers(1, ctx.q2 - 1)))


def _spy(name, calls):
    """mock.patch of ``bounds.<name>`` that records each call's arguments."""
    real = getattr(bounds, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    return mock.patch.object(bounds, name, spy)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fibre_cases())
def test_fibre_checkers_match_reference_loops(case):
    ctx, cone, form, scale = case
    tables = []
    with _spy("_root_counts", tables):
        union = check_union_of_cone_lines(ctx, cone, form)
        # the vertex may be given as any nonzero multiple
        cone_ok = is_cone_with_vertex(ctx, form, ctx.vmul(scale, np.array(cone.vertex)))
    assert union == reference_check_union_of_cone_lines(ctx, cone, form)
    assert cone_ok == reference_is_cone_with_vertex(ctx, form, cone.vertex)
    # one root table per checker, unless it would not fit (GF(16), d = 4)
    assert len(tables) == 2 * (ctx.q2 ** (form.basis.d + 2) <= bounds.SCAN_TABLE_ELEMS)


@pytest.mark.parametrize("p,e,n,d,congruent", [(3, 1, 3, 3, True), (2, 2, 2, 3, False)])
def test_fibre_root_counts_add_up_to_the_zero_count(p, e, n, d, congruent):
    # per form: the vertex flag and the zeros on each line through it add
    # up to the form's zero count on the cone.  The cells (d = 3) are ones
    # where reading the values at t = 0 .. d-1 in reverse order changes
    # some root counts.
    ctx = make_field(p, e)
    cone = _congruent_cone(ctx, n) if congruent else _cone(ctx, n)
    points = cone.points
    j = int(np.flatnonzero(cone.vertex)[-1])
    base = points[points[:, j] == 0]
    assert len(points) == 1 + ctx.q2 * len(base)
    rng = np.random.default_rng(3)
    basis = monomial_basis(n, d)
    coeffs = rng.integers(0, ctx.q2, size=(40, len(basis)))
    coeffs[:, 0] |= ~coeffs.any(axis=1)
    counts = np.concatenate(
        [
            at_vertex + roots.sum(axis=1, dtype=np.int64)
            for _, at_vertex, roots in bounds.fibre_root_counts(ctx, basis, coeffs, base, cone.vertex)
        ]
    )
    for row, count in zip(coeffs, counts):
        form = HomogeneousForm(basis, tuple(int(c) for c in row))
        assert count == int((form_values(ctx, form, points) == 0).sum())
    with pytest.raises(ValueError, match="x_j = 0"):
        next(bounds.fibre_root_counts(ctx, basis, coeffs, points, cone.vertex))


@pytest.mark.parametrize("entry", ["whole line", "constant one"])
def test_a_wrong_root_table_entry_makes_the_checkers_disagree(gf4, monkeypatch, entry):
    # d = 1: entry y_0 q2 + c of the table is y_0 + c t; 0 is the zero
    # polynomial (q2 roots) and q2 the constant 1 (none), the value of x_0
    # along each line over a base point with x_0 = 1
    cone = _cone(gf4, 3)
    basis = monomial_basis(3, 1)
    stack = [HomogeneousForm(basis, c) for c in _maximizers(gf4, 3, 1)]
    stack.append(HomogeneousForm(basis, (1, 0, 0, 0)))
    want = (
        [reference_check_union_of_cone_lines(gf4, cone, f) for f in stack],
        [reference_is_cone_with_vertex(gf4, f, cone.vertex) for f in stack],
    )
    assert _stacked(gf4, cone, stack) == want
    index = 0 if entry == "whole line" else gf4.q2
    real = bounds._root_counts

    def mutated(ctx, d):
        roots = real(ctx, d).copy()
        assert roots[index] == (gf4.q2 if entry == "whole line" else 0)
        roots[index] = 1
        return roots

    monkeypatch.setattr(bounds, "_root_counts", mutated)
    unions, cones = _stacked(gf4, cone, stack)
    assert unions[-1] != want[0][-1] and cones[-1] != want[1][-1]


def _record_value_blocks(monkeypatch):
    """Patch ``bounds.value_blocks`` to record the shape of each value
    matrix it reads, and return that record."""
    evaluated, real = [], bounds.value_blocks

    def recording(ctx, coeffs, values):
        evaluated.append(values.shape)
        yield from real(ctx, coeffs, values)

    monkeypatch.setattr(bounds, "value_blocks", recording)
    return evaluated


def test_checkers_count_every_line_point_when_the_root_table_would_not_fit(gf9, monkeypatch):
    cone = _cone(gf9, 3)
    rng = np.random.default_rng(11)
    stack = [product_of_hyperplanes(gf9, [_random_dual(gf9, rng, 3, True) for _ in range(2)])]
    stack.append(product_of_hyperplanes(gf9, [(1, 0, 0, 0), _random_dual(gf9, rng, 3, False)]))
    stack.append(_anisotropic_binary_quadric(gf9, 3))
    stack.append(product_of_hyperplanes(gf9, [_random_dual(gf9, rng, 3, False) for _ in range(2)]))
    by_table = _stacked(gf9, cone, stack)
    assert by_table == (
        [reference_check_union_of_cone_lines(gf9, cone, f) for f in stack],
        [reference_is_cone_with_vertex(gf9, f, cone.vertex) for f in stack],
    )
    assert by_table[0][1] == (False, 4)

    def unexpected(*args):
        raise AssertionError("root table built past the table bound")

    monkeypatch.setattr(bounds, "_root_counts", unexpected)
    monkeypatch.setattr(bounds, "SCAN_TABLE_ELEMS", gf9.q2**4 - 1)  # q2^(d+2) for d = 2
    evaluated = _record_value_blocks(monkeypatch)
    assert _stacked(gf9, cone, stack) == by_table
    # one read of every point of the cone for the whole stack, the failing
    # second form included, then every point of P^3
    points = [len(cone.points), len(enumerate_points(gf9, 3))]
    assert evaluated == [(10, m) for m in points]


def test_a_form_failing_with_whole_lines_counts_them_in_the_one_pass(gf4, monkeypatch):
    cone = _cone(gf4, 3)
    x0x3 = product_of_hyperplanes(gf4, [(1, 0, 0, 0), (0, 0, 0, 1)])
    stack = [HomogeneousForm(x0x3.basis, c) for c in _maximizers(gf4, 3, 2)[:3]]
    stack += [x0x3, _anisotropic_binary_quadric(gf4, 3)]
    evaluated = _record_value_blocks(monkeypatch)
    unions = check_union_of_cone_lines(gf4, cone, stack)
    # x0 x3: three whole lines and broken ones; the quadric: the vertex alone
    assert unions[-2:] == [(False, 3), (False, 0)]
    assert unions == [reference_check_union_of_cone_lines(gf4, cone, f) for f in stack]
    # the vertex and d = 2 points on each of the 9 lines, read once for the stack
    assert evaluated == [(10, 1 + 2 * 9)]


def test_one_hyperplane_on_p4_over_gf25_reads_fibres_only(monkeypatch):
    # the q2-row tables over the 406,901 points of P^4 are gone: the stack
    # is evaluated at the vertex and at one more point on each of the
    # 16,276 lines through it
    ctx = CONE_FIELDS[3]
    evaluated = _record_value_blocks(monkeypatch)
    rng = np.random.default_rng(5)
    for through_vertex in (True, False):
        form = product_of_hyperplanes(ctx, [_random_dual(ctx, rng, 4, through_vertex)])
        assert is_cone_with_vertex(ctx, form, (0, 0, 0, 0, 3)) is through_vertex
    assert evaluated == [(5, 1 + 16276)] * 2


SPARSE = make_field(17, 1)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(CONE_FIELDS + [SPARSE]),
    st.integers(1, 5),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
def test_normalize_rows_matches_normalize_vector(ctx, width, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, ctx.q2, size=(count, 2, width))
    rows[rng.random(rows.shape) < 0.4] = 0
    rows[..., rng.integers(0, width)] |= (rows == 0).all(axis=-1)
    got = normalize_rows(ctx, rows)
    assert got.shape == rows.shape
    for vec, norm in zip(rows.reshape(-1, width), got.reshape(-1, width)):
        assert tuple(int(c) for c in norm) == reference_normalize_vector(ctx, vec)


def test_normalize_rows_rejects_zero_vector(gf4):
    with pytest.raises(ValueError):
        normalize_rows(gf4, [[1, 2, 1], [0, 0, 0]])


def reference_oracle_bound(variety, n, d, q, assume_conjecture):
    if variety == "cone":
        if n == 2:
            return BoundValue(plane_cone_bound(d, q), "theorem", "plane-cone")
        return cone_bound(n, d, q, assume_conjecture=assume_conjecture)
    if variety == "nondegenerate":
        return known_max_intersection(n, d, q)
    return BoundValue(serre_bound(n, d, q * q), "theorem", "serre")


def reference_characterize(ctx, target, result):
    if not isinstance(target, HermitianVariety) or not target.is_rank_n_cone:
        return None
    basis = monomial_basis(result.n, result.d)
    line_counts = set()
    union_ok = True
    cone_ok = True
    for coeffs in result.maximizers:
        form = HomogeneousForm(basis=basis, coeffs=coeffs)
        ok, lines = check_union_of_cone_lines(ctx, target, form)
        union_ok &= ok
        line_counts.add(lines)
        cone_ok &= is_cone_with_vertex(ctx, form, target.vertex)
    return {
        "union_of_generator_lines": union_ok,
        "generator_lines": sorted(line_counts),
        "cone_with_vertex": cone_ok,
    }


def test_oracle_bound_matches_former_rules():
    unknown = 0
    for q in (2, 3, 4, 5, 7):
        for variety in ("cone", "nondegenerate", "space"):
            for n in range(2, 7):
                for d in range(1, q + 1):
                    for assume in (False, True):
                        bound = oracle_bound(variety, n, d, q, assume)
                        assert bound == reference_oracle_bound(variety, n, d, q, assume)
                        assert assume or bound.provenance != "conjecture"
                        unknown += bound.is_unknown
    assert unknown > 0  # open cells are reached and stay unknown
    with pytest.raises(ValueError):
        oracle_bound("plane", 2, 1, 2)


@pytest.mark.parametrize(
    "p, n, d",
    [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (2, 4, 1), (3, 2, 1), (3, 2, 2)],
)
def test_characterize_maximizers_matches_former_loop(p, n, d):
    # the cone cells of the bounds verify suite, with the default cap, cap 0 and cap 1
    ctx = make_field(p, 1)
    cone = oracle_target(ctx, "cone", n)
    for cap in (10_000, 0, 1):
        result = bruteforce_max_intersection(ctx, cone, n, d, cap=cap)
        assert len(result.maximizers) == min(cap, result.n_maximizers)
        found = characterize_maximizers(ctx, cone, result)
        assert found == reference_characterize(ctx, cone, result)
        if cap == 0:  # an empty stack: the vacuous result
            assert found == {
                "union_of_generator_lines": True,
                "generator_lines": [],
                "cone_with_vertex": True,
            }
    for variety in ("nondegenerate", "space"):
        target = oracle_target(ctx, variety, n)
        result = bruteforce_max_intersection(ctx, target, n, d, cap=1)
        assert characterize_maximizers(ctx, target, result) is None
