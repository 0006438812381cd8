"""Monomial bases, form evaluation, projectivized enumeration and sharding.

The vectorized zero-count kernel is cross-checked against direct per-form
evaluation, which keeps the oracle's hot path honest.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermcodes import (
    BudgetExceededError,
    HomogeneousForm,
    intersection_count,
    make_field,
    make_standard_cone,
    monomial_basis,
    pi_count,
    product_of_hyperplanes,
)
from hermcodes.forms import (
    class_indices,
    coeffs_at_indices,
    form_values,
    monomial_values,
    multiply_linear,
    projective_form_count,
    projectivize_coeffs,
    scan_zero_counts,
    segments,
    shard_range,
)
from hermcodes.field import code_dtype
from loop_reference import (
    reference_coeffs_at_index,
    reference_enumerate_forms_projective,
    reference_missing_vertex_filter,
    reference_pow,
)
from hermcodes.projspace import enumerate_points


def test_monomial_basis_order():
    basis = monomial_basis(2, 1)
    assert basis.exponents == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    basis2 = monomial_basis(2, 2)
    assert len(basis2) == 6
    assert basis2.exponents == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )
    assert len(monomial_basis(4, 3)) == comb(7, 3) == 35


def test_form_values_basics(gf4):
    basis = monomial_basis(2, 1)
    x0 = HomogeneousForm(basis=basis, coeffs=(1, 0, 0))
    assert form_values(gf4, x0, np.array([(0, 0, 1), (1, 0, 0)])).tolist() == [0, 1]
    basis3 = monomial_basis(2, 3)
    x0_cubed = HomogeneousForm(basis=basis3, coeffs=tuple([1] + [0] * 9))
    assert form_values(gf4, x0_cubed, np.array([(1, 0, 0)])).tolist() == [1]
    with pytest.raises(ValueError):
        HomogeneousForm(basis=basis, coeffs=(0, 0, 0))


@pytest.mark.parametrize("field", ["gf4", "gf9"])
@pytest.mark.parametrize("bad", [-1, "q2", 255])
def test_out_of_range_coefficients_are_refused(field, bad, request):
    # the dense field kernels read flat tables without range checks, so a
    # coefficient outside [0, q2) must be refused where a form comes in
    ctx = request.getfixturevalue(field)
    bad = ctx.q2 if bad == "q2" else bad
    form = HomogeneousForm(basis=monomial_basis(2, 1), coeffs=(1, bad, 0))
    space = enumerate_points(ctx, 2)
    with pytest.raises(ValueError, match="outside the codes"):
        form_values(ctx, form, space)
    with pytest.raises(ValueError, match="outside the codes"):
        intersection_count(ctx, form, space)
    with pytest.raises(ValueError, match="outside the codes"):
        multiply_linear(ctx, form, (1, 0, 0))
    good = HomogeneousForm(basis=monomial_basis(2, 1), coeffs=(1, 0, 0))
    with pytest.raises(ValueError, match="outside the codes"):
        multiply_linear(ctx, good, (1, bad, 0))


def reference_evaluate_form(ctx, form, x) -> int:
    """Sum of coeff_i * x^exponent_i, one scalar power and product at a time."""
    acc = 0
    for coeff, exps in zip(form.coeffs, form.basis.exponents):
        term = coeff
        for c, e in zip(x, exps):
            if e:
                term = ctx.mul(term, reference_pow(ctx, int(c), e))
        acc = ctx.add(acc, term)
    return acc


EVAL_FIELDS = [make_field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (17, 1))]


@st.composite
def forms_and_points(draw):
    """A nonzero form of degree 1..4 in 2..4 variables over GF(4), GF(9),
    GF(16) or GF(289), and up to 8 coordinate vectors that are not
    normalized (the zero vector included)."""
    ctx = draw(st.sampled_from(EVAL_FIELDS))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    basis = monomial_basis(n, d)
    code = st.integers(0, ctx.q2 - 1)
    coeffs = draw(st.lists(code, min_size=len(basis), max_size=len(basis)).filter(any))
    points = draw(st.lists(st.lists(code, min_size=n + 1, max_size=n + 1), min_size=1, max_size=8))
    return ctx, HomogeneousForm(basis=basis, coeffs=tuple(coeffs)), np.array(points)


@settings(max_examples=150, deadline=None)
@given(forms_and_points())
def test_form_values_match_scalar_loop(case):
    ctx, form, points = case
    want = [reference_evaluate_form(ctx, form, x) for x in points]
    assert form_values(ctx, form, points).tolist() == want


def test_two_lines_have_nine_points(gf4):
    # V(x0 * x1) in the projective plane: two lines sharing one point
    basis = monomial_basis(2, 2)
    coeffs = [0] * 6
    coeffs[basis.exponents.index((1, 1, 0))] = 1
    form = HomogeneousForm(basis=basis, coeffs=tuple(coeffs))
    assert intersection_count(gf4, form, enumerate_points(gf4, 2)) == 2 * 5 - 1 == 9


def test_projective_form_counts():
    assert projective_form_count(4, 3) == 21
    assert projective_form_count(4, 6) == 1365
    assert projective_form_count(4, 10) == 349525
    assert projective_form_count(9, 6) == 66430


def test_segments_partition():
    segs = segments(4, 3)
    assert segs == [(0, 0, 16), (1, 16, 20), (2, 20, 21)]
    assert segs[-1][2] == projective_form_count(4, 3)


def test_enumerate_forms_projective(gf4):
    rows = coeffs_at_indices(4, 3, np.arange(projective_form_count(4, 3)))
    assert len(rows) == 21
    seen = set()
    for coeffs in map(tuple, rows.tolist()):
        lead = next(c for c in coeffs if c)
        assert lead == 1
        seen.add(coeffs)
    assert len(seen) == 21
    # the 21 projectivized linear forms are the 21 lines of the plane
    space = enumerate_points(gf4, 2)
    for coeffs in seen:
        form = HomogeneousForm(basis=monomial_basis(2, 1), coeffs=coeffs)
        assert intersection_count(gf4, form, space) == pi_count(1, 4)


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2)])
def test_shard_completeness(gf4, n, d):
    k = len(monomial_basis(n, d))
    total = projective_form_count(4, k)
    unsharded = [f.coeffs for f in reference_enumerate_forms_projective(gf4, n, d)]
    sharded = []
    for i in range(4):
        lo, hi = shard_range(total, (i, 4))
        sharded.extend(map(tuple, coeffs_at_indices(4, k, np.arange(lo, hi)).tolist()))
    assert sharded == unsharded
    assert len(set(sharded)) == len(sharded)


def test_shard_range_and_index_roundtrip():
    total = projective_form_count(4, 3)
    bounds = [shard_range(total, (i, 4)) for i in range(4)]
    assert bounds[0][0] == 0 and bounds[-1][1] == total
    for (a, b), (c, _) in zip(bounds, bounds[1:]):
        assert b == c
    seen = set(map(tuple, coeffs_at_indices(4, 3, np.arange(total)).tolist()))
    assert len(seen) == total
    with pytest.raises(IndexError):
        coeffs_at_indices(4, 3, [total])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_class_indices_invert_coeffs_at_index(gf9, k):
    total = projective_form_count(9, k)
    coeffs = coeffs_at_indices(9, k, np.arange(total))
    assert class_indices(gf9, coeffs).tolist() == list(range(total))
    # any nonzero multiple names the same class
    scales = np.arange(total) % 8 + 1
    assert class_indices(gf9, gf9.vmul(scales[:, None], coeffs)).tolist() == list(range(total))
    with pytest.raises(ZeroDivisionError):
        class_indices(gf9, np.zeros((1, k), dtype=np.int64))


def test_product_of_hyperplanes(gf4):
    basis = monomial_basis(2, 1)
    single = product_of_hyperplanes(gf4, [(1, 2, 3)])
    assert single.coeffs == (1, 2, 3)
    # two distinct lines of the plane meet the plane in 9 points
    two = product_of_hyperplanes(gf4, [(1, 0, 0), (0, 1, 0)])
    assert intersection_count(gf4, two, enumerate_points(gf4, 2)) == 9
    with pytest.raises(ValueError):
        product_of_hyperplanes(gf4, [])


@pytest.mark.parametrize("field", ["gf4", "gf9"])
def test_multiply_linear_matches_pointwise_product(field, request):
    """Form times linear form, and the product of hyperplanes built from it,
    take the pointwise product of the factors' values at every point."""
    ctx = request.getfixturevalue(field)
    rng = np.random.default_rng(5)
    points = enumerate_points(ctx, 2)
    for d in (1, 2):
        for _ in range(5):
            form = HomogeneousForm(
                basis=monomial_basis(2, d),
                coeffs=tuple(int(c) for c in rng.integers(1, ctx.q2, size=comb(2 + d, d))),
            )
            dual = [int(c) for c in rng.integers(0, ctx.q2, size=3)]
            dual[0] = dual[0] or 1
            product = multiply_linear(ctx, form, dual)
            assert product.basis == monomial_basis(2, d + 1)
            linear = product_of_hyperplanes(ctx, [dual])
            expected = ctx.vmul(form_values(ctx, form, points), form_values(ctx, linear, points))
            assert np.array_equal(form_values(ctx, product, points), expected)
    duals = [[int(c) for c in rng.integers(1, ctx.q2, size=3)] for _ in range(3)]
    expected = np.ones(len(points), dtype=np.int64)
    for dual in duals:
        single = product_of_hyperplanes(ctx, [dual])
        expected = ctx.vmul(expected, form_values(ctx, single, points))
    product = product_of_hyperplanes(ctx, duals)
    assert np.array_equal(form_values(ctx, product, points), expected)


@pytest.mark.parametrize("n", [2, 3])
def test_concurrent_hyperplanes_attain_plane_count(gf4, n):
    # d = q concurrent hyperplanes: d*q^(2(n-1)) + pi_(n-2) rational zeros
    d = gf4.q
    duals = []
    for c in range(d):
        duals.append([1, gf4.neg(c)] + [0] * (n - 1))
    form = product_of_hyperplanes(gf4, duals)
    space = enumerate_points(gf4, n)
    expected = d * 4 ** (n - 1) + pi_count(n - 2, 4)
    assert intersection_count(gf4, form, space) == expected


def test_product_zero_set_is_union(gf4):
    duals = [(1, 0, 0), (1, 1, 1)]
    form = product_of_hyperplanes(gf4, duals)
    space = enumerate_points(gf4, 2)
    from hermcodes.projspace import incidence_matrix

    union = incidence_matrix(gf4, space, duals).any(axis=1)
    zeros = form_values(gf4, form, space) == 0
    assert np.array_equal(union, zeros)


def test_scalar_invariance(gf4):
    cone = make_standard_cone(gf4, 2)
    basis = monomial_basis(2, 2)
    rng = np.random.default_rng(23)
    for _ in range(10):
        coeffs = tuple(int(c) for c in rng.integers(0, 4, size=6))
        if not any(coeffs):
            continue
        form = HomogeneousForm(basis=basis, coeffs=coeffs)
        for lam in (2, 3):
            scaled = HomogeneousForm(
                basis=basis, coeffs=tuple(gf4.mul(lam, c) for c in coeffs)
            )
            assert intersection_count(gf4, form, cone.points) == intersection_count(
                gf4, scaled, cone.points
            )
        assert projectivize_coeffs(gf4, coeffs)[
            next(i for i, c in enumerate(coeffs) if c)
        ] == 1


def test_scan_matches_direct_evaluation(gf4):
    """The zero-count kernel agrees with per-form evaluation."""
    cone = make_standard_cone(gf4, 2)
    basis = monomial_basis(2, 1)
    values = monomial_values(gf4, basis, cone.points)
    total = projective_form_count(4, 3)
    scanned = np.concatenate(
        [zeros for _, zeros in scan_zero_counts(gf4, values, 0, total)]
    )
    direct = [
        intersection_count(gf4, f, cone.points)
        for f in reference_enumerate_forms_projective(gf4, 2, 1)
    ]
    assert scanned.tolist() == direct


def test_monomial_values_shape(gf4):
    cone = make_standard_cone(gf4, 3)
    basis = monomial_basis(3, 2)
    v = monomial_values(gf4, basis, cone.points)
    assert v.shape == (10, 37)
    # column j is every monomial evaluated at point j
    form = HomogeneousForm(basis=basis, coeffs=tuple([1] + [0] * 9))
    assert np.array_equal(v[0], form_values(gf4, form, cone.points))


@pytest.mark.parametrize("p", [2, 3, 17])
@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (3, 2), (2, 4), (3, 4)])
def test_monomial_values_match_scalar_power_products(p, n, d):
    # every row against prod_var x_var^e by scalar ctx.mul, at GF(4), GF(9)
    # and GF(289) (sparse path), points with zero coordinates included
    ctx = make_field(p, 1)
    basis = monomial_basis(n, d)
    rng = np.random.default_rng(p * 100 + n * 10 + d)
    points = rng.integers(0, ctx.q2, size=(25, n + 1))
    points[rng.random(points.shape) < 0.2] = 0
    got = monomial_values(ctx, basis, points)
    assert got.dtype == code_dtype(ctx.q2) and got.shape == (len(basis), len(points))
    if ctx.q2 > 256:
        # codes past 255 come back whole, in uint16, not wrapped into uint8
        assert got.dtype == np.uint16 and got.max() >= 256
    for row, exps in zip(got, basis.exponents):
        want = []
        for point in points.tolist():
            value = 1
            for x, e in zip(point, exps):
                for _ in range(e):
                    value = ctx.mul(value, x)
            want.append(value)
        assert row.tolist() == want


# -- the array form-index decoder against the former segment walk -------------


def _assert_decodes_like_the_walk(q2, k, g):
    rows = coeffs_at_indices(q2, k, g)
    assert rows.dtype == np.int64 and rows.shape == (len(g), k)
    want = [reference_coeffs_at_index(q2, k, int(x)) for x in g]
    assert list(map(tuple, rows.tolist())) == want
    # the vertex filter of the missing-vertex reference in test_bounds: x_n^d is the last monomial
    assert np.array_equal(rows[:, -1] != 0, reference_missing_vertex_filter(q2, k, g))


@pytest.mark.parametrize(
    "q2,k",
    [(4, k) for k in range(1, 6)] + [(9, k) for k in range(1, 5)] + [(289, k) for k in (1, 2, 3)],
)
def test_coeffs_at_indices_decodes_every_index_of_small_cells(q2, k):
    _assert_decodes_like_the_walk(q2, k, np.arange(projective_form_count(q2, k)))


# The largest k whose form space fits int64 (2^63 or more classes are refused).
INT64_K = {4: 32, 9: 20, 289: 8}


@st.composite
def index_batches(draw):
    """Indices of a GF(4), GF(9) or GF(289) form space up to the int64
    limit: random ones, the first, second and last index of each segment,
    and separately indices just outside [0, total)."""
    q2 = draw(st.sampled_from(sorted(INT64_K)))
    k = draw(st.integers(1, INT64_K[q2]))
    total = projective_form_count(q2, k)
    edges = sorted({x for _, lo, hi in segments(q2, k) for x in (lo, lo + 1, hi - 1) if x < total})
    index = st.integers(0, total - 1) | st.sampled_from(edges)
    outside = st.integers(1, 10**6).flatmap(lambda s: st.sampled_from([-s, total - 1 + s]))
    return q2, k, draw(st.lists(index, max_size=40)), draw(outside)


@settings(max_examples=200, deadline=None)
@given(index_batches())
def test_coeffs_at_indices_matches_the_segment_walk(case):
    q2, k, g, bad = case
    _assert_decodes_like_the_walk(q2, k, np.array(g, dtype=np.int64))
    with pytest.raises(IndexError):
        reference_coeffs_at_index(q2, k, bad)
    with pytest.raises(IndexError):
        coeffs_at_indices(q2, k, g + [bad])


def test_form_spaces_past_int64_are_refused(gf4):
    assert projective_form_count(4, 32) < 2**63 <= projective_form_count(4, 33)
    last = projective_form_count(4, 32) - 1
    assert coeffs_at_indices(4, 32, [last])[0].tolist() == [0] * 31 + [1]
    assert reference_coeffs_at_index(4, 32, last) == (0,) * 31 + (1,)
    with pytest.raises(BudgetExceededError, match="int64"):
        coeffs_at_indices(4, 33, [0])
    with pytest.raises(BudgetExceededError, match="int64"):
        next(scan_zero_counts(gf4, np.ones((33, 2), dtype=np.int64), 0, 1))
