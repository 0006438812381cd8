"""Field tower arithmetic, checked against an independent polynomial-model
oracle and hand-computed tables for GF(4) and GF(9)."""

import copy
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermcodes import BudgetExceededError, make_field, verify
from hermcodes.field import code_dtype, is_prime
from hermcodes.limits import DENSE_TABLE_LIMIT
from hermcodes.verify import check_field_axioms, check_norm_trace_maps
from loop_reference import (
    reference_is_prime,
    reference_norm_preimage,
    reference_pow,
    reference_trace_preimage,
)

# -- independent oracle: direct polynomial arithmetic over GF(p) ------------


def poly_digits(code, p, width):
    return [(code // p**i) % p for i in range(width)]


def poly_code(digits, p):
    return sum(c * p**i for i, c in enumerate(digits))


def oracle_mul(a, b, modulus, p):
    width = len(modulus) - 1
    da, db = poly_digits(a, p, width), poly_digits(b, p, width)
    prod = [0] * (2 * width - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by the monic modulus
    for top in range(len(prod) - 1, width - 1, -1):
        lead = prod[top]
        if lead:
            for i, c in enumerate(modulus):
                prod[top - width + i] = (prod[top - width + i] - lead * c) % p
    return poly_code(prod[:width], p)


def oracle_add(a, b, p, width):
    return poly_code(
        [(x + y) % p for x, y in zip(poly_digits(a, p, width), poly_digits(b, p, width))], p
    )


def oracle_neg(a, p, width):
    return poly_code([(-x) % p for x in poly_digits(a, p, width)], p)


# -- construction ------------------------------------------------------------


def test_smallest_moduli():
    assert make_field(2, 1).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(3, 1).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(2, 2).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert make_field(5, 1).modulus == (2, 0, 1)  # x^2 + 2


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(BudgetExceededError):
        make_field(2, 11)  # 2^22 over the table limit


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_arithmetic_matches_polynomial_oracle(p, e):
    ctx = make_field(p, e)
    width = 2 * e
    for a in range(ctx.q2):
        for b in range(ctx.q2):
            assert ctx.mul(a, b) == oracle_mul(a, b, list(ctx.modulus), p)
            assert ctx.add(a, b) == oracle_add(a, b, p, width)


# Fields above DENSE_TABLE_LIMIT: log/exp multiply, XOR or digit-wise add.
SPARSE_FIELDS = [make_field(p, e) for p, e in ((17, 1), (5, 2), (3, 3), (2, 5))]


@st.composite
def sparse_operands(draw):
    ctx = draw(st.sampled_from(SPARSE_FIELDS))
    codes = st.integers(0, ctx.q2 - 1)
    return ctx, draw(st.lists(st.tuples(codes, codes), min_size=1, max_size=30))


@settings(max_examples=200, deadline=None)
@given(sparse_operands())
def test_sparse_arithmetic_matches_polynomial_oracle(case):
    ctx, pairs = case
    assert ctx.q2 > DENSE_TABLE_LIMIT
    p, width, modulus = ctx.p, 2 * ctx.e, list(ctx.modulus)
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    want_add = [oracle_add(x, y, p, width) for x, y in pairs]
    want_mul = [oracle_mul(x, y, modulus, p) for x, y in pairs]
    want_neg = [oracle_neg(x, p, width) for x, _ in pairs]
    assert [ctx.add(x, y) for x, y in pairs] == want_add
    assert [ctx.mul(x, y) for x, y in pairs] == want_mul
    assert [ctx.neg(x) for x, _ in pairs] == want_neg
    assert ctx.vadd(a, b).tolist() == want_add
    assert ctx.vmul(a, b).tolist() == want_mul
    assert ctx.vneg(a).tolist() == want_neg
    nonzero = a[a != 0]
    inverses = ctx.vinv(nonzero)
    assert inverses.tolist() == [ctx.inv(int(x)) for x in nonzero]
    assert all(oracle_mul(int(x), int(y), modulus, p) == 1 for x, y in zip(nonzero, inverses))
    if (a == 0).any():
        with pytest.raises(ZeroDivisionError):
            ctx.vinv(a)


# -- reference implementations of the sparse path before the gather tables ---
# A digit loop per add and a modular log/exp with a zero test per multiply;
# the gather-only ops must agree with them (and with the oracle) exactly.


def reference_add(ctx, a, b):
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    pw = 1
    for _ in range(2 * ctx.e):
        out += ((a // pw) % ctx.p + (b // pw) % ctx.p) % ctx.p * pw
        pw *= ctx.p
    return out


def reference_mul(ctx, a, b):
    out = ctx.exp_table[(ctx.log_table[a] + ctx.log_table[b]) % (ctx.q2 - 1)]
    return np.where((np.asarray(a) == 0) | (np.asarray(b) == 0), 0, out)


@functools.lru_cache(maxsize=None)
def cached_field(p, e):
    return make_field(p, e)


# GF(3^10): its spread add needs two digit groups (5^10 > TABLE_LIMIT).
TWO_GROUP_FIELD = (3, 5)
GATHER_FIELDS = [(17, 1), (5, 2), (3, 3), (2, 5), TWO_GROUP_FIELD]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (17, 1), (5, 2), (3, 3), (2, 5)])
def test_exp_table_matches_the_power_chain(p, e):
    """The doubling build against the former loop: one polynomial
    multiplication by the generator per power."""
    ctx = make_field(p, e)
    acc, want = 1, []
    for _ in range(ctx.q2 - 1):
        want.append(acc)
        acc = ctx._code_mul(acc, ctx.generator)
    assert acc == 1
    assert ctx.exp_table.tolist() == want
    assert not ctx.exp_table.flags.writeable


def test_two_group_field_splits_its_digits():
    ctx = cached_field(*TWO_GROUP_FIELD)
    assert [len(unspread) for _, unspread in ctx._spread_t] == [5**5, 5**5]
    assert all(len(unspread) == 33**2 for _, unspread in cached_field(17, 1)._spread_t)


def oracle_grid(op, a, b):
    """A scalar oracle op broadcast over two code arrays (or ints)."""
    return np.asarray(np.frompyfunc(lambda x, y: op(int(x), int(y)), 2, 1)(a, b), dtype=np.int64)


@st.composite
def broadcast_operands(draw):
    ctx = cached_field(*draw(st.sampled_from(GATHER_FIELDS)))
    codes = st.lists(st.integers(0, ctx.q2 - 1), min_size=1, max_size=12)
    xs, ys = draw(codes), draw(codes)
    shape = draw(st.sampled_from(["scalar-array", "array-scalar", "outer", "pairs"]))
    if shape == "scalar-array":
        return ctx, xs[0], np.array(ys, dtype=np.int64)
    if shape == "array-scalar":
        return ctx, np.array(xs, dtype=np.int64), ys[0]
    if shape == "outer":
        return ctx, np.array(xs, dtype=np.int64)[:, None], np.array(ys, dtype=np.int64)[None, :]
    size = min(len(xs), len(ys))
    return ctx, np.array(xs[:size], dtype=np.int64), np.array(ys[:size], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(broadcast_operands())
def test_gather_arithmetic_matches_references_and_oracle(case):
    ctx, a, b = case
    assert ctx.q2 > DENSE_TABLE_LIMIT
    p, width, modulus = ctx.p, 2 * ctx.e, list(ctx.modulus)
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    want_add = oracle_grid(lambda x, y: oracle_add(x, y, p, width), a, b)
    want_mul = oracle_grid(lambda x, y: oracle_mul(x, y, modulus, p), a, b)
    neg_b = oracle_grid(lambda y, _: oracle_neg(y, p, width), b, 0)
    got_add, got_mul, got_sub = ctx.vadd(a, b), ctx.vmul(a, b), ctx.vsub(a, b)
    for got in (got_add, got_mul, got_sub):
        assert got.shape == shape and got.dtype == np.int64
    assert np.array_equal(got_add, reference_add(ctx, a, b))
    assert np.array_equal(got_add, want_add)
    assert np.array_equal(got_mul, reference_mul(ctx, a, b))
    assert np.array_equal(got_mul, want_mul)
    assert np.array_equal(got_sub, reference_add(ctx, a, neg_b))
    # scalar wrappers return plain ints equal to the vector ops
    for x, y in zip(*(arr.ravel().tolist() for arr in np.broadcast_arrays(a, b))):
        assert ctx.add(x, y) == oracle_add(x, y, p, width)
        assert ctx.mul(x, y) == oracle_mul(x, y, modulus, p)
        assert type(ctx.add(x, y)) is int and type(ctx.mul(x, y)) is int


def test_gather_arithmetic_full_gf289_grid():
    ctx = cached_field(17, 1)
    assert ctx.q2 > DENSE_TABLE_LIMIT
    a = np.arange(ctx.q2, dtype=np.int64)[:, None]
    b = np.arange(ctx.q2, dtype=np.int64)[None, :]
    assert np.array_equal(ctx.vadd(a, b), reference_add(ctx, a, b))
    assert np.array_equal(ctx.vmul(a, b), reference_mul(ctx, a, b))
    modulus = list(ctx.modulus)
    want_mul = oracle_grid(lambda x, y: oracle_mul(x, y, modulus, 17), a, b)
    assert np.array_equal(ctx.vmul(a, b), want_mul)
    powers = [reference_pow(ctx, ctx.generator, k) for k in range(ctx.q2 - 1)]
    assert ctx.exp_table.tolist() == powers
    assert ctx.log_table[0] == -1 and not ctx.exp_table.flags.writeable


# -- the dense flat-gather and XOR kernels against the oracle ------------------
# Every dense field from GF(4) to GF(256), plus GF(289) on the sparse path.
KERNEL_FIELDS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1)
]
KERNEL_SHAPES = {
    "scalar": ((), ()),
    "scalar-array": ((), (5,)),
    "1-D": ((7,), (7,)),
    "outer": ((6, 1), (1, 4)),
    "stacked": ((3, 4, 5), (4, 5)),
}


def as_kind(x, kind, q2):
    """Codes ``x`` (an int64 array, 0-d for a scalar) as the given input kind."""
    if kind == "list":
        return x.tolist()
    dtype = {"int64": np.int64, "code": code_dtype(q2), "uint16": np.uint16}[kind]
    return dtype(x) if x.ndim == 0 else x.astype(dtype)


@st.composite
def kernel_operands(draw):
    ctx = cached_field(*draw(st.sampled_from(KERNEL_FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    operands = []
    for shape in KERNEL_SHAPES[draw(st.sampled_from(sorted(KERNEL_SHAPES)))]:
        x = rng.integers(0, ctx.q2, size=shape)
        edge = rng.random(shape) < 0.3  # plant 0, 1 and the largest code
        x[edge] = rng.choice([0, 1, ctx.q2 - 1], size=int(edge.sum()))
        operands.append(np.asarray(x, dtype=np.int64))
    kinds = draw(st.tuples(*[st.sampled_from(["int64", "code", "uint16", "list"])] * 2))
    return ctx, *operands, kinds


@settings(max_examples=300, deadline=None)
@given(kernel_operands())
def test_vadd_vmul_match_polynomial_oracle_for_every_input_kind(case):
    ctx, a, b, (kind_a, kind_b) = case
    p, width, modulus = ctx.p, 2 * ctx.e, list(ctx.modulus)
    want_add = oracle_grid(lambda x, y: oracle_add(x, y, p, width), a, b)
    want_mul = oracle_grid(lambda x, y: oracle_mul(x, y, modulus, p), a, b)
    x, y = as_kind(a, kind_a, ctx.q2), as_kind(b, kind_b, ctx.q2)
    for got, want in ((ctx.vadd(x, y), want_add), (ctx.vmul(x, y), want_mul)):
        if want.ndim == 0:
            assert type(got) is np.int64 and got == want
        else:
            assert type(got) is np.ndarray and got.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("p,e", [(p, e) for p, e in KERNEL_FIELDS if p ** (2 * e) <= 256])
def test_dense_kernels_on_the_full_grid(p, e):
    """Every pair, up to flat index q2^2 - 1 (65,535 in GF(256)), against the
    digit-loop add and the log/exp multiply with a zero test."""
    ctx = cached_field(p, e)
    assert ctx._mul_t is not None and (ctx._add_t is None) == (p == 2)
    a = np.arange(ctx.q2, dtype=np.int64)[:, None]
    b = np.arange(ctx.q2, dtype=np.int64)[None, :]
    assert np.array_equal(ctx.vadd(a, b), reference_add(ctx, a, b))
    assert np.array_equal(ctx.vmul(a, b), reference_mul(ctx, a, b))


# -- check_norm_trace_maps against its former scalar loop ---------------------


def reference_check_norm_trace_maps(ctx):
    """The scalar-loop body of verify.check_norm_trace_maps before it ran on
    the q^2 x q^2 grid; returns (passed, detail)."""
    q, q2 = ctx.q, ctx.q2
    codes = np.arange(q2, dtype=np.int64)
    norm_ab = np.array([[ctx.norm(ctx.mul(a, b)) for b in range(q2)] for a in range(q2)])
    norm_a_norm_b = np.array(
        [[ctx.mul(ctx.norm(a), ctx.norm(b)) for b in range(q2)] for a in range(q2)]
    )
    multiplicative = np.array_equal(norm_ab, norm_a_norm_b)
    fixed = tuple(int(a) for a in codes if ctx.frob(a) == a) == ctx.base_embed
    involution = all(ctx.frob(ctx.frob(a)) == a for a in range(q2))
    norms = [ctx.norm(a) for a in range(1, q2)]
    fibers_norm = {b: norms.count(b) for b in set(norms)}
    norm_ok = set(fibers_norm) == set(ctx.base_embed) - {0} and all(
        v == q + 1 for v in fibers_norm.values()
    )
    traces = [ctx.trace(a) for a in range(q2)]
    fibers_trace = {b: traces.count(b) for b in set(traces)}
    trace_ok = set(fibers_trace) == set(ctx.base_embed) and all(
        v == q for v in fibers_trace.values()
    )
    additive = all(
        ctx.trace(ctx.add(a, b)) == ctx.add(ctx.trace(a), ctx.trace(b))
        for a in range(q2)
        for b in range(q2)
    )
    ok = multiplicative and fixed and involution and norm_ok and trace_ok and additive
    detail = (
        f"norm fibers {q + 1} onto GF({q})*, trace fibers {q} onto GF({q}), "
        "conjugation involutive with fixed field GF(q)"
    )
    return bool(ok), detail


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (17, 1), (5, 2)])
def test_norm_trace_check_matches_scalar_reference(p, e):
    ctx = cached_field(p, e)
    result = check_norm_trace_maps(ctx)
    assert result.name == "norm_trace_maps" and result.passed
    assert (result.passed, result.detail) == reference_check_norm_trace_maps(ctx)


def with_corrupted_entry(ctx, table, code):
    """Shallow copy of ctx whose ``table`` maps ``code`` to another element
    of GF(q) (so only fiber counts and the algebraic laws can catch it)."""
    bad = copy.copy(ctx)
    values = getattr(ctx, table).copy()
    values[code] = next(b for b in ctx.base_embed if b != values[code])
    setattr(bad, table, values)
    return bad


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (17, 1)])
@pytest.mark.parametrize("table", ["_norm_t", "_trace_t"])
def test_norm_trace_check_catches_a_corrupted_entry(p, e, table):
    ctx = cached_field(p, e)
    bad = with_corrupted_entry(ctx, table, ctx.q2 - 1)
    assert not check_norm_trace_maps(bad).passed
    assert not reference_check_norm_trace_maps(bad)[0]
    assert check_norm_trace_maps(ctx).passed  # the original is untouched


# -- check_field_axioms against its former per-a loop ------------------------


def reference_check_field_axioms(ctx):
    """The body of verify.check_field_axioms before it read dense product and
    sum tables: one vmul/vadd pass over GF(q^2)^2 per a; returns
    (passed, detail)."""
    q2 = ctx.q2
    codes = np.arange(q2, dtype=np.int64)
    b = codes[:, None]
    c = codes[None, :]
    ok = True
    for a in range(q2):
        ok &= bool(np.array_equal(ctx.vmul(ctx.vmul(a, b), c), ctx.vmul(a, ctx.vmul(b, c))))
        ok &= bool(np.array_equal(ctx.vadd(ctx.vadd(a, b), c), ctx.vadd(a, ctx.vadd(b, c))))
        ok &= bool(
            np.array_equal(ctx.vmul(a, ctx.vadd(b, c)), ctx.vadd(ctx.vmul(a, b), ctx.vmul(a, c)))
        )
        if not ok:
            break
    ok &= bool(np.array_equal(ctx.vmul(b, c), ctx.vmul(c, b)))
    ok &= bool(np.array_equal(ctx.vadd(b, c), ctx.vadd(c, b)))
    ok &= all(ctx.add(a, ctx.neg(a)) == 0 for a in range(q2))
    ok &= all(ctx.mul(a, ctx.inv(a)) == 1 for a in range(1, q2))
    ok &= all(ctx.mul(1, a) == a and ctx.add(0, a) == a for a in range(q2))
    return bool(ok), f"exhaustive over GF({q2})^3"


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (17, 1)])
def test_field_axioms_check_matches_reference(p, e):
    ctx = cached_field(p, e)
    result = check_field_axioms(ctx)
    assert result.name == "field_axioms" and result.passed
    assert (result.passed, result.detail) == reference_check_field_axioms(ctx)


def with_corrupted_law(ctx, op):
    """Shallow copy of ctx whose ``op`` ("mul" or "add") gives a wrong value
    on one unordered pair {x, y} (both orders), chosen so that the identity,
    inverse and negation checks do not touch it and the operation stays
    commutative: only the three-variable laws can catch it."""
    bad = copy.copy(ctx)
    x = 2
    avoid = {0, 1, x, ctx.inv(x) if op == "mul" else ctx.neg(x)}
    y = next(y for y in range(ctx.q2) if y not in avoid)
    if op == "add" and ctx.p == 2:
        # XOR reads no table: wrap vadd so that it adds 1 (flips bit 0) to x + y.
        def vadd(a, b):
            a, b = np.asarray(a), np.asarray(b)
            pair = ((a == x) & (b == y)) | ((a == y) & (b == x))
            return ctx.vadd(a, b) ^ pair

        bad.vadd = vadd
    elif ctx._mul_t is not None:
        name = "_mul_t" if op == "mul" else "_add_t"
        table = getattr(ctx, name).copy()  # flat: entry a * q2 + b
        xy, yx = x * ctx.q2 + y, y * ctx.q2 + x
        table[xy] = table[yx] = ctx.add(int(table[xy]), 1)
        setattr(bad, name, table)
    elif op == "mul":
        # Every product whose logs sum to order + 5: not an inverse pair (sum
        # order) nor a product with 1 (sum below order).
        order = ctx.q2 - 1
        exp0 = ctx._exp0.copy()
        exp0[order + 5] = exp0[6]
        bad._exp0 = exp0
    else:
        # Every sum whose spread digit sums are (p + 3, 5): no a + 0 (digit
        # sums below p) and no a + (-a) (digit sums 0 or p).
        (spread, unspread), *rest = ctx._spread_t
        base = 2 * ctx.p - 1
        unspread = unspread.copy()
        unspread[ctx.p + 3 + 5 * base] = unspread[ctx.p + 4 + 5 * base]
        bad._spread_t = [(spread, unspread), *rest]
    return bad


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (17, 1)])
@pytest.mark.parametrize("op", ["mul", "add"])
def test_field_axioms_check_catches_a_corrupted_entry(p, e, op):
    ctx = cached_field(p, e)
    bad = with_corrupted_law(ctx, op)
    vop = bad.vmul if op == "mul" else bad.vadd
    grid = vop(np.arange(ctx.q2)[:, None], np.arange(ctx.q2)[None, :])
    assert np.array_equal(grid, grid.T)
    assert not check_field_axioms(bad).passed
    assert not reference_check_field_axioms(bad)[0]
    assert check_field_axioms(ctx).passed  # the original is untouched


# -- the generator-reduced field-axiom check on arbitrary tables -------------


class TableField:
    """Just what check_field_axioms and reference_check_field_axioms read,
    over given product and sum tables and negation and inverse maps: the
    two checks see nothing of a real field but these four arrays."""

    def __init__(self, mul, add, neg, inv):
        self.q2 = len(mul)
        self._mul, self._add, self._neg, self._inv = mul, add, neg, inv

    def vmul(self, a, b):
        return self._mul[a, b]

    def vadd(self, a, b):
        return self._add[a, b]

    def vneg(self, a):
        return self._neg[a]

    def vinv(self, a):
        return self._inv[a]

    def mul(self, a, b):
        return int(self._mul[a, b])

    def add(self, a, b):
        return int(self._add[a, b])

    def neg(self, a):
        return int(self._neg[a])

    def inv(self, a):
        return int(self._inv[a])


def field_tables(ctx, perm=None):
    """(mul, add, neg, inv) of ctx, relabelled by the code permutation perm
    (new code perm[a] for old code a) when it is given."""
    codes = np.arange(ctx.q2)
    mul = ctx.vmul(codes[:, None], codes[None, :])
    add = ctx.vadd(codes[:, None], codes[None, :])
    neg = ctx.vneg(codes)
    inv = np.concatenate([[0], ctx.vinv(codes[1:])])
    if perm is None:
        return mul, add, neg, inv
    back = np.argsort(perm)  # old code of each new code
    return (
        perm[mul[np.ix_(back, back)]],
        perm[add[np.ix_(back, back)]],
        perm[neg[back]],
        perm[inv[back]],
    )


def closure(table, seeds):
    """C <- C u T[C x C] until C stops growing (full rounds, no frontier)."""
    inside = np.asarray(sorted(set(seeds)), dtype=np.int64)
    while True:
        grown = np.union1d(inside, table[np.ix_(inside, inside)].ravel())
        if len(grown) == len(inside):
            return set(inside.tolist())
        inside = grown


def brute_associative(table):
    x = np.arange(len(table))
    left = table[table[:, :, None], x[None, None, :]]  # (x*y)*z at [x, y, z]
    right = table[x[:, None, None], table[None, :, :]]  # x*(y*z)
    return bool((left == right).all())


def brute_distributive(mul, add):
    a = np.arange(len(mul))[:, None, None]
    b = np.arange(len(mul))[None, :, None]
    c = np.arange(len(mul))[None, None, :]
    return bool((mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all())


AXIOM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]  # GF(4) .. GF(49)


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(AXIOM_FIELDS),
    seed=st.integers(0, 2**32 - 1),
    relabel=st.booleans(),
    corruptions=st.lists(
        st.tuples(
            st.sampled_from(["mul", "add"]),
            st.integers(0, 2**16),
            st.integers(0, 2**16),
            st.integers(0, 2**16),
            st.booleans(),
        ),
        max_size=2,
    ),
)
@example(field=(3, 1), seed=0, relabel=True, corruptions=[])
@example(field=(2, 2), seed=1, relabel=True, corruptions=[])
@example(field=(7, 1), seed=0, relabel=False, corruptions=[("mul", 2, 3, 0, True)])
def test_field_axioms_check_matches_reference_on_corrupted_tables(
    field, seed, relabel, corruptions
):
    ctx = cached_field(*field)
    q2 = ctx.q2
    # Relabel codes 2 .. q2 - 1 (0 and 1 keep their meaning).
    perm = np.concatenate([[0, 1], 2 + np.random.default_rng(seed).permutation(q2 - 2)])
    mul, add, neg, inv = field_tables(ctx, perm if relabel else None)
    tables = {"mul": mul.copy(), "add": add.copy()}
    for op, x, y, shift, symmetric in corruptions:
        x, y = x % q2, y % q2
        table = tables[op]
        table[x, y] = (table[x, y] + 1 + shift % (q2 - 1)) % q2  # a different code
        if symmetric:
            table[y, x] = table[x, y]
    bad = TableField(tables["mul"], tables["add"], neg, inv)
    assert check_field_axioms(bad).passed == reference_check_field_axioms(bad)[0]


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (17, 1)])
@pytest.mark.parametrize("op", [None, "mul", "add"])
def test_field_checks_match_reference_in_row_blocks(monkeypatch, p, e, op):
    """Three rows per block, the last block short: the blocked reads of all
    pairs give the reference verdicts, on a field and on a law corrupted in
    its last two rows."""
    ctx = cached_field(p, e)
    q2 = ctx.q2
    mul, add, neg, inv = field_tables(ctx)
    tables = {"mul": mul.copy(), "add": add.copy()}
    if op:
        x, y = q2 - 1, q2 - 2
        tables[op][x, y] = tables[op][y, x] = (tables[op][x, y] + 1) % q2
    field = TableField(tables["mul"], tables["add"], neg, inv)
    monkeypatch.setattr(verify, "CHUNK_ELEMS", 3 * q2 + 1)
    assert len(list(verify._row_blocks(q2))) == -(-q2 // 3)
    assert check_field_axioms(field).passed == reference_check_field_axioms(field)[0]
    assert check_field_axioms(field).passed == (op is None)
    assert check_norm_trace_maps(ctx).passed
    for table in ("_norm_t", "_trace_t"):
        bad = with_corrupted_entry(ctx, table, q2 - 1)
        assert check_norm_trace_maps(bad).passed == reference_check_norm_trace_maps(bad)[0]


def law_verdicts(mul, add):
    """(mul associative, add associative, distributive, mul commutative, add
    commutative) from the law helpers, over each table's generators."""
    add_gens = verify._generators(add)
    return (
        verify._associative(mul, verify._generators(mul)),
        verify._associative(add, add_gens),
        verify._distributive(mul, add, add_gens),
        verify._symmetric(mul),
        verify._symmetric(add),
    )


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])  # GF(16), GF(81)
@pytest.mark.parametrize("op,where", [(None, None), ("mul", 0), ("mul", -1), ("add", 0), ("add", -1)])
def test_field_laws_compare_one_row_block_at_a_time(monkeypatch, p, e, op, where):
    """Split into three row blocks, the code-dtype tables get the unsplit
    verdicts: sound tables pass, and one entry corrupted in the first or the
    last block fails its commutativity and associativity laws and
    distributivity."""
    ctx = cached_field(p, e)
    q2 = ctx.q2
    mul, add = (t.astype(code_dtype(q2)) for t in field_tables(ctx)[:2])
    tables = {"mul": mul, "add": add}
    if op:
        x = 2 if where == 0 else q2 - 1
        tables[op][x, x - 1] = (tables[op][x, x - 1] + 1) % q2
    whole = law_verdicts(mul, add)
    monkeypatch.setattr(verify, "CHUNK_ELEMS", q2 * -(-q2 // 3))
    blocks = list(verify._row_blocks(q2))
    assert len(blocks) == 3
    if op:
        assert x in range(q2)[blocks[where]]
    assert law_verdicts(mul, add) == whole
    if op is None:
        assert all(whole)
    else:
        assert not whole[op == "add"] and not whole[2] and not whole[3 + (op == "add")]


def left_projection(q2):
    return np.broadcast_to(np.arange(q2)[:, None], (q2, q2)).copy()


DEGENERATE = {
    "left_projection": left_projection,
    "constant_zero": lambda q2: np.zeros((q2, q2), dtype=np.int64),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_magmas_make_every_code_a_generator(name):
    """x*y = x and x*y = 0 generate nothing beyond their seeds, so every
    code is a generator and Light's test scans every triple.  This is
    tested on the helpers: check_field_axioms rejects either table before
    it picks generators (x*y = x is not commutative, x*y = 0 has no
    identity), and its verdict on corrupted tables is covered above."""
    table = DEGENERATE[name](cached_field(3, 1).q2)
    assert verify._generators(table) == list(range(len(table)))
    assert verify._associative(table, verify._generators(table)) and brute_associative(table)


def generator_cases():
    cases = []
    for p, e in [(3, 1), (2, 2), (17, 1)]:
        mul, add, _, _ = field_tables(cached_field(p, e))
        name = f"GF({p}^{2 * e})"
        cases += [pytest.param(mul, id=f"{name}-mul"), pytest.param(add, id=f"{name}-add")]
    cases += [pytest.param(build(9), id=name) for name, build in sorted(DEGENERATE.items())]
    rng = np.random.default_rng(13)
    cases += [
        pytest.param(rng.integers(0, size, size=(size, size)), id=f"random-{size}")
        for size in (2, 3, 5, 8)
    ]
    minus = (np.arange(7)[:, None] - np.arange(7)[None, :]) % 7
    return cases + [pytest.param(minus, id="subtraction-mod-7")]


@pytest.mark.parametrize("table", generator_cases())
def test_generators_are_minimal_in_order_and_generate_everything(table):
    gens = verify._generators(table)
    assert gens[:1] == [0]
    prefix = [closure(table, gens[:i]) for i in range(len(gens) + 1)]
    assert prefix[-1] == set(range(len(table)))
    for i, (g, after) in enumerate(zip(gens, gens[1:] + [len(table)])):
        assert g not in prefix[i]
        assert set(range(g + 1, after)) <= prefix[i + 1]  # skipped: already generated


@pytest.mark.parametrize("table", generator_cases())
def test_generators_match_with_one_newest_member_per_block(monkeypatch, table):
    # CHUNK_ELEMS = 1: each closure round reads one newest member's products
    # at a time, and the generators stay those of the whole-round reads
    whole = verify._generators(table)
    monkeypatch.setattr(verify, "CHUNK_ELEMS", 1)
    assert verify._generators(table) == whole


@pytest.mark.parametrize("op", ["vmul", "vadd"])
def test_generators_read_only_the_closure_blocks(op):
    # GF(1024): a closure round reads the |new| x |have| block of the
    # 1024 x 1024 table, about 1.1 MiB traced; copying whole rows first
    # (table[have][:, new]) peaked at 3.0 MiB
    ctx = make_field(2, 5)
    _, table = verify._code_table(ctx.q2, getattr(ctx, op))
    tracemalloc.start()
    try:
        gens = verify._generators(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gens == ([0, 1, 2] if op == "vmul" else [0] + [2**i for i in range(10)])
    assert peak < 2 * 2**20


def small_magma(kind, size, rng):
    """A random table, or a relabelled associative one: the semilattice
    x*y = max(x, y) or the cyclic group Z/size."""
    x = np.arange(size)
    if kind == "random":
        return rng.integers(0, size, size=(size, size))
    law = np.maximum(x[:, None], x[None, :]) if kind == "max" else (x[:, None] + x[None, :]) % size
    perm = rng.permutation(size)
    back = np.argsort(perm)
    return perm[law[np.ix_(back, back)]]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["random", "max", "cyclic"]),
    size=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_light_associativity_test_is_exact_on_any_magma(kind, size, seed):
    table = small_magma(kind, size, np.random.default_rng(seed))
    gens = verify._generators(table)
    assert verify._associative(table, gens) == brute_associative(table)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_distributivity_over_additive_generators_is_exact(size, seed):
    """With an associative + (Z/size relabelled), a * over a random table
    distributes on generators exactly when it does on all triples."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(size)
    back = np.argsort(perm)
    add = perm[(back[:, None] + back[None, :]) % size]
    mul = rng.integers(0, size, size=(size, size))
    if seed % 2:  # a distributive one: a*b = k_a * b in Z/size, relabelled
        k = rng.integers(0, size, size=size)
        mul = perm[(k[back][:, None] * back[None, :]) % size]
    gens = verify._generators(add)
    assert verify._distributive(mul, add, gens) == brute_distributive(mul, add)


def test_distributivity_waits_for_additive_associativity(monkeypatch):
    """The distributivity reduction is exact only for an associative +, so a
    check whose + fails associativity must not run it."""
    calls = []
    real = verify._distributive

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_distributive", spy)
    ctx = cached_field(2, 2)
    assert check_field_axioms(ctx).passed and len(calls) == 1
    bad = with_corrupted_law(ctx, "add")
    assert not check_field_axioms(bad).passed and len(calls) == 1


def test_gf4_hand_tables(gf4):
    # codes: 0, 1, w = 2, w^2 = 3 with w^2 + w + 1 = 0
    assert gf4.generator == 2
    assert gf4.mul(2, 2) == 3 and gf4.mul(2, 3) == 1 and gf4.mul(3, 3) == 2
    assert gf4.add(2, 3) == 1
    assert [gf4.frob(a) for a in range(4)] == [0, 1, 3, 2]
    assert [gf4.norm(a) for a in range(4)] == [0, 1, 1, 1]
    assert [gf4.trace(a) for a in range(4)] == [0, 0, 1, 1]
    assert gf4.base_embed == (0, 1)
    assert (gf4.frob(0), gf4.norm(0), gf4.trace(0)) == (0, 0, 0)
    assert (gf4.frob(2), gf4.norm(2), gf4.trace(2)) == (3, 1, 1)  # w -> (w^2, w^3 = 1, w + w^2 = 1)


def test_gf9_hand_tables(gf9):
    # codes a + 3b for a + b*x with x^2 = -1
    assert gf9.mul(3, 3) == 2  # x * x = -1
    assert gf9.inv(2) == 2
    assert gf9.add(4, 5) == 6  # (1+x) + (2+x) = 2x
    assert gf9.trace(3) == 0 and gf9.trace(1) == 2 and gf9.trace(4) == 2
    assert gf9.base_embed == (0, 1, 2)
    assert gf9.generator == 4  # 1 + x has multiplicative order 8


def test_gf16_subfield(gf16):
    assert gf16.q == 4 and gf16.q2 == 16
    assert gf16.base_embed == (0, 1, 6, 7)
    # norm maps GF(16)* onto GF(4)* with fibers of size q + 1 = 5
    norms = [gf16.norm(a) for a in range(1, 16)]
    assert set(norms) == set(gf16.base_embed) - {0}
    assert all(norms.count(b) == 5 for b in set(norms))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_inverses_and_pow(p, e):
    ctx = make_field(p, e)
    for a in range(ctx.q2):
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, ctx.q2 - 1) == 1
            assert ctx.pow(a, -1) == ctx.inv(a)
        acc = 1
        for k in range(5):
            assert ctx.pow(a, k) == acc
            acc = ctx.mul(acc, a)
    nonzero = np.arange(1, ctx.q2)
    assert ctx.vinv(nonzero).tolist() == [ctx.inv(int(a)) for a in nonzero]
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.vinv(np.arange(ctx.q2))
    with pytest.raises(ZeroDivisionError):
        ctx.div(1, 0)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_conjugation_properties(p, e):
    ctx = make_field(p, e)
    fixed = tuple(a for a in range(ctx.q2) if ctx.frob(a) == a)
    assert fixed == ctx.base_embed
    assert len(fixed) == ctx.q
    for a in range(ctx.q2):
        assert ctx.frob(ctx.frob(a)) == a
        assert ctx.in_base_field(ctx.norm(a))
        assert ctx.in_base_field(ctx.trace(a))
        for b in range(ctx.q2):
            assert ctx.norm(ctx.mul(a, b)) == ctx.mul(ctx.norm(a), ctx.norm(b))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_preimage_solvers_exhaustive(p, e):
    ctx = make_field(p, e)
    q = ctx.q
    for b in ctx.base_embed:
        if b:
            sols = [a for a in range(1, ctx.q2) if ctx.norm(a) == b]
            assert len(sols) == q + 1
            assert ctx.norm_preimage(b) == min(sols)
        sols = [a for a in range(ctx.q2) if ctx.trace(a) == b]
        assert len(sols) == q
        assert ctx.trace_preimage(b) == min(sols)


# -- table-read helpers against their former loops -----------------------------

LOOP_FIELDS = [cached_field(2, 1), cached_field(3, 1), cached_field(17, 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(LOOP_FIELDS),
    st.data(),
    st.integers(-40, 40) | st.integers(-(10**30), 10**30),
)
def test_pow_matches_square_and_multiply(ctx, data, k):
    a = data.draw(st.integers(0, ctx.q2 - 1) | st.sampled_from([0, 1, ctx.generator]))
    if a == 0 and k < 0:
        with pytest.raises(ZeroDivisionError):
            ctx.pow(a, k)
        with pytest.raises(ZeroDivisionError):
            reference_pow(ctx, a, k)
        return
    got = ctx.pow(a, k)
    assert type(got) is int and got == reference_pow(ctx, a, k)


@pytest.mark.parametrize("ctx", LOOP_FIELDS, ids=lambda ctx: f"GF({ctx.q2})")
def test_preimage_solvers_match_former_loops_on_every_code(ctx):
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 3) == 0
    for b in range(-1, ctx.q2 + 1):
        for solver, reference in (
            (ctx.norm_preimage, reference_norm_preimage),
            (ctx.trace_preimage, reference_trace_preimage),
        ):
            try:
                want = reference(ctx, b)
            except ValueError:
                with pytest.raises(ValueError):
                    solver(b)
                continue
            got = solver(b)
            assert type(got) is int and got == want
    # the vector solver: every b of GF(q)* at once, in any shape
    units = np.array([b for b in ctx.base_embed if b])
    want = [reference_norm_preimage(ctx, int(b)) for b in units]
    assert ctx.vnorm_preimage(units).tolist() == want
    assert ctx.vnorm_preimage(np.stack([units, units])).tolist() == [want, want]
    for bad in (0, ctx.q2, next(b for b in range(ctx.q2) if b not in ctx.base_embed)):
        with pytest.raises(ValueError):
            ctx.vnorm_preimage(np.append(units, bad))


@settings(max_examples=300, deadline=None)
@given(st.integers(-5, 2000) | st.integers(2000, 10**7))
def test_is_prime_matches_trial_division(n):
    got = is_prime(n)
    assert type(got) is bool and got == reference_is_prime(n)


def test_preimage_examples(gf4, gf9):
    assert gf4.norm_preimage(1) == 1
    assert gf4.trace_preimage(0) == 0
    assert gf4.trace_preimage(1) == 2  # w, the smaller of {w, w^2}
    assert gf9.norm_preimage(2) == 4  # (1+x)^4 = 2, smallest such code
    with pytest.raises(ValueError):
        gf4.norm_preimage(0)
    with pytest.raises(ValueError):
        gf4.norm_preimage(2)  # w is not in GF(2)
    with pytest.raises(ValueError):
        gf9.trace_preimage(3)  # x is not in GF(3)


def test_vectorized_matches_scalar(gf9):
    codes = np.arange(gf9.q2)
    a, b = np.meshgrid(codes, codes, indexing="ij")
    vm = gf9.vmul(a, b)
    va = gf9.vadd(a, b)
    for i in range(gf9.q2):
        for j in range(gf9.q2):
            assert vm[i, j] == gf9.mul(i, j)
            assert va[i, j] == gf9.add(i, j)
    assert np.array_equal(gf9.vfrob(codes), np.array([gf9.frob(int(c)) for c in codes]))


def test_field_suite_refuses_past_the_point_budget(monkeypatch):
    # the axiom check reads all q^4 ordered pairs; no check may start past the budget
    def unreachable(ctx):
        raise AssertionError(f"a field check ran on GF({ctx.q2})")

    for name in ("check_field_axioms", "check_norm_trace_maps", "check_preimage_solvers"):
        monkeypatch.setattr(verify, name, unreachable)
    for p, e in ((3, 5), (67, 1)):  # q^4 = 59049^2 and 4489^2 > POINT_BUDGET
        with pytest.raises(BudgetExceededError, match="ordered pairs"):
            verify.run_suite("field", make_field(p, e))
    with pytest.raises(AssertionError, match="GF\\(4096\\)"):  # 4096^2 <= POINT_BUDGET
        verify.run_suite("field", make_field(2, 6))
