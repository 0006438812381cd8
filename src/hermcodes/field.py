"""Exact arithmetic in the tower GF(p) <= GF(q) <= GF(q^2), q = p^e.

Elements of GF(q^2) are integer codes in [0, q^2).  The element
``a_0 + a_1*x + ... + a_{2e-1}*x^(2e-1)`` of GF(p)[x]/(modulus) has code
``a_0 + a_1*p + ... + a_{2e-1}*p^(2e-1)``; code 0 is the zero element.
The modulus is the lexicographically smallest monic irreducible polynomial
of degree 2e over GF(p) (smallest integer code of its lower coefficients),
recorded on the context so that every element code is reproducible.

A :class:`FieldCtx` is immutable after construction and safe to share
between workers.  Scalar operations are methods (``add``, ``mul``, ``inv``,
``frob``, ``norm``, ``trace``, ...); the ``v``-prefixed variants operate on
numpy arrays of codes and broadcast, which is what the enumeration loops
use.  Every operation is a gather from tables built once per context, or
an XOR:

- Characteristic 2 adds by XOR of the codes, in every field size.
- q^2 <= 256 (``DENSE_TABLE_LIMIT``): the full q^2 x q^2 product table
  (and, for odd p, sum table) stored flat, so ``a * b`` is the one 1-D
  gather ``flat[a * q^2 + b]`` into a single index buffer.
- Larger fields multiply through a zero-sentinel log/antilog pair: the log
  of 0 is 2(q^2 - 1) and the antilog table holds the powers of the
  primitive element twice, then zeros, so ``a * b`` is
  ``antilog[log[a] + log[b]]`` with no modulus and no zero test.
- Larger fields of odd characteristic add by carry-free digit spreading:
  a code's base-p digits are re-read in base 2p - 1, where the digit sums
  of two operands cannot carry, and an unspread table maps each sum back to
  the code with digits (sum digit mod p).  The 2e digits are split evenly
  into as few groups as keep every unspread table within ``TABLE_LIMIT``
  entries; the sum is one lookup per group.
- Powers read the antilog table at log(a) * k mod (q^2 - 1).  The trace
  preimage is the first code whose trace table entry matches; the norm
  preimage is the smallest code among the q + 1 powers of the generator
  that share the norm.

The intermediate field GF(q) is not modelled separately: it is the fixed
set of the conjugation ``x -> x^q`` inside GF(q^2), exposed as the sorted
code tuple ``base_embed``.
"""

from __future__ import annotations

import numpy as np

from .limits import DENSE_TABLE_LIMIT, TABLE_LIMIT, BudgetExceededError

__all__ = ["FieldCtx", "make_field", "is_prime", "code_dtype"]


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def code_dtype(q2: int):
    """Narrowest unsigned dtype holding every element code of GF(q2)."""
    if q2 <= 1 << 8:
        return np.uint8
    if q2 <= 1 << 16:
        return np.uint16
    return np.uint32


def _prime_factors(n: int) -> list[int]:
    out = []
    i = 2
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            while n % i == 0:
                n //= i
        i += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(p) (coefficient lists, ascending, trimmed).
# Only used during context construction; everything afterwards is tables.
# ---------------------------------------------------------------------------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = a[:]
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - lead * fi) % p
        _trim(a)
        if not a:
            break
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, f, p)


def _poly_powmod(a: list[int], exp: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a[:], f, p)
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        exp >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        inv_lead = pow(b[-1], -1, p)
        bm = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: f monic of degree m is irreducible over GF(p) iff
    x^(p^m) = x mod f and gcd(x^(p^(m/r)) - x, f) = 1 for prime r | m."""
    m = len(f) - 1
    x = [0, 1]
    if _poly_powmod(x, p**m, f, p) != x:
        return False
    for r in _prime_factors(m):
        u = _poly_powmod(x, p ** (m // r), f, p)
        width = max(len(u), 2)
        uu = u + [0] * (width - len(u))
        xx = x + [0] * (width - 2)
        diff = _trim([(a - b) % p for a, b in zip(uu, xx)])
        if len(_poly_gcd(diff, f, p)) > 1:
            return False
    return True


def _digits(x, base: int, width: int) -> np.ndarray:
    """Base-``base`` digits of an integer array along a new last axis,
    least significant first."""
    return np.asarray(x)[..., None] // base ** np.arange(width, dtype=np.int64) % base


def _digit_groups(width: int, base: int, limit: int) -> list[tuple[int, int]]:
    """Split digit positions [0, width) into the fewest consecutive groups
    with base**(group width) <= limit, as evenly as possible (balanced groups
    keep every table small: GF(3^10) gets two 3,125-entry tables, not one of
    390,625 and one of 25)."""
    widest = 1
    while base ** (widest + 1) <= limit:
        widest += 1
    count = -(-width // widest)
    bounds = [width * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Monic irreducible of the given degree with smallest lower-coefficient
    code; returned as the full ascending coefficient tuple (monic)."""
    for code in range(p**degree):
        lower = [(code // p**i) % p for i in range(degree)]
        f = lower + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldCtx:
    """Immutable arithmetic context for GF(q) inside GF(q^2).

    Construct via :func:`make_field`.  Attributes:

    p, e, q, q2     -- characteristic, exponent, q = p^e, q2 = q^2
    modulus         -- ascending monic coefficient tuple of the modulus
    exp_table       -- powers of the primitive element, length q2 - 1
                       (a read-only view of the zero-sentinel antilog table)
    log_table       -- inverse of exp_table on nonzero codes (log[0] = -1)
    generator       -- code of the primitive element used by the tables
    base_embed      -- sorted tuple of the q codes fixed by x -> x^q

    Private tables, all read-only and indexed by codes: ``_add_t``/``_mul_t``
    (q2 x q2 flattened, entry a * q2 + b; only for q2 <= DENSE_TABLE_LIMIT,
    and ``_add_t`` only for odd p; else None), ``_log0``/``_exp0``
    (zero-sentinel log/antilog, log0[0] = 2(q2 - 1)), ``_spread_t`` (one
    (spread, unspread) pair per digit group for odd p, each unspread table
    at most TABLE_LIMIT entries), and the unary maps ``_neg_t``, ``_inv_t``,
    ``_frob_t``, ``_norm_t``, ``_trace_t``.
    """

    def __init__(self, p: int, e: int):
        # Trial division is cheap up to TABLE_LIMIT, and no larger p fits the
        # tables; p >= 2, so an e past the limit's bit length is over it too.
        if p < 2 or (p <= TABLE_LIMIT and not is_prime(p)):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("e must be a positive integer")
        if e > TABLE_LIMIT.bit_length() or p ** (2 * e) > TABLE_LIMIT:
            raise BudgetExceededError(
                f"q^2 = {p}^{2 * e} exceeds the table limit {TABLE_LIMIT}"
            )
        self.p = p
        self.e = e
        self.q = p**e
        self.q2 = self.q**2
        self.modulus = _smallest_irreducible(p, 2 * e)
        self._build_tables()

    # -- construction -------------------------------------------------------

    def _poly(self, a: int) -> list[int]:
        # The code's coefficient list over GF(p), ascending and trimmed.
        return _trim([(a // self.p**i) % self.p for i in range(2 * self.e)])

    def _code_mul(self, a: int, b: int) -> int:
        # Pre-table multiplication through polynomial arithmetic.
        prod = _poly_mulmod(self._poly(a), self._poly(b), list(self.modulus), self.p)
        return sum(c * self.p**i for i, c in enumerate(prod))

    def _find_generator(self) -> int:
        order, modulus = self.q2 - 1, list(self.modulus)
        checks = [order // r for r in _prime_factors(order)]
        for g in range(2, self.q2):
            if all(_poly_powmod(self._poly(g), c, modulus, self.p) != [1] for c in checks):
                return g
        raise AssertionError("no primitive element found")  # unreachable

    def _powers(self, order: int) -> np.ndarray:
        """g^0 .. g^(order-1) of the generator g, by doubling: the powers
        [2^j, 2^(j+1)) are the powers [0, 2^j) times g^(2^j).  Multiplying by
        a constant is GF(p)-linear on digit vectors, so each step is one
        product with the 2e x 2e matrix whose row i holds the digits of
        x^i * g^(2^j)."""
        p, width = self.p, 2 * self.e
        place = p ** np.arange(width, dtype=np.int64)
        exp = np.ones(1, dtype=np.int64)
        step = self.generator
        while len(exp) < order:
            matrix = _digits([self._code_mul(int(x), step) for x in place], p, width)
            head = _digits(exp[: order - len(exp)], p, width)
            exp = np.concatenate([exp, head @ matrix % p @ place])
            step = self._code_mul(step, step)
        return exp

    def _build_tables(self) -> None:
        p, q2 = self.p, self.q2
        order = q2 - 1
        self.generator = self._find_generator()
        exp = self._powers(order)
        log = np.full(q2, -1, dtype=np.int64)
        log[exp] = np.arange(order)
        # Zero-sentinel log/antilog: log0 + log0 of two nonzero codes stays
        # below 2 * order; a zero operand lands in the zero tail.
        self._exp0 = np.zeros(4 * order + 1, dtype=np.int64)
        self._exp0[: 2 * order] = np.tile(exp, 2)
        self._log0 = log.copy()
        self._log0[0] = 2 * order
        self.exp_table = self._exp0[:order]
        self.log_table = log

        codes = np.arange(q2, dtype=np.int64)
        width = 2 * self.e
        digits = _digits(codes, p, width)
        place = p ** np.arange(width, dtype=np.int64)
        self._neg_t = ((-digits) % p * place).sum(axis=-1)
        # (spread, unspread) per digit group; p = 2 adds by XOR instead.
        self._spread_t = []
        if p > 2:
            base = 2 * p - 1
            for lo, hi in _digit_groups(width, base, TABLE_LIMIT):
                size = hi - lo
                spread = (digits[:, lo:hi] * base ** np.arange(size, dtype=np.int64)).sum(axis=-1)
                sums = _digits(np.arange(base**size, dtype=np.int64), base, size)
                unspread = (sums % p * place[lo:hi]).sum(axis=-1)
                self._spread_t.append((spread, unspread))
        self._add_t = None
        self._mul_t = None

        nz = codes[1:]
        frob = np.zeros(q2, dtype=np.int64)
        frob[nz] = exp[(log[nz] * self.q) % order]
        self._frob_t = frob
        inv = np.zeros(q2, dtype=np.int64)
        inv[nz] = exp[(-log[nz]) % order]
        self._inv_t = inv
        norm = np.zeros(q2, dtype=np.int64)
        norm[nz] = exp[(log[nz] * (self.q + 1)) % order]
        self._norm_t = norm
        self._trace_t = self.vadd(codes, frob)

        if q2 <= DENSE_TABLE_LIMIT:
            if p > 2:
                self._add_t = self.vadd(codes[:, None], codes[None, :]).ravel()
            self._mul_t = self.vmul(codes[:, None], codes[None, :]).ravel()

        self.base_embed = tuple(int(c) for c in codes[frob == codes])
        self._base_set = frozenset(self.base_embed)
        tables = [self._exp0, self.exp_table, self.log_table, self._log0, self._frob_t,
                  self._inv_t, self._neg_t, self._norm_t, self._trace_t]
        tables += [t for pair in self._spread_t for t in pair]
        tables += [t for t in (self._add_t, self._mul_t) if t is not None]
        for t in tables:
            t.setflags(write=False)

    # -- vectorized operations on arrays of codes ---------------------------

    def check_codes(self, values, what: str = "code") -> None:
        """Raise ValueError unless every value is a code in [0, q2).  The
        dense ``vadd``/``vmul`` routes do not range-check, so inputs from
        outside the program pass through here first."""
        v = np.asarray(values)
        if v.size and (v.min() < 0 or v.max() >= self.q2):
            raise ValueError(f"{what} outside the codes [0, {self.q2}) of GF({self.q2})")

    def _gather(self, flat, a, b):
        # Codes lie in [0, q2), so a * q2 + b indexes the flat table exactly;
        # each output element is written after its own index is read.  b is
        # added in place when it fits, so no call holds two full-size index
        # arrays at once.
        idx = np.multiply(a, self.q2, dtype=np.int64)
        if idx.ndim and getattr(b, "shape", None) in (idx.shape, ()):
            idx += b
        else:
            idx = idx + b
        if idx.ndim == 0:
            return flat[idx]
        return flat.take(idx, out=idx, mode="wrap")

    def vadd(self, a, b):
        """Elementwise a + b over broadcast arrays (or scalars, lists) of
        codes, as int64.  Every code must lie in [0, q2): the dense route
        reads one flat table at a * q2 + b and does not range-check."""
        if self.p == 2:
            return np.bitwise_xor(a, b, dtype=np.int64)
        if self._add_t is not None:
            return self._gather(self._add_t, a, b)
        (spread, unspread), *rest = self._spread_t
        out = unspread[spread[a] + spread[b]]
        for spread, unspread in rest:
            out = out + unspread[spread[a] + spread[b]]
        return out

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vneg(self, a):
        return self._neg_t[a]

    def vmul(self, a, b):
        """Elementwise a * b over broadcast arrays (or scalars, lists) of
        codes, as int64.  Every code must lie in [0, q2): the dense route
        reads one flat table at a * q2 + b and does not range-check."""
        if self._mul_t is not None:
            return self._gather(self._mul_t, a, b)
        return self._exp0[self._log0[a] + self._log0[b]]

    def vinv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of zero")
        return self._inv_t[a]

    def vfrob(self, a):
        return self._frob_t[a]

    def vnorm(self, a):
        return self._norm_t[a]

    def vtrace(self, a):
        return self._trace_t[a]

    # -- scalar operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(a, b))

    def neg(self, a: int) -> int:
        return int(self._neg_t[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._inv_t[a])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return self.mul(a, int(self._inv_t[b]))

    def pow(self, a: int, k: int) -> int:
        """a^k for any integer k (negative only for nonzero a), read from the
        antilog table at log(a) * k mod (q^2 - 1); 0^0 = 1."""
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("inverse of zero")
            return int(k == 0)
        return int(self.exp_table[int(self.log_table[a]) * k % (self.q2 - 1)])

    def frob(self, a: int) -> int:
        """Conjugation a -> a^q, an involution fixing exactly GF(q)."""
        return int(self._frob_t[a])

    def norm(self, a: int) -> int:
        """Relative norm a -> a^(q+1); lands in GF(q)."""
        return int(self.vnorm(a))

    def trace(self, a: int) -> int:
        """Relative trace a -> a + a^q; lands in GF(q)."""
        return int(self.vtrace(a))

    def in_base_field(self, a: int) -> bool:
        return a in self._base_set

    # -- preimage solvers (smallest code) -----------------------------------

    def norm_preimage(self, b: int) -> int:
        """Smallest code lam with lam^(q+1) = b, for b in GF(q)*."""
        return int(self.vnorm_preimage(b))

    def vnorm_preimage(self, b):
        """Elementwise :meth:`norm_preimage` over an array of codes of
        GF(q)*.  b = g^(m(q+1)) has the q + 1 preimages g^(m + j(q-1)),
        j = 0 .. q, and the smallest of their codes is taken."""
        b = np.asarray(b, dtype=np.int64)
        if not ((b > 0) & (b < self.q2)).all() or (self._frob_t[b] != b).any():
            raise ValueError(f"norm preimage requires b in GF(q)*, got {b}")
        q = self.q
        logs = self.log_table[b][..., None] // (q + 1) + (q - 1) * np.arange(q + 1)
        return self.exp_table[logs % (self.q2 - 1)].min(axis=-1)

    def trace_preimage(self, b: int) -> int:
        """Smallest code lam with lam + lam^q = b, for b in GF(q)."""
        if not self.in_base_field(b):
            raise ValueError(f"trace preimage requires b in GF(q), got {b}")
        return int(np.argmax(self._trace_t == b))  # the trace is onto GF(q)

    # -- serialization ------------------------------------------------------

    def modulus_token(self) -> str:
        """Single-token modulus form for whitespace-separated file headers."""
        return ",".join(str(c) for c in self.modulus)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(GF({self.q}) < GF({self.q2}), modulus={self.modulus})"


def make_field(p: int, e: int) -> FieldCtx:
    """Build the arithmetic context for GF(p^e) inside GF(p^(2e)).

    Raises ValueError for non-prime p and BudgetExceededError when
    p^(2e) exceeds the table limit; a p above the limit is refused by its
    size, with no primality test.
    """
    return FieldCtx(p, e)
