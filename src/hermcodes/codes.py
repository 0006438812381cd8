"""Evaluation codes on Hermitian varieties: generator matrices, exact
parameters at desk scale, and the closed-form parameters they must match.

The generator matrix has one row per degree-d monomial (graded-lex order)
and one column per rational point of the variety (canonical enumeration
order); entry (i, j) is monomial i evaluated at point j under the
last-nonzero-coordinate-1 normalization.  Codeword enumeration runs over
the projective message space, since Hamming weight is scalar-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import bounds
from .field import FieldCtx
from .forms import (
    HomogeneousForm,
    intersection_count,
    monomial_basis,
    monomial_values,
    projective_form_count,
)
from .hermitian import HermitianVariety, count_points_formula
from .limits import EVAL_BUDGET, check_count_digits
from .linalg import matrix_rank

__all__ = [
    "FunctionalCode",
    "CodeParameters",
    "TheoreticalParameters",
    "build_code",
    "code_dimension",
    "min_distance",
    "weight_distribution",
    "theoretical_parameters",
    "write_generator_matrix",
]

EXACT = "exact"
WITNESS_UPPER_BOUND_ONLY = "witness_upper_bound_only"


@dataclass(frozen=True)
class CodeParameters:
    m: int
    k: int
    dmin: int
    dmin_status: str  # EXACT or WITNESS_UPPER_BOUND_ONLY


class FunctionalCode:
    """An evaluation code C_d on a Hermitian variety."""

    def __init__(self, ctx: FieldCtx, variety: HermitianVariety, d: int):
        self.ctx = ctx
        self.variety = variety
        self.n = variety.n
        self.d = d
        self.basis = monomial_basis(self.n, d)
        self.points = variety.points
        self.generator = monomial_values(ctx, self.basis, self.points)
        self.generator.setflags(write=False)

    @property
    def m(self) -> int:
        return self.generator.shape[1]

    @property
    def n_rows(self) -> int:
        return self.generator.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"FunctionalCode(n={self.n}, d={self.d}, m={self.m}, rows={self.n_rows})"


def build_code(ctx: FieldCtx, variety: HermitianVariety, d: int) -> FunctionalCode:
    """Generator matrix of the degree-d evaluation code on the variety."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return FunctionalCode(ctx, variety, d)


def code_dimension(ctx: FieldCtx, code: FunctionalCode) -> int:
    """Row rank of the generator matrix over GF(q^2)."""
    return matrix_rank(ctx, code.generator)


def min_distance(
    ctx: FieldCtx,
    code: FunctionalCode,
    mode: str = "exhaustive_messages",
    witnesses: list[HomogeneousForm] | None = None,
    distribution: dict[int, int] | None = None,
) -> CodeParameters:
    """Minimum distance of the code: m minus the most zeros of a nonzero
    codeword.

    exhaustive_messages -- enumerate codewords up to scalar through the
        generator matrix at the default evaluation budget; exact.  A
        ``distribution`` already computed by :func:`weight_distribution`
        for this code (at any budget) is read instead of scanning again.
    witness_only -- evaluate the supplied extremal forms only; reports an
        upper bound with status WITNESS_UPPER_BOUND_ONLY.
    """
    m = code.m
    k = code_dimension(ctx, code)
    if mode == "exhaustive_messages":
        if distribution is None:
            distribution = weight_distribution(ctx, code)
        weights = [w for w in distribution if w > 0]
        return CodeParameters(m=m, k=k, dmin=min(weights, default=m + 1), dmin_status=EXACT)
    if mode == "witness_only":
        if not witnesses:
            raise ValueError("witness_only mode requires at least one witness form")
        weight = min(m - intersection_count(ctx, f, code.points) for f in witnesses)
        return CodeParameters(m=m, k=k, dmin=weight, dmin_status=WITNESS_UPPER_BOUND_ONLY)
    raise ValueError(f"unknown mode {mode!r}")


def weight_distribution(
    ctx: FieldCtx, code: FunctionalCode, budget: int = EVAL_BUDGET
) -> dict[int, int]:
    """Weight -> count over the nonzero codewords up to scalar; the counts
    sum to (q^2^rows - 1)/(q^2 - 1).  The scan evaluates every message
    class at every point, or, at d = 1 on the standard cone, at the points
    of its base (:func:`bounds.scan_summary`), and more than ``budget``
    such form evaluations are refused (BudgetExceededError)."""
    classes = projective_form_count(ctx.q2, code.n_rows)
    hist, _ = bounds.scan_summary(
        ctx, code.variety, code.basis, 0, classes, 0, budget, values=code.generator
    )
    # hist[z] counts the codewords with z zeros, i.e. of weight m - z.
    return {code.m - z: int(hist[z]) for z in range(code.m, -1, -1) if hist[z]}


@dataclass(frozen=True)
class TheoreticalParameters:
    """Closed-form code parameters; dmin is exact for n in {2, 3, 4}, a
    lower bound for n >= 5 when the base maximum is known, else None."""

    m: int
    k: int
    dmin: int | None
    dmin_kind: str  # "exact" | "lower_bound" | "unknown"
    provenance: str
    source: str


def theoretical_parameters(
    n: int, d: int, q: int, assume_conjecture: bool = False
) -> TheoreticalParameters:
    if n < 2:
        raise ValueError("theoretical parameters are defined for n >= 2")
    if d < 1 or d > q:
        raise ValueError(f"degree d = {d} outside the regime 1 <= d <= q = {q}")
    check_count_digits(q * q, n)
    m = count_points_formula(n, "rank_n_cone", q)
    k = comb(n + d, d)
    if n == 2:
        return TheoreticalParameters(
            m, k, q**3 - (d - 1) * q**2, "exact", "theorem", "plane-cone"
        )
    if n == 3:
        return TheoreticalParameters(
            m, k, q**2 * (q**3 - d * q - (d - 1)), "exact", "theorem", "cone-over-curve"
        )
    if n == 4:
        return TheoreticalParameters(
            m,
            k,
            q**7 - (d - 1) * q**3 * (q * q + q - 1),
            "exact",
            "theorem",
            "sorensen-cone",
        )
    bound = bounds.cone_bound(n, d, q, assume_conjecture=assume_conjecture)
    if bound.is_unknown:
        return TheoreticalParameters(m, k, None, "unknown", "unknown", bound.source)
    return TheoreticalParameters(
        m, k, m - bound.value, "lower_bound", bound.provenance, bound.source
    )


def write_generator_matrix(code: FunctionalCode, path) -> None:
    """Generator matrix file: header `n d p e modulus m k`, then one row of
    m space-separated element codes per monomial."""
    ctx = code.ctx
    k = code_dimension(ctx, code)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{code.n} {code.d} {ctx.p} {ctx.e} {ctx.modulus_token()} {code.m} {k}\n"
        )
        for row in code.generator:
            fh.write(" ".join(map(str, row.tolist())) + "\n")
