"""Every line meets a nondegenerate Hermitian variety in 1, q+1, or q^2+1
rational points (tangent, secant, or contained).  Tally all lines."""

from collections import Counter

from hermcodes import make_field, make_nondegenerate
from hermcodes.hermitian import hermitian_form_values
from hermcodes.projspace import all_lines, enumerate_points

for p, n in ((2, 2), (2, 3), (3, 2)):
    ctx = make_field(p, 1)
    variety = make_nondegenerate(ctx, n)
    # each row of all_lines holds the indices of one line's q^2 + 1 points
    on = hermitian_form_values(ctx, variety.matrix, enumerate_points(ctx, n)) == 0
    tally = Counter(on[all_lines(ctx, n)].sum(axis=1).tolist())
    names = {1: "tangent", ctx.q + 1: "secant", ctx.q**2 + 1: "contained"}
    pretty = {names.get(k, k): v for k, v in sorted(tally.items())}
    print(f"q={ctx.q}, U_{n}: {pretty}")

# the plane curve (a unital) has one tangent per point and no lines on it;
# the surface U_3 carries (q^3+1)(q+1) full lines
