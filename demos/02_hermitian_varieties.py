"""Hermitian varieties: point counts, congruence reduction, and sections.

The rank-n variety in P^n is a cone over the nondegenerate variety one
dimension down; its point count is 1 + q^2 * |base|.
"""

from collections import Counter

import numpy as np

from hermcodes import (
    canonical_congruence,
    count_points_formula,
    make_field,
    make_nondegenerate,
    make_standard_cone,
)
from hermcodes.hermitian import congruence_transform, hyperplane_sections
from hermcodes.projspace import enumerate_hyperplanes

ctx = make_field(2, 1)

for n in (2, 3, 4):
    nondeg = make_nondegenerate(ctx, n)
    cone = make_standard_cone(ctx, n)
    print(
        f"n={n}: |U_{n}| = {len(nondeg.points)} "
        f"(formula {count_points_formula(n, 'nondegenerate', 2)}), "
        f"|cone| = {len(cone.points)} "
        f"(formula {count_points_formula(n, 'rank_n_cone', 2)}), "
        f"vertex {cone.vertex}"
    )

# congruence reduction: a Hermitian matrix with zero diagonal still reduces
# to diag(1, 1, 0), exposing its rank
h = np.array([[0, 2, 0], [3, 0, 0], [0, 0, 0]])
s, r = canonical_congruence(ctx, h)
print("\nzero-diagonal matrix reduces to:")
print(congruence_transform(ctx, h, s), "rank", r)

# hyperplane sections of the rank-3 cone: the base variety away from the
# vertex, cones over line sections through it
cone = make_standard_cone(ctx, 3)
_, counts, kinds = hyperplane_sections(ctx, cone, enumerate_hyperplanes(ctx, 3))
tally = dict(Counter(zip(kinds.tolist(), counts.tolist())))
print("\nsections of the rank-3 cone:", tally)
