"""Brute-force the maximum intersection of the rank-n cone with degree-d
hypersurfaces and inspect the maximizers' structure.

Every maximizer is a union of full generator lines through the vertex; for
n = 3 the whole zero set is itself a cone with the same vertex.
"""

from hermcodes import (
    HomogeneousForm,
    bruteforce_max_intersection,
    check_union_of_cone_lines,
    construct_extremal_form,
    is_cone_with_vertex,
    make_field,
    make_standard_cone,
    monomial_basis,
)
from hermcodes.bounds import oracle_bound

ctx = make_field(2, 1)

for n, d in ((2, 1), (2, 2), (3, 1), (3, 2)):
    cone = make_standard_cone(ctx, n)
    result = bruteforce_max_intersection(ctx, cone, n, d)
    bound = oracle_bound("cone", n, d, 2).value
    print(
        f"n={n}, d={d}: max = {result.max_count} over {result.total_forms} forms "
        f"(bound {bound}), {result.n_maximizers} maximizers"
    )
    basis = monomial_basis(n, d)
    form = HomogeneousForm(basis, result.maximizers[0])
    ok, lines = check_union_of_cone_lines(ctx, cone, form)
    print(f"  first maximizer: union of {lines} generator lines = {ok}", end="")
    if n == 3:
        print(f", cone with vertex = {is_cone_with_vertex(ctx, form, cone.vertex)}")
    else:
        print()

# a witness the size of the bound can also be written down directly
witness = construct_extremal_form(ctx, make_standard_cone(ctx, 4), 2)
print("\nconstructed witness for n=4, d=2:", witness.description)
print("attains", witness.predicted_count, "=", oracle_bound("cone", 4, 2, 2).value)
