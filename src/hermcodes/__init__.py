"""Degenerate rank-n Hermitian varieties over GF(q^2), their functional
evaluation codes, and exhaustive verification of the intersection bounds
and extremal characterizations at desk scale."""

from .field import FieldCtx, make_field
from .projspace import (
    enumerate_hyperplanes,
    enumerate_points,
    line_through,
    pi_count,
)
from .hermitian import (
    HermitianVariety,
    canonical_congruence,
    count_points_formula,
    make_nondegenerate,
    make_standard_cone,
)
from .forms import (
    HomogeneousForm,
    MonomialBasis,
    intersection_count,
    monomial_basis,
    product_of_hyperplanes,
)
from .codes import (
    CodeParameters,
    FunctionalCode,
    build_code,
    code_dimension,
    min_distance,
    theoretical_parameters,
    weight_distribution,
)
from .bounds import (
    BoundValue,
    ExtremalWitness,
    bruteforce_max_intersection,
    check_union_of_cone_lines,
    cone_bound,
    conjectured_max_intersection,
    construct_extremal_form,
    is_cone_with_vertex,
    known_max_intersection,
    merge_oracle_results,
    plane_cone_bound,
    serre_bound,
    sorensen_max,
)
from .limits import BudgetExceededError

__version__ = "0.1.0"
