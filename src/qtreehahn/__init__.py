"""Exact arithmetic for tree-indexed q-Hahn bases and their q-Racah
connection coefficients.

Everything is computed over the rationals: q is the square of a rational
in (0, 1), so half-integer q-powers stay exact, and every identity check
in the package is an equality of fractions.
"""

from .qnum import (
    QContext,
    ZeroDenominator,
    as_fraction,
    pochhammer,
    norm_splitting_identity_check,
    phi_sum,
    pochhammer_many,
    q_binomial,
    q_factorial,
    rational_sqrt,
)
from .lattice import (
    DimensionMismatch,
    GridFunction,
    IndexOutOfRange,
    ParamSet,
    composition_count,
    enumerate_compositions,
    inner_product,
    norm_squared,
    partial_sums,
    rank_of,
    weight,
)
from .qops import (
    EmptyDomain,
    InvalidSlice,
    apply_D,
    apply_D_at_vertex,
    apply_L,
    apply_R,
    check_identity,
    eigenvalue,
    kernel_basis,
    raise_chain,
    spectral_decomposition_check,
    verify_operator_algebra,
)
from .hahn1d import (
    Hahn1DSpec,
    NonSquareRadicand,
    Racah1DSpec,
    gr_hahn_bridge,
    gr_racah_bridge,
    hahn_eval,
    hahn_norm,
    hahn_row,
    hahn_via_phi2,
    hahn_via_raising,
    racah,
    racah_eval,
    vandermonde_sum_check,
    verify_hahn_recurrences,
)
from .trees import (
    MoveRecord,
    NonConsecutiveLeaves,
    NotRightReachable,
    ParseError,
    PlanarTree,
    RightChildIsLeaf,
    all_trees,
    canonical_path_to_left_comb,
    child_sums,
    coefficient_sums,
    enumerate_labelings,
    find_rl_path,
    left_comb,
    parse_tree,
    right_comb,
    rl_neighbors,
    transplant_right_to_left,
)
from .multihahn import (
    TreeBasisElement,
    basis,
    eval_Q,
    norm_Q,
    raise_basis_element,
    theta_labeling_to_preorder,
    theta_polynomial,
    vertex_eigenvalue,
    xi_norm,
    xi_polynomial,
)
from .connect import (
    ConnectionMatrix,
    NotInKernel,
    apply_move,
    comb_connection_product,
    connection_by_path,
    connection_oracle,
    dunkl_expansion_coeffs,
    gasper_rahman_racah,
    gr_conversion_factor,
    gr_correspondence_cases,
    gr_correspondence_check,
    gr_substitution,
    gr_weight_factor,
    kernel_interpolation_basis,
    one_move_coefficients,
    three_dim_racah_example_cases,
    three_dim_racah_example_check,
)

__version__ = "0.1.0"
