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
    OutsidePositivityRegime,
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
    Racah1DSpec,
    hahn_eval,
    hahn_row,
    hahn_via_phi2,
    racah,
    racah_eval,
)
from .trees import (
    MoveRecord,
    NonConsecutiveLeaves,
    NotRightReachable,
    ParseError,
    PlanarTree,
    RightChildIsLeaf,
    all_trees,
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
    vertex_eigenvalue,
)
from .connect import (
    ConnectionMatrix,
    apply_move,
    connection_by_path,
    connection_oracle,
    one_move_coefficients,
)

__version__ = "0.1.0"

# The cross-checks against the classical families, exported from
# `classical` when one of them is first read.
_LAZY = (
    "NonSquareRadicand",
    "NotInKernel",
    "hahn_via_raising",
    "hahn_norm",
    "verify_hahn_recurrences",
    "vandermonde_sum_check",
    "gr_racah_bridge",
    "raise_basis_element",
    "xi_polynomial",
    "xi_norm",
    "theta_polynomial",
    "dunkl_expansion_coeffs",
    "kernel_interpolation_basis",
    "gasper_rahman_racah",
    "gr_substitution",
    "comb_connection_product",
    "gr_conversion_factor",
    "gr_weight_factor",
    "gr_correspondence_check",
    "gr_correspondence_cases",
    "three_dim_racah_example_check",
    "three_dim_racah_example_cases",
)

# Every public name bound above, the imported submodules among them, and
# then the lazy ones.
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        from . import classical

        value = getattr(classical, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
