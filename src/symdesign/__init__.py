"""symdesign: exact design orders of random circuits built from local symmetric gates.

The central quantity is the largest ``t`` such that the uniform distribution
over the group generated by ``k``-local symmetry-respecting gates on ``n``
sites reproduces the first ``t`` moments of the uniform distribution over all
symmetric unitaries.  It equals half the minimum multiplicity-weighted
one-norm over the integer kernel lattice of an exact charge matrix, minus one
(or infinity when that kernel is trivial).  Everything is exact
integer/rational arithmetic, the verification oracle included: no floating
point is used anywhere but in the wall-clock ``ms`` the command line prints,
and the package has no dependencies.
"""

from .infinity import INFINITE, is_finite
from .groups import (
    CUSTOM,
    GroupSpec,
    HammingWeight,
    PartitionId,
    Residue,
    SectorTable,
    TwiceSpin,
    U1,
    SU2,
    canonical_order,
    custom_table,
    sectors,
    semiuniversal_min_locality,
    sud,
    su2_multiplicity,
    zp,
)
from .charges import (
    ChargeMatrix,
    CycleType,
    T_GROUP_CLASSES,
    charge_matrix,
    conjugacy_classes,
    custom_matrix,
    load_custom_problem,
    sn_character,
)
from .intlinalg import rank_exact
from .solver import (
    Certificate,
    LowerBoundResult,
    SemiUniversalityError,
    TmaxResult,
    compute_tmax,
    lower_bound,
    min_weighted_l1,
    tmax_exact,
    verify_certificate,
)
from .closedforms import (
    ClosedFormTmax,
    DiagOperator,
    binom_frac,
    binom_int,
    closed_tmax,
    su2_a_norm,
    su2_a_operator,
    su2_c_eigenvalue,
    su2_ctilde_eigenvalue,
    tr_a_c,
    tr_a_ctilde,
    tr_ctilde_sq,
    tr_f_c,
    u1_a_norm,
    u1_a_operator,
    u1_c_eigenvalue,
    u1_f_norm,
    u1_f_operator,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "is_finite",
    "GroupSpec",
    "U1",
    "SU2",
    "CUSTOM",
    "zp",
    "sud",
    "HammingWeight",
    "TwiceSpin",
    "Residue",
    "PartitionId",
    "SectorTable",
    "sectors",
    "canonical_order",
    "custom_table",
    "semiuniversal_min_locality",
    "su2_multiplicity",
    "ChargeMatrix",
    "CycleType",
    "T_GROUP_CLASSES",
    "charge_matrix",
    "conjugacy_classes",
    "custom_matrix",
    "load_custom_problem",
    "sn_character",
    "rank_exact",
    "Certificate",
    "TmaxResult",
    "LowerBoundResult",
    "SemiUniversalityError",
    "lower_bound",
    "tmax_exact",
    "min_weighted_l1",
    "verify_certificate",
    "compute_tmax",
    "ClosedFormTmax",
    "DiagOperator",
    "binom_int",
    "binom_frac",
    "closed_tmax",
    "u1_c_eigenvalue",
    "u1_f_operator",
    "u1_a_operator",
    "u1_f_norm",
    "u1_a_norm",
    "tr_f_c",
    "tr_a_c",
    "su2_c_eigenvalue",
    "su2_ctilde_eigenvalue",
    "su2_a_operator",
    "su2_a_norm",
    "tr_a_ctilde",
    "tr_ctilde_sq",
]
