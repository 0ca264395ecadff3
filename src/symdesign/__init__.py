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

``import symdesign`` loads no submodule.  Each name in ``__all__`` and each
submodule (``symdesign.solver`` and the rest) is imported on its first read
as an attribute of the package (PEP 562), and the name is then kept in the
package namespace, so a second read is a plain lookup.  ``from symdesign
import *`` therefore loads every submodule that exports a name.
"""

__version__ = "0.1.0"

# each submodule with the names it exports
_EXPORTS = {
    "infinity": ("INFINITE", "is_finite"),
    "groups": (
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
    ),
    "charges": (
        "ChargeMatrix",
        "CycleType",
        "T_GROUP_CLASSES",
        "charge_matrix",
        "conjugacy_classes",
        "custom_matrix",
        "load_custom_problem",
        "sn_character",
    ),
    "intlinalg": ("rank_exact",),
    "solver": (
        "Certificate",
        "TmaxResult",
        "LowerBoundResult",
        "SemiUniversalityError",
        "lower_bound",
        "tmax_exact",
        "min_weighted_l1",
        "verify_certificate",
        "compute_tmax",
    ),
    "closedforms": (
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
    ),
}
_SUBMODULES = frozenset((*_EXPORTS, "values", "checks", "cli"))
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def _submodule(name: str):
    """``symdesign.<name>``, imported as ``from . import <name>`` would, which binds it here too.

    ``__import__`` at level 1 is that relative import; ``importlib`` is not
    loaded for it.
    """
    return __import__(name, globals(), level=1)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_submodule(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
