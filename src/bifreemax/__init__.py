"""Bi-free extreme-value numerics on grid-represented distribution functions.

The public names are loaded from their submodule on first use (PEP 562), so
that ``python -m bifreemax.cli`` reaches the CLI module before numpy loads.
"""

from importlib import import_module

_EXPORTS = {
    "cdf": (
        "EPS_CDF",
        "AffineNormalization",
        "BivariateCDF",
        "CDFError",
        "CDFFormatError",
        "InvalidCDFError",
        "UnivariateCDF",
        "affine_transform",
        "ecdf_from_samples",
        "marginals",
        "merge_grids",
        "merge_uni_grids",
        "validate_bi",
        "validate_uni",
    ),
    "gridio": (
        "load_bi_json",
        "load_samples_tsv",
        "load_uni_json",
        "save_bi_json",
        "save_uni_json",
    ),
    "extremal": (
        "free_max_convolve",
        "free_min_convolve",
        "projection_join_trace",
        "projection_meet_trace",
    ),
    "biconv": (
        "NthRootResult",
        "PsiField",
        "bifree_max_convolve",
        "max_stable_residual",
        "nfold",
        "nth_root",
        "psi_ratio",
    ),
    "oracle": (
        "EPS_LIM",
        "InvalidLawError",
        "LimitConvergenceError",
        "ProjectionPairLaw",
        "atom_mass_limit",
        "bifree_sum_cauchy",
        "cauchy_from_atoms",
        "cauchy_pair",
        "cauchy_projection",
        "k_projection",
        "k_projection_excess",
        "projection_indicator_cdf",
        "reduced_r_transform",
        "wedge_moment_closed_form",
        "wedge_moment_expression",
        "wedge_moment_limit",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
