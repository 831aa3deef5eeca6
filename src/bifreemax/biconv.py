"""Bi-free max-convolution of bivariate distribution functions.

The convolution acts through the per-point ratio field

    psi(s, t) = F1(s) * F2(t) / F(s, t)

(with F1, F2 the marginals): the convolution of F and G has marginals
``(F_j + G_j - 1)_+`` and ratio field ``psi_F + psi_G - 1`` wherever the
defining positivity conditions hold, and vanishes elsewhere.  Because the
ratio field is affine under the convolution, n-fold powers and formula-level
n-th roots have exact closed forms.

Sentinel conventions in the ratio field: ``+inf`` where F = 0 but the
marginal product is positive, ``nan`` where both vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdf import (
    EPS_CDF,
    AffineNormalization,
    BivariateCDF,
    affine_transform,
    merge_grids,
    require_cells,
    require_valid_bi,
    validate_bi,
)


@dataclass(frozen=True)
class PsiField:
    """Marginal-product-to-joint ratio of a bivariate CDF on its grid."""

    x_breaks: np.ndarray
    y_breaks: np.ndarray
    values: np.ndarray  # +inf and nan sentinels allowed


def _psi_values(cdf: np.ndarray) -> np.ndarray:
    num = cdf[:, -1][:, None] * cdf[-1, :][None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = num / cdf
    psi = np.where((cdf == 0.0) & (num > 0.0), np.inf, psi)
    psi = np.where((cdf == 0.0) & (num == 0.0), np.nan, psi)
    return psi


def psi_ratio(F: BivariateCDF, eps: float = EPS_CDF) -> PsiField:
    """Ratio field F1*F2/F with +inf / nan sentinels at vanishing cells."""
    require_valid_bi(F, eps)
    return PsiField(F.x_breaks, F.y_breaks, _psi_values(F.cdf))


def bifree_max_convolve(F: BivariateCDF, G: BivariateCDF,
                        eps: float = EPS_CDF) -> BivariateCDF:
    """Bi-free max-convolution H of two bivariate distribution functions.

    The marginals of H are the univariate free max-convolutions of the
    input marginals; at every grid point where F > 0, G > 0 and both H
    marginals are positive,

        H = H1 * H2 / (psi_F + psi_G - 1),

    and H = 0 at every other grid point.
    """
    Fm, Gm = merge_grids(F, G, eps)
    f1, f2 = Fm.cdf[:, -1], Fm.cdf[-1, :]
    g1, g2 = Gm.cdf[:, -1], Gm.cdf[-1, :]
    h1 = np.maximum(0.0, f1 + g1 - 1.0)
    h2 = np.maximum(0.0, f2 + g2 - 1.0)
    psi_sum = _psi_values(Fm.cdf) + _psi_values(Gm.cdf) - 1.0
    active = ((Fm.cdf > 0.0) & (Gm.cdf > 0.0)
              & (h1[:, None] > 0.0) & (h2[None, :] > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = h1[:, None] * h2[None, :] / psi_sum
    return BivariateCDF(Fm.x_breaks, Fm.y_breaks,
                        np.where(active, cells, 0.0))


def nfold(F: BivariateCDF, n: int, eps: float = EPS_CDF) -> BivariateCDF:
    """n-fold bi-free max-convolution of F with itself.

    Computed through the closed form (marginals ``(n*F_j - (n-1))_+``,
    ratio field ``n*psi - (n-1)``) rather than n-1 pairwise convolutions,
    which is exact and avoids error accumulation; both paths agree.
    """
    require_valid_bi(F, eps)
    n = _check_fold_count(n)
    if n == 1:
        return F
    f1, f2 = F.cdf[:, -1], F.cdf[-1, :]
    h1 = np.maximum(0.0, n * f1 - (n - 1.0))
    h2 = np.maximum(0.0, n * f2 - (n - 1.0))
    psi_n = n * _psi_values(F.cdf) - (n - 1.0)
    active = np.isfinite(psi_n) & (h1[:, None] > 0.0) & (h2[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = h1[:, None] * h2[None, :] / psi_n
    return BivariateCDF(F.x_breaks, F.y_breaks, np.where(active, cells, 0.0))


def _check_fold_count(n) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class NthRootResult:
    """Formula-level n-th root candidate together with its validation report.

    ``violations`` is empty iff the candidate is a genuine distribution
    function; a non-empty list is a divisibility-failure report.
    """

    candidate: BivariateCDF
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def nth_root(F: BivariateCDF, n: int, eps: float = EPS_CDF) -> NthRootResult:
    """The unique ratio-affine n-th root candidate of F under the convolution.

    Marginals ``(F_j + n - 1)/n`` and ratio field ``(psi + n - 1)/n`` (the
    +inf sentinel propagates; cells where the ratio is 0/0-undefined take
    the independent value, i.e. ratio 1).  If the candidate is returned
    valid, its n-fold convolution recovers F.
    """
    require_valid_bi(F, eps)
    n = _check_fold_count(n)
    f1, f2 = F.cdf[:, -1], F.cdf[-1, :]
    r1 = (f1 + n - 1.0) / n
    r2 = (f2 + n - 1.0) / n
    psi = _psi_values(F.cdf)
    psi_n = (psi + n - 1.0) / n
    prod = r1[:, None] * r2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = prod / psi_n
    cells = np.where(np.isnan(psi_n), prod, cells)   # 0/0 cells: ratio 1
    cells = np.where(np.isinf(psi_n), 0.0, cells)
    candidate = BivariateCDF(F.x_breaks, F.y_breaks, cells)
    return NthRootResult(candidate, validate_bi(candidate, eps))


def max_stable_residual(F: BivariateCDF, n: int, norm: AffineNormalization,
                        eps: float = EPS_CDF) -> float:
    """Sup-on-grid distance between the normalized n-fold power and F.

    The evaluation grid is the union of F's grid and the pulled-back grid
    of the n-fold power.  A max-stable F with the right normalizing
    sequence drives this to 0 as n grows.
    """
    require_valid_bi(F, eps)
    H = affine_transform(nfold(F, n, eps), norm, eps)
    xs = np.union1d(F.x_breaks, H.x_breaks)
    ys = np.union1d(F.y_breaks, H.y_breaks)
    require_cells(xs.size, ys.size, "max_stable_residual")
    return float(np.max(np.abs(H.evaluate_grid(xs, ys) - F.evaluate_grid(xs, ys))))
