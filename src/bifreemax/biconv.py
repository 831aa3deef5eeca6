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

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .cdf import (
    EPS_CDF,
    AffineNormalization,
    BivariateCDF,
    _pulled_back,
    _union_grid,
    require_valid_bi,
    row_blocks,
    validate_bi,
)


@dataclass(frozen=True)
class PsiField:
    """Marginal-product-to-joint ratio of a bivariate CDF on its grid."""

    x_breaks: np.ndarray
    y_breaks: np.ndarray
    values: np.ndarray  # +inf and nan sentinels allowed


# Every cells-sized kernel below fills one preallocated output a row block at
# a time (cdf.row_blocks): the ratio field is cell by cell and the marginals
# are vectors, so a block needs only its own rows.  Peak memory is the output
# plus one block's temporaries, and the values do not depend on the blocking.

def _fill_rows(shape: tuple[int, int], block) -> np.ndarray:
    """A new array of ``shape``, filled one row block at a time with ``block(rows)``."""
    out = np.empty(shape)
    for rows in row_blocks(*shape):
        out[rows] = block(rows)
    return out


@dataclass(frozen=True)
class GridRows:
    """A kernel's output grid, given by its breaks and its row-block function.

    ``block(rows)`` computes the rows ``rows`` (a slice) of the cdf array.
    Every step of a kernel is elementwise, so a row has the same bits
    whichever block computes it: a caller may take the last row first, or
    stream the blocks to a file without ever holding the whole array.
    """

    x_breaks: np.ndarray
    y_breaks: np.ndarray
    block: Callable[[slice], np.ndarray]

    @property
    def shape(self) -> tuple[int, int]:
        return self.x_breaks.size, self.y_breaks.size

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Each row slice of cdf.row_blocks with its rows, in order."""
        for rows in row_blocks(*self.shape):
            yield rows, self.block(rows)

    def last_row(self) -> np.ndarray:
        nx = self.x_breaks.size
        return self.block(slice(nx - 1, nx))[0]

    def to_cdf(self) -> BivariateCDF:
        return BivariateCDF(self.x_breaks, self.y_breaks, _fill_rows(self.shape, self.block))


def _psi_block(c: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Ratio field of the rows ``c`` of a CDF whose marginals there are m1 and m2."""
    num = m1[:, None] * m2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = num / c
    psi = np.where((c == 0.0) & (num > 0.0), np.inf, psi)
    psi = np.where((c == 0.0) & (num == 0.0), np.nan, psi)
    return psi


def _decode_block(h1: np.ndarray, h2: np.ndarray, psi: np.ndarray,
                  active: np.ndarray) -> np.ndarray:
    """H1*H2/psi where ``active`` and both marginals are positive, 0 elsewhere."""
    active &= (h1[:, None] > 0.0) & (h2[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = h1[:, None] * h2[None, :] / psi
    return np.where(active, cells, 0.0)


def psi_ratio(F: BivariateCDF, eps: float = EPS_CDF) -> PsiField:
    """Ratio field F1*F2/F with +inf / nan sentinels at vanishing cells."""
    require_valid_bi(F, eps)
    c = F.cdf
    m1, m2 = c[:, -1], c[-1, :]
    return PsiField(F.x_breaks, F.y_breaks,
                    _fill_rows(c.shape, lambda r: _psi_block(c[r], m1[r], m2)))


def psi_range(c: np.ndarray, m2: np.ndarray, lo: float = np.inf,
              hi: float = -np.inf) -> tuple[float, float]:
    """(lo, hi) widened to the finite values of the ratio field of the rows c.

    c are rows of a kernel output whose last row is m2; folded over all row
    blocks from (inf, -inf), this gives the smallest and largest finite
    ratio, or lo > hi if none is finite.  Nothing is validated.
    """
    psi = _psi_block(c, c[:, -1], m2)
    finite = psi[np.isfinite(psi)]
    if finite.size:
        lo, hi = min(lo, float(finite.min())), max(hi, float(finite.max()))
    return lo, hi


def bifree_max_convolve(F: BivariateCDF, G: BivariateCDF,
                        eps: float = EPS_CDF) -> BivariateCDF:
    """Bi-free max-convolution H of two bivariate distribution functions.

    The marginals of H are the univariate free max-convolutions of the
    input marginals; at every grid point where F > 0, G > 0 and both H
    marginals are positive,

        H = H1 * H2 / (psi_F + psi_G - 1),

    and H = 0 at every other grid point.  Both inputs are read on the
    union grid one row block at a time; neither is merged as a whole.
    """
    return bifree_max_convolve_rows(F, G, eps).to_cdf()


def bifree_max_convolve_rows(F: BivariateCDF, G: BivariateCDF,
                             eps: float = EPS_CDF) -> GridRows:
    """bifree_max_convolve as row blocks; F, G and the grid size are checked here."""
    require_valid_bi(F, eps)
    require_valid_bi(G, eps)
    xs, ys = _union_grid(F, G, "bifree_max_convolve")
    # marginals on the union grid: its last column and last row
    f1, g1 = (X.evaluate_grid(xs, ys[-1:])[:, 0] for X in (F, G))
    f2, g2 = (X.evaluate_grid(xs[-1:], ys)[0] for X in (F, G))
    h1 = np.maximum(0.0, f1 + g1 - 1.0)
    h2 = np.maximum(0.0, f2 + g2 - 1.0)

    def block(rows):
        Fb = F.evaluate_grid(xs[rows], ys)
        Gb = G.evaluate_grid(xs[rows], ys)
        psi_sum = _psi_block(Fb, f1[rows], f2) + _psi_block(Gb, g1[rows], g2) - 1.0
        return _decode_block(h1[rows], h2, psi_sum, (Fb > 0.0) & (Gb > 0.0))

    return GridRows(xs, ys, block)


def nfold(F: BivariateCDF, n: int, eps: float = EPS_CDF) -> BivariateCDF:
    """n-fold bi-free max-convolution of F with itself.

    Computed through the closed form (marginals ``(n*F_j - (n-1))_+``,
    ratio field ``n*psi - (n-1)``) rather than n-1 pairwise convolutions,
    which is exact and avoids error accumulation; both paths agree.
    """
    require_valid_bi(F, eps)
    return _nfold(F, _check_fold_count(n))


def nfold_rows(F: BivariateCDF, n: int, eps: float = EPS_CDF) -> GridRows:
    """nfold as row blocks; F and n are checked here."""
    require_valid_bi(F, eps)
    return _nfold_rows(F, _check_fold_count(n))


def _nfold(F: BivariateCDF, n: int) -> BivariateCDF:
    """nfold without validating F."""
    return F if n == 1 else _nfold_rows(F, n).to_cdf()


def _nfold_rows(F: BivariateCDF, n: int) -> GridRows:
    c = F.cdf
    if n == 1:
        return GridRows(F.x_breaks, F.y_breaks, lambda rows: c[rows])
    f1, f2 = c[:, -1], c[-1, :]
    h1 = np.maximum(0.0, n * f1 - (n - 1.0))
    h2 = np.maximum(0.0, n * f2 - (n - 1.0))

    def block(rows):
        psi_n = n * _psi_block(c[rows], f1[rows], f2) - (n - 1.0)
        return _decode_block(h1[rows], h2, psi_n, np.isfinite(psi_n))

    return GridRows(F.x_breaks, F.y_breaks, block)


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
    c = F.cdf
    f1, f2 = c[:, -1], c[-1, :]
    r1 = (f1 + n - 1.0) / n
    r2 = (f2 + n - 1.0) / n

    def block(rows):
        psi_n = (_psi_block(c[rows], f1[rows], f2) + n - 1.0) / n
        prod = r1[rows, None] * r2[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cells = prod / psi_n
        cells = np.where(np.isnan(psi_n), prod, cells)   # 0/0 cells: ratio 1
        return np.where(np.isinf(psi_n), 0.0, cells)

    candidate = BivariateCDF(F.x_breaks, F.y_breaks, _fill_rows(c.shape, block))
    return NthRootResult(candidate, validate_bi(candidate, eps))


def max_stable_residual(F: BivariateCDF, n: int, norm: AffineNormalization,
                        eps: float = EPS_CDF) -> float:
    """Sup-on-grid distance between the normalized n-fold power and F.

    The evaluation grid is the union of F's grid and the pulled-back grid
    of the n-fold power.  A max-stable F with the right normalizing
    sequence drives this to 0 as n grows.
    """
    require_valid_bi(F, eps)
    Hn = _nfold(F, _check_fold_count(n))
    H = _pulled_back(Hn, norm, Hn.cdf)
    xs, ys = _union_grid(F, H, "max_stable_residual")
    residual = 0.0
    for rows in row_blocks(xs.size, ys.size):
        diff = H.evaluate_grid(xs[rows], ys) - F.evaluate_grid(xs[rows], ys)
        residual = max(residual, float(np.max(np.abs(diff))))
    return residual
