"""Bi-free max-convolution of bivariate distribution functions.

The convolution acts through the per-point ratio field

    psi(s, t) = F1(s) * F2(t) / F(s, t)

(with F1, F2 the marginals): the convolution of F and G has marginals
``(F_j + G_j - 1)_+`` and ratio field ``psi_F + psi_G - 1`` wherever the
defining positivity conditions hold, and vanishes elsewhere.  Because the
ratio field is affine under the convolution, n-fold powers and formula-level
n-th roots have exact closed forms.

Sentinel conventions in the ratio field: a cell with F <= 0 vanishes, with
``+inf`` where both marginals are positive and ``nan`` (0/0) elsewhere.
Every kernel is the power (X_1 [+] ... [+] X_k)^(p/q) of a convolution of k
inputs, through one map ``a -> (p*sum(a_i) - (k*p - q))/q``, which sends 1 to
1, on the input marginals (then clamped at 0) and ratio fields, with ratio 1
at 0/0 cells, and one decode, ``_decode_block``: H1*H2/psi where psi is finite
and both output marginals are positive, 0 elsewhere.  The convolution is
(F, G) at p = q = 1, ``nfold`` is (F,) at (n, 1) and the root (F,) at (1, n).

A kernel's output is a ``cdf.GridRows``, a row source like ``BivariateCDF``:
it computes its rows block by block when they are read.  ``nfold`` and
``nth_root`` fill it into an array, CLI ``biconv`` and ``nfold`` stream it
to their file, CLI ``root`` validates it and streams it to its file on one
pass while it is valid, and ``max_stable_residual`` pulls its breaks back
and reads it on the evaluation grid, so the n-fold power is never held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdf import (
    EPS_CDF,
    AffineNormalization,
    BivariateCDF,
    GridRows,
    _OnGrid,
    _pulled_back,
    _Scratch,
    _step_index,
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


# Every cells-sized kernel below computes its output a row block at a time
# (cdf.row_blocks): the ratio field is cell by cell and the marginals are
# vectors, so a block needs only its own rows, and its values do not depend on
# the blocking.  Each step writes in place or through out= into a scratch set
# of one block (cdf._Scratch), reused from block to block, so peak memory is
# what the caller keeps plus a few blocks, and a block allocates nothing of
# its size.

def _psi_block(c: np.ndarray, m2: np.ndarray, undefined: float,
               out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Ratio field of the rows c of a CDF whose last row is m2, into out.

    A cell c <= 0 gets +inf where both of its marginals are positive and
    ``undefined`` (0/0) elsewhere; mask is bool scratch of c's shape.
    """
    np.multiply(c[:, -1:], m2, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, c, out=out)
    np.greater(c, 0.0, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(out, undefined, where=mask)
    # decided on the marginals, not on their product, which can underflow
    np.logical_and(mask, c[:, -1:] > 0.0, out=mask)
    np.logical_and(mask, m2 > 0.0, out=mask)
    np.copyto(out, np.inf, where=mask)
    return out


def _decode_block(h1: np.ndarray, h2: np.ndarray, psi: np.ndarray,
                  prod: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """H1*H2/psi where psi is finite and both marginals are positive, 0 elsewhere.

    Written into psi; prod and mask are float and bool scratch of its shape.
    """
    np.isfinite(psi, out=mask)
    np.logical_and(mask, h1[:, None] > 0.0, out=mask)
    np.logical_and(mask, h2 > 0.0, out=mask)
    np.multiply(h1[:, None], h2, out=prod)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(prod, psi, out=psi)
    np.logical_not(mask, out=mask)
    np.copyto(psi, 0.0, where=mask)
    return psi


def _power_rows(xs: np.ndarray, ys: np.ndarray, inputs: tuple[BivariateCDF, ...],
                p: int = 1, q: int = 1, scratch: _Scratch | None = None) -> GridRows:
    """(X_1 [+] ... [+] X_k)^(p/q) of the k inputs, read on xs x ys; p and q are checked here.

    A block is a view of the kernel's scratch buffer "psi", valid until the
    next read; a caller that passes ``scratch`` may use its "term" and "mask"
    between reads, as ``psi_range`` does.

    The output x-marginal of a block is mapped from the last column of each
    input's block, and the y-marginal from each input's last row, read
    first: so a block reads no input rows but its own and the last.
    """
    p, q = _check_fold_count(p), _check_fold_count(q)
    shift = float(len(inputs) * p - q)

    def affine(arrays):   # in place: summed into the first array
        arrays = iter(arrays)
        out = next(arrays)
        for a in arrays:
            out += a
        if p != 1:   # 1*a and a/1 are a, bit for bit
            np.multiply(p, out, out=out)
        out -= shift
        return out if q == 1 else np.divide(out, q, out=out)

    m2 = [X.evaluate_grid(xs[-1:], ys)[0] for X in inputs]
    h2 = np.maximum(0.0, affine(f2.copy() for f2 in m2))
    reads = [_OnGrid(X, xs, ys) for X in inputs]
    scratch = scratch or _Scratch(xs.size, ys.size)
    cols = np.empty((len(inputs), xs.size))   # each input's last column, for h1

    def block(rows):   # each input's ratio field is made as the map takes it
        shape = (rows.stop - rows.start, ys.size)
        mask = scratch("mask", shape, bool)

        def terms():
            for k, (X, f2) in enumerate(zip(reads, m2)):
                c = X.block(rows, scratch, "input")
                cols[k, rows] = c[:, -1]
                yield _psi_block(c, f2, 1.0, scratch("term" if k else "psi", shape), mask)

        psi = affine(terms())
        h1 = affine(cols[:, rows])
        np.maximum(0.0, h1, out=h1)
        return _decode_block(h1, h2, psi, scratch("term", shape), mask)

    return GridRows(xs, ys, block)


def psi_ratio(F: BivariateCDF, eps: float = EPS_CDF) -> PsiField:
    """Ratio field F1*F2/F; where F <= 0, +inf if F1 > 0 and F2 > 0, and nan otherwise."""
    require_valid_bi(F, eps)
    scratch, out = _Scratch(*F.cdf.shape), np.empty(F.cdf.shape)
    for r in row_blocks(*out.shape):
        _psi_block(F.cdf[r], F.cdf[-1], np.nan, out[r], scratch("mask", out[r].shape, bool))
    return PsiField(F.x_breaks, F.y_breaks, out)


def psi_range(c: np.ndarray, m2: np.ndarray, scratch: _Scratch, lo: float = np.inf,
              hi: float = -np.inf) -> tuple[float, float]:
    """(lo, hi) widened to the finite values of the ratio field of the rows c.

    c are rows of a kernel output whose last row is m2; folded over all row
    blocks from (inf, -inf), this gives the smallest and largest finite
    ratio, or lo > hi if none is finite.  Nothing is validated.  The ratio
    field is computed into the "term" and "mask" of ``scratch``, which the
    fold passes to every call: c may be a block of a kernel that shares it.
    """
    mask = scratch("mask", c.shape, bool)
    psi = _psi_block(c, m2, np.nan, scratch("term", c.shape), mask)
    finite = np.isfinite(psi, out=mask)
    if finite.any():
        lo = min(lo, float(np.min(psi, where=finite, initial=np.inf)))
        hi = max(hi, float(np.max(psi, where=finite, initial=-np.inf)))
    return lo, hi


def bifree_max_convolve(F: BivariateCDF, G: BivariateCDF,
                        eps: float = EPS_CDF) -> BivariateCDF:
    """Bi-free max-convolution H of two bivariate distribution functions.

    The marginals of H are the univariate free max-convolutions
    ``(F_j + G_j - 1)_+`` of the input marginals (the kernel's map at
    p = q = 1); wherever the ratio field ``psi_F + psi_G - 1``
    is finite and both H marginals are positive (so F > 0 and G > 0),

        H = H1 * H2 / (psi_F + psi_G - 1),

    and H = 0 at every other grid point.  Both inputs are read on the
    union grid one row block at a time; neither is merged as a whole.
    """
    require_valid_bi(F, eps)
    require_valid_bi(G, eps)
    xs, ys = _union_grid(F, G, "bifree_max_convolve")
    return _power_rows(xs, ys, (F, G)).to_cdf()


def nfold(F: BivariateCDF, n: int, eps: float = EPS_CDF) -> BivariateCDF:
    """n-fold bi-free max-convolution of F with itself.

    Computed through the closed form, the kernel's map at p = n and q = 1,
    ``n*a - (n-1)``, rather than n-1 pairwise convolutions; so
    ``nfold(F, 2)`` is ``bifree_max_convolve(F, F)`` byte for byte, and cells
    with F <= 0 stay 0.  ``nfold(F, 1)`` is F itself; n is at most 2**53.

    Error budget: the power multiplies the defects ``1 - F_j`` and the ratio
    excess ``psi - 1`` by n, so a stored input with rounding u gives up to
    about n*u at the output, through psi as through the marginals.  That is
    the conditioning of the power, not the algorithm, which adds a few
    rounding errors of its own: on a max-stable law whose values are exact
    in binary, the power at n = 2^m, m <= 40, is within 2*n*2^-53 of the
    exact one.
    """
    require_valid_bi(F, eps)
    H = _nfold_rows(F, n)
    return H if H is F else H.to_cdf()


def _nfold_rows(F, n):
    """nfold of a row source F as row blocks, F itself at n = 1; n is checked by the kernel."""
    return F if n == 1 else _power_rows(F.x_breaks, F.y_breaks, (F,), n)


def _check_fold_count(n) -> int:
    """n as an int; a ValueError unless n is an integer with 1 <= n <= 2**53."""
    try:   # the kernels take n and n - 1 as floats: above 2**53, n - 1 rounds
        ok = int(n) == n and 1 <= n <= 2 ** 53   # int() overflows at inf and fails at nan
    except (OverflowError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"n must be a positive integer that a float can hold, got {n!r}")
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

    The kernel's map at p = 1 and q = n <= 2**53 is ``(a - (1-n))/n``,
    rounded once.  Only the root decodes 0/0 cells (F <= 0, a marginal
    <= 0), where every kernel puts ratio 1, the independent value.
    It is decoded like the convolution and the power: the +inf sentinel
    gives 0, and so does a cell where a root marginal is 0 (only at n = 1).
    If the candidate is returned valid, its n-fold convolution recovers F.
    The candidate is filled into an array and validated in one pass; CLI
    ``root`` validates the same ``_power_rows`` instead and never holds it.

    Error budget: the root divides the defects and the ratio excess by n, so
    it adds only a few rounding errors to what its input carries.  But an
    input that is itself a stored n-fold power carries up to about n*u
    through psi, where u is the rounding of the law it was raised from, so
    ``nth_root(nfold(F, n), n)`` recovers F to about n*u: the conditioning
    of the power, not the algorithm.  It recovers F only where the power's
    marginals are positive; at breaks where a marginal of the power is 0,
    the ratio field is 0/0 and the joint values are lost.
    """
    require_valid_bi(F, eps)
    candidate = _power_rows(F.x_breaks, F.y_breaks, (F,), 1, n).to_cdf()
    return NthRootResult(candidate, validate_bi(candidate, eps))


def max_stable_residual(F: BivariateCDF, n: int, norm: AffineNormalization,
                        eps: float = EPS_CDF) -> float:
    """Sup-on-grid distance between the normalized n-fold power and F.

    The evaluation grid is the union of F's grid and the pulled-back grid
    of the n-fold power, n <= 2**53.  A max-stable F with the right
    normalizing sequence drives this to 0 as n grows.  The power is never
    held: each row block of the evaluation grid computes the rows of it that
    it reads.  F is read once per row block, over the rows that the block
    reads at x and that the power reads near a*x + b: that read decodes and
    checks them, and the block's reads of F fall within it.  The reads start at
    increasing rows, so CLI ``stability`` runs the same code on one pass
    over its file, holding the rows between the two.

    Error budget: the residual holds the power's error, up to about n*u for
    a stored F with rounding u (see ``nfold``), so a max-stable F reads about
    n*u, not 0: the conditioning of the power, not the algorithm.
    """
    require_valid_bi(F, eps)
    return _residual(F, n, norm)


def _residual(F, n, norm: AffineNormalization) -> float:
    """max_stable_residual of a row source F; n is checked here.

    Each block first reads F from the first row of its reads, F's own and
    the power's (no step index falls along xs, so no later block reads
    before it), through its own last row: the read that decodes and checks
    them, within which both then read F.  The widest read is reserved first.
    """
    H = _pulled_back(_nfold_rows(F, n), norm)
    xs, ys = _union_grid(F, H, "max_stable_residual")
    h, f = _OnGrid(H, xs, ys), _OnGrid(F, xs, ys)
    blocks = list(row_blocks(xs.size, ys.size))
    # the rows of F that each block reads: a reader below the grid reads none
    steps = [_step_index(X.x_breaks, xs) for X in (H, F)]
    stops = [max(int(i[b.stop - 1]) for i in steps) + 1 for b in blocks]
    starts = [min(max(int(i[b.start]), 0) for i in steps) for b in blocks]
    F._reserve(max(stop - start for start, stop in zip(starts, stops)))
    scratch = _Scratch(xs.size, ys.size)
    residual = 0.0
    for rows, start, stop in zip(blocks, starts, stops):
        F.block(slice(start, stop))
        diff = scratch("diff", (rows.stop - rows.start, ys.size))
        np.subtract(h.block(rows, scratch, "H"), f.block(rows, scratch, "F"), out=diff)
        residual = max(residual, float(np.max(np.abs(diff, out=diff))))
    return residual
