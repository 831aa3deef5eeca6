"""Shared random generators and reference implementations for the test suite."""

import json
import re

import numpy as np

from bifreemax import BivariateCDF, CDFFormatError, ProjectionPairLaw, UnivariateCDF


def random_breaks(rng, size):
    start = rng.uniform(-3.0, 0.0)
    return start + np.cumsum(rng.uniform(0.1, 1.0, size))


def random_bivariate_cdf(rng, max_size=6, min_size=2, corner_mass=0.0):
    """Random valid discrete bivariate CDF on a grid up to max_size x max_size.

    With corner_mass > 0, that much probability is pinned to the lowest
    grid point, which keeps every marginal value at least corner_mass.
    """
    nx = int(rng.integers(min_size, max_size + 1))
    ny = int(rng.integers(min_size, max_size + 1))
    masses = rng.uniform(0.05, 1.0, (nx, ny))
    if corner_mass:
        masses *= (1.0 - corner_mass) / masses.sum()
        masses[0, 0] += corner_mass
    cdf = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    cdf /= cdf[-1, -1]
    cdf[-1, -1] = 1.0
    return BivariateCDF(random_breaks(rng, nx), random_breaks(rng, ny), cdf)


def random_univariate_cdf(rng, max_size=6, min_size=2):
    n = int(rng.integers(min_size, max_size + 1))
    masses = rng.uniform(0.05, 1.0, n)
    values = np.cumsum(masses)
    values /= values[-1]
    values[-1] = 1.0
    return UnivariateCDF(random_breaks(rng, n), values)


def random_law(rng, p_range=(0.05, 0.95)):
    p = rng.uniform(*p_range)
    q = rng.uniform(*p_range)
    lo = max(0.0, p + q - 1.0)
    hi = min(p, q)
    return ProjectionPairLaw(p, q, rng.uniform(lo, hi))


def load_bi_json_reference(path) -> BivariateCDF:
    """Whole-file ``json.load`` + ``np.asarray``: the reference for ``load_bi_json``.

    Holds the whole text and every value as a Python float at once, so it
    peaks at several times the array; for small files only.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        return BivariateCDF(np.asarray(data["x_breaks"], dtype=float),
                            np.asarray(data["y_breaks"], dtype=float),
                            np.asarray(data["cdf"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise CDFFormatError(f"bad bivariate CDF file {path}: {exc}") from exc


def ecdf_reference(points):
    """Brute-force empirical CDF: compare every sample with every grid point.

    Cubic in time and memory; the reference for ``ecdf_from_samples`` at
    small N only.
    """
    pts = np.asarray(points, dtype=float)
    xs, ys = pts[:, 0], pts[:, 1]
    xb = np.unique(xs)
    yb = np.unique(ys)
    counts = ((xs[None, None, :] <= xb[:, None, None])
              & (ys[None, None, :] <= yb[None, :, None])).sum(axis=2)
    return BivariateCDF(xb, yb, counts / pts.shape[0])


#: Start of each kind's location lines, by the kind named in summary lines.
VIOLATION_KINDS = {
    "out-of-[0,1]": "value out of [0,1] at ",
    "monotonicity": "monotonicity violation at ",
    "monotonicity along x": "monotonicity violation along x at ",
    "monotonicity along y": "monotonicity violation along y at ",
    "rectangle inequality": "rectangle inequality violation at ",
    "total-mass": "total-mass violation: ",
    "Frechet upper-bound": "Frechet upper-bound violation at ",
    "Frechet lower-bound": "Frechet lower-bound violation at ",
}

_SUMMARY = re.compile(r"\.\.\. and (\d+) more (.+) violations, worst (\S+)")


def group_violations(lines):
    """Split a violation report into ``{kind: (locations, summary)}``.

    ``summary`` is ``(count, worst)`` from the kind's "... and N more" line,
    or None when the kind has none.
    """
    groups = {}
    for line in lines:
        m = _SUMMARY.fullmatch(line)
        if m:
            groups[m.group(2)] = (groups[m.group(2)][0], (int(m.group(1)), float(m.group(3))))
            continue
        kind = next(k for k, start in VIOLATION_KINDS.items() if line.startswith(start))
        groups.setdefault(kind, ([], None))[0].append(line)
    return groups


def sparse_bivariate_cdf(rng, nx, ny, zero_share, offset=0.0):
    """Random valid CDF whose cell masses are 0 with probability zero_share.

    Zero masses give cells with F = 0, so both ratio-field sentinels occur:
    +inf where the marginal product is positive and nan where it is 0.
    """
    masses = rng.uniform(0.05, 1.0, (nx, ny)) * (rng.random((nx, ny)) >= zero_share)
    masses[-1, -1] += 0.1
    cdf = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    cdf /= cdf[-1, -1]
    cdf[-1, -1] = 1.0
    return BivariateCDF(offset + random_breaks(rng, nx), offset + random_breaks(rng, ny), cdf)


# Whole-array forms of the grid kernels, as they were before the kernels ran
# in row blocks: the references the blocked kernels must match byte for byte.

def evaluate_grid_reference(F, xs, ys):
    xi = np.searchsorted(F.x_breaks, xs, side="right") - 1
    yj = np.searchsorted(F.y_breaks, ys, side="right") - 1
    vals = F.cdf[np.ix_(np.maximum(xi, 0), np.maximum(yj, 0))]
    mask = (xi[:, None] >= 0) & (yj[None, :] >= 0)
    return np.where(mask, vals, 0.0)


def psi_reference(cdf):
    num = cdf[:, -1][:, None] * cdf[-1, :][None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = num / cdf
    psi = np.where((cdf == 0.0) & (num > 0.0), np.inf, psi)
    psi = np.where((cdf == 0.0) & (num == 0.0), np.nan, psi)
    return psi


def convolve_reference(F, G):
    xb = np.union1d(F.x_breaks, G.x_breaks)
    yb = np.union1d(F.y_breaks, G.y_breaks)
    fm, gm = evaluate_grid_reference(F, xb, yb), evaluate_grid_reference(G, xb, yb)
    h1 = np.maximum(0.0, fm[:, -1] + gm[:, -1] - 1.0)
    h2 = np.maximum(0.0, fm[-1, :] + gm[-1, :] - 1.0)
    psi_sum = psi_reference(fm) + psi_reference(gm) - 1.0
    active = (fm > 0.0) & (gm > 0.0) & (h1[:, None] > 0.0) & (h2[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = h1[:, None] * h2[None, :] / psi_sum
    return np.where(active, cells, 0.0)


def nfold_reference(F, n):
    if n == 1:
        return F.cdf
    f1, f2 = F.cdf[:, -1], F.cdf[-1, :]
    h1 = np.maximum(0.0, n * f1 - (n - 1.0))
    h2 = np.maximum(0.0, n * f2 - (n - 1.0))
    psi_n = n * psi_reference(F.cdf) - (n - 1.0)
    active = np.isfinite(psi_n) & (h1[:, None] > 0.0) & (h2[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = h1[:, None] * h2[None, :] / psi_n
    return np.where(active, cells, 0.0)


def nth_root_reference(F, n):
    f1, f2 = F.cdf[:, -1], F.cdf[-1, :]
    r1 = (f1 + n - 1.0) / n
    r2 = (f2 + n - 1.0) / n
    psi_n = (psi_reference(F.cdf) + n - 1.0) / n
    prod = r1[:, None] * r2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = prod / psi_n
    cells = np.where(np.isnan(psi_n), prod, cells)
    return np.where(np.isinf(psi_n), 0.0, cells)


def residual_reference(F, n, norm):
    H = BivariateCDF((F.x_breaks - norm.b) / norm.a, (F.y_breaks - norm.d) / norm.c,
                     nfold_reference(F, n))
    xs = np.union1d(F.x_breaks, H.x_breaks)
    ys = np.union1d(F.y_breaks, H.y_breaks)
    return float(np.max(np.abs(evaluate_grid_reference(H, xs, ys)
                               - evaluate_grid_reference(F, xs, ys))))
