"""Shared random generators and reference implementations for the test suite."""

import re

import numpy as np

from bifreemax import BivariateCDF, ProjectionPairLaw, UnivariateCDF


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
