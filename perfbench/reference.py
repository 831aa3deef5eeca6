"""The benchmark's own implementation of the formulas it checks against.

Written from the definitions, with numpy only, so that output checks do not
depend on the code under test.  Expressions that the checks compare bit for
bit are spelled the way the univariate formulas are written:
``(F + G - 1)_+``, ``min(F + G, 1)`` and ``(n*F - (n-1))_+``.
"""

from __future__ import annotations

import json

import numpy as np

EPS = 1e-9


def load_bi(path):
    with open(path) as fh:
        d = json.load(fh)
    return (np.asarray(d["x_breaks"], float), np.asarray(d["y_breaks"], float),
            np.asarray(d["cdf"], float))


def load_uni(path):
    with open(path) as fh:
        d = json.load(fh)
    return np.asarray(d["breaks"], float), np.asarray(d["values"], float)


def is_cdf(c, eps=EPS):
    """Distribution-function axioms of a grid CDF, on adjacent cells."""
    m1, m2 = c[:, -1][:, None], c[-1, :][None, :]
    rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    return bool(c.min() >= -eps and c.max() <= 1.0 + eps
                and np.all(np.diff(c, axis=0) >= -eps)
                and np.all(np.diff(c, axis=1) >= -eps)
                and np.all(rect >= -eps)
                and abs(c[-1, -1] - 1.0) <= eps
                and np.all(c <= np.minimum(m1, m2) + eps)
                and np.all(c >= m1 + m2 - 1.0 - eps))


def step(breaks, values, s):
    """Right-continuous step function through (breaks, values), 0 below."""
    i = np.searchsorted(breaks, s, side="right") - 1
    return np.where(i >= 0, values[np.maximum(i, 0)], 0.0)


def eval_grid(xb, yb, c, xs, ys):
    i = np.searchsorted(xb, xs, side="right") - 1
    j = np.searchsorted(yb, ys, side="right") - 1
    v = c[np.maximum(i, 0)][:, np.maximum(j, 0)]
    return np.where((i[:, None] >= 0) & (j[None, :] >= 0), v, 0.0)


def psi(c):
    """Ratio field F1*F2/F with +inf where only F vanishes, nan where both do."""
    num = c[:, -1][:, None] * c[-1, :][None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / c
    out[(c == 0.0) & (num > 0.0)] = np.inf
    out[(c == 0.0) & (num == 0.0)] = np.nan
    return out


def nfold_cdf(c, n):
    """n-fold bi-free max-convolution power: marginals (n*F_j - (n-1))_+,
    ratio field n*psi - (n-1), zero off the active set."""
    h1 = np.maximum(0.0, n * c[:, -1] - (n - 1.0))
    h2 = np.maximum(0.0, n * c[-1, :] - (n - 1.0))
    p = n * psi(c) - (n - 1.0)
    active = np.isfinite(p) & (h1[:, None] > 0.0) & (h2[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = h1[:, None] * h2[None, :] / p
    return np.where(active, cells, 0.0)


def stable_residual(xb, yb, c, n, norm):
    """Sup over the union grid of |H(a s + b, c t + d) - F(s, t)|, H = F^n."""
    a, b, cs, d = norm
    hx, hy = (xb - b) / a, (yb - d) / cs
    xs, ys = np.union1d(xb, hx), np.union1d(yb, hy)
    return float(np.max(np.abs(eval_grid(hx, hy, nfold_cdf(c, n), xs, ys)
                               - eval_grid(xb, yb, c, xs, ys))))


def ecdf(points):
    """Empirical CDF by a cumulative 2-d histogram of ranked samples."""
    xb, ix = np.unique(points[:, 0], return_inverse=True)
    yb, iy = np.unique(points[:, 1], return_inverse=True)
    hist = np.zeros((xb.size, yb.size), dtype=np.int64)
    np.add.at(hist, (ix, iy), 1)
    return xb, yb, np.cumsum(np.cumsum(hist, axis=0), axis=1) / points.shape[0]


def wedge_closed_form(p, q, r, p2, q2, r2):
    """(p+p'-1)_+ (q+q'-1)_+ / (pq/r + p'q'/r' - 1), 0 if a factor vanishes."""
    a, b = max(0.0, p + p2 - 1.0), max(0.0, q + q2 - 1.0)
    if a <= 0.0 or b <= 0.0 or r == 0.0 or r2 == 0.0:
        return 0.0
    return a * b / (p * q / r + p2 * q2 / r2 - 1.0)
