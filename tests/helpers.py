"""Shared random generators, reference implementations, grid documents, the
one-pass harness's commands with their whole-load outcome, fresh-process
runners, a pipe feeder and the peak-memory probe for the test suite."""

import itertools
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

import bifreemax
from bifreemax import (
    AffineNormalization,
    BivariateCDF,
    CDFError,
    CDFFormatError,
    ProjectionPairLaw,
    UnivariateCDF,
    bifree_max_convolve,
    load_bi_json,
    max_stable_residual,
    nfold,
    nth_root,
    save_bi_json,
    validate_bi,
)
from bifreemax import gridio
from bifreemax.cdf import EPS_CDF, MAX_LISTED, require_valid_bi


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
        xb = np.asarray(data["x_breaks"], dtype=float)
        yb = np.asarray(data["y_breaks"], dtype=float)
        try:
            cdf = np.asarray(data["cdf"], dtype=float)
        except ValueError as exc:   # ragged rows are named, with their length
            raise ValueError(_ragged_row(data["cdf"], data["y_breaks"]) or exc) from exc
        return BivariateCDF(xb, yb, cdf)
    except (KeyError, TypeError, ValueError) as exc:
        raise CDFFormatError(f"bad bivariate CDF file {path}: {exc}") from exc


def _ragged_row(rows, y_breaks):
    """What is wrong with the first row of the decoded JSON rows that does not
    have len(y_breaks) values (row 0's length if y_breaks is not a list), or None."""
    if not isinstance(rows, list):
        return None
    want = len(y_breaks) if isinstance(y_breaks, list) else None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            return f"cdf row {i} is not an array"
        if want is None:
            want = len(row)
        if len(row) != want:
            return f"cdf row {i} has {len(row)} values, expected {want}"
    return None


def ecdf_brute_force(points):
    """Brute-force empirical CDF: compare every sample with every grid point.

    Cubic in time and memory; a reference for ``ecdf_from_samples`` at
    small N only.
    """
    pts = np.asarray(points, dtype=float)
    xs, ys = pts[:, 0], pts[:, 1]
    xb = np.unique(xs)
    yb = np.unique(ys)
    counts = ((xs[None, None, :] <= xb[:, None, None])
              & (ys[None, None, :] <= yb[None, :, None])).sum(axis=2)
    return BivariateCDF(xb, yb, counts / pts.shape[0])


def ecdf_reference(points):
    """The whole-array summed-area table that ``ecdf_from_samples`` built
    before it ran in row blocks: count the samples per cell, take running
    sums along both axes, divide by N."""
    pts = np.asarray(points, dtype=float)
    xb, xi = np.unique(pts[:, 0], return_inverse=True)
    yb, yi = np.unique(pts[:, 1], return_inverse=True)
    counts = np.bincount(xi * yb.size + yi, weights=np.ones(pts.shape[0]),
                         minlength=xb.size * yb.size).reshape(xb.size, yb.size)
    np.cumsum(counts, axis=0, out=counts)
    np.cumsum(counts, axis=1, out=counts)
    counts /= pts.shape[0]
    return BivariateCDF(xb, yb, counts)


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


# Whole-array forms of the validators, with the separate violation mask and
# worst amount of each kind that they had before the kinds became bounds:
# the references the blocked reports must match line for line.

def exceeds(a, b, eps):
    """Elementwise a - b > eps in exact arithmetic: Fraction decides where a - b rounds to eps."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = a - b > eps
    for k in zip(*np.nonzero(a - b == eps)):
        out[k] = Fraction(float(a[k])) - Fraction(float(b[k])) > Fraction(eps)
    return out


def _reference_kind(out, kind, mask, line, worst):
    hits = np.argwhere(mask)
    for index in hits[:MAX_LISTED]:
        out.append(line(*map(int, index)))
    if len(hits) > MAX_LISTED:
        out.append(f"... and {len(hits) - MAX_LISTED} more {kind} violations, "
                   f"worst {float(worst())!r}")


def validate_uni_reference(F, eps=EPS_CDF):
    v = F.values
    out = []
    _reference_kind(out, "out-of-[0,1]", exceeds(0.0, v, eps) | exceeds(v, 1.0, eps),
                    lambda i: f"value out of [0,1] at index {i}: {float(v[i])!r}",
                    lambda: max(v.max() - 1.0, -v.min()))
    d = np.diff(v)
    _reference_kind(out, "monotonicity", d < -eps,
                    lambda i: (f"monotonicity violation at index {i + 1}: "
                               f"{float(v[i + 1])!r} < {float(v[i])!r}"),
                    lambda: -d.min())
    if abs(v[-1] - 1.0) > eps:
        out.append(f"total-mass violation: F(last break) = {float(v[-1])!r} != 1")
    return out


def validate_bi_reference(F, eps=EPS_CDF):
    c = F.cdf
    nx, ny = c.shape
    m1, m2 = c[:, -1][:, None], c[-1, :]
    dx, dy = np.diff(c, axis=0), np.diff(c, axis=1)
    cell = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    out = []
    _reference_kind(out, "out-of-[0,1]", exceeds(0.0, c, eps) | exceeds(c, 1.0, eps),
                    lambda i, j: f"value out of [0,1] at ({i},{j}): {float(c[i, j])!r}",
                    lambda: max(c.max() - 1.0, -c.min()))
    _reference_kind(out, "monotonicity along x", dx < -eps,
                    lambda i, j: f"monotonicity violation along x at ({i + 1},{j})",
                    lambda: -dx.min())
    _reference_kind(out, "monotonicity along y", dy < -eps,
                    lambda i, j: f"monotonicity violation along y at ({i},{j + 1})",
                    lambda: -dy.min())
    if nx > 1 and ny > 1:
        _reference_kind(out, "rectangle inequality", cell < -eps,
                        lambda i, j: (f"rectangle inequality violation at cell ({i},{j}): "
                                      f"mass {float(cell[i, j])!r}"),
                        lambda: -cell.min())
    if abs(c[-1, -1] - 1.0) > eps:
        out.append(f"total-mass violation: F(last,last) = {float(c[-1, -1])!r} != 1")
    _reference_kind(out, "Frechet upper-bound", exceeds(c, np.minimum(m1, m2), eps),
                    lambda i, j: f"Frechet upper-bound violation at ({i},{j})",
                    lambda: (c - np.minimum(m1, m2)).max())
    _reference_kind(out, "Frechet lower-bound", exceeds(m1 + m2 - 1.0, c, eps),
                    lambda i, j: f"Frechet lower-bound violation at ({i},{j})",
                    lambda: (m1 + m2 - 1.0 - c).max())
    return out


def ulp_shifted(rng, x):
    """x moved by a random whole number of ulps in [-3, 3], elementwise."""
    x = np.array(x, dtype=float)
    steps = rng.integers(-3, 4, x.shape)
    for k in range(3):
        x = np.where(steps > k, np.nextafter(x, np.inf), x)
        x = np.where(steps < -k, np.nextafter(x, -np.inf), x)
    return x


def boundary_values(rng, n, eps, extra=()):
    """n values within a few ulps of 0, 1, -eps, 1 + eps or a value of extra, or noise."""
    levels = np.array([0.0, 1.0, -eps, 1.0 + eps, *extra])
    values = ulp_shifted(rng, levels[rng.integers(0, levels.size, n)])
    noise = rng.random(n) < 0.2
    values[noise] = rng.uniform(-0.5, 1.5, np.count_nonzero(noise))
    return values


def boundary_univariate_values(rng, eps, max_size=30):
    """Values whose neighbours sit a few ulps around each bound of validate_uni."""
    v = boundary_values(rng, int(rng.integers(1, max_size + 1)), eps)
    for i in range(1, v.size):   # some steps of 0 or -eps, give or take ulps
        if rng.random() < 0.4:
            v[i] = ulp_shifted(rng, v[i - 1] - eps * rng.integers(0, 2))
    return v


def boundary_bivariate_cdf(rng, eps, max_size=14):
    """A grid whose values sit a few ulps around each bound of validate_bi, plus noise.

    The marginals (last column and row) come first; every other value is
    near 0, 1, -eps, 1 + eps, a Frechet bound or that bound moved by eps,
    its neighbour above or to the left (less eps), or the value that gives its
    cell zero mass (less eps), or it is noise.
    """
    nx, ny = (int(k) for k in rng.integers(1, max_size + 1, 2))
    c = np.empty((nx, ny))
    c[:, -1] = boundary_values(rng, nx, eps)
    c[-1, :] = boundary_values(rng, ny, eps)
    c[-1, -1] = ulp_shifted(rng, rng.choice([1.0, 1.0 - eps, 1.0 + eps]))
    for i in range(nx - 1):
        for j in range(ny - 1):
            upper = min(c[i, -1], c[-1, j])
            lower = c[i, -1] + c[-1, j] - 1.0
            near = [upper, upper + eps, lower, lower - eps]
            if i:
                near += [c[i - 1, j], c[i - 1, j] - eps]
            if j:
                near += [c[i, j - 1], c[i, j - 1] - eps]
            if i and j:
                zero = c[i - 1, j] + c[i, j - 1] - c[i - 1, j - 1]
                near += [zero, zero - eps]
            c[i, j] = boundary_values(rng, 1, eps, near)[0]
    return BivariateCDF(np.arange(float(nx)), np.arange(float(ny)), c)


def sparse_bivariate_cdf(rng, nx, ny, zero_share, offset=0.0):
    """Random valid CDF whose cell masses are 0 with probability zero_share.

    Zero masses give cells with F = 0, so both ratio-field sentinels occur:
    +inf where both marginals are positive and nan where one is 0.
    """
    masses = rng.uniform(0.05, 1.0, (nx, ny)) * (rng.random((nx, ny)) >= zero_share)
    masses[-1, -1] += 0.1
    cdf = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    cdf /= cdf[-1, -1]
    cdf[-1, -1] = 1.0
    return BivariateCDF(offset + random_breaks(rng, nx), offset + random_breaks(rng, ny), cdf)


def seeded_pairs(seed, count=25):
    """Pairs of sparse CDFs on offset grids of 3 to 24 rows and columns."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield tuple(sparse_bivariate_cdf(rng, *rng.integers(3, 25, 2),
                                         rng.uniform(0.0, 0.8), rng.uniform(-2.0, 2.0))
                    for _ in range(2))


def stream_cases():
    """Pairs for biconv: products, point masses, 1xn and nx1 grids, random pairs."""
    u, v = np.array([0.8, 0.9, 1.0]), np.array([0.7, 0.95, 1.0])
    product = BivariateCDF([0, 1, 2], [0, 1, 2], u[:, None] * v[None, :])
    point = BivariateCDF([0.5], [0.5], [[1.0]])
    row = BivariateCDF([0.0], [0.0, 1.0, 2.0], [[0.25, 0.5, 1.0]])
    col = BivariateCDF([0.0, 1.5, 2.0], [0.0], [[0.25], [0.75], [1.0]])
    yield from [(product, product), (point, point), (point, product), (row, row),
                (col, col), (row, col)]
    yield from seeded_pairs(51, 8)


# Whole-array forms of the grid kernels, as they were before the kernels ran
# in row blocks: the references the blocked kernels must match byte for byte.

def evaluate_grid_reference(F, xs, ys):
    xi = np.searchsorted(F.x_breaks, xs, side="right") - 1
    yj = np.searchsorted(F.y_breaks, ys, side="right") - 1
    vals = F.cdf[np.ix_(np.maximum(xi, 0), np.maximum(yj, 0))]
    mask = (xi[:, None] >= 0) & (yj[None, :] >= 0)
    return np.where(mask, vals, 0.0)


def psi_reference(cdf):
    m1, m2 = cdf[:, -1][:, None], cdf[-1, :][None, :]
    num = m1 * m2
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = num / cdf
    # both marginals positive, not their product, which can underflow
    positive = (m1 > 0.0) & (m2 > 0.0)
    psi = np.where((cdf == 0.0) & positive, np.inf, psi)
    psi = np.where((cdf == 0.0) & ~positive, np.nan, psi)
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
    r1 = (f1 + (n - 1.0)) / n
    r2 = (f2 + (n - 1.0)) / n
    psi_n = (psi_reference(F.cdf) + (n - 1.0)) / n
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


def dyadic_max_stable_cdf(theta, h, K=60):
    """A bi-free max-stable law on the breaks 0..K, exact in binary.

    The marginals are free-exponential in base 2, F_j(k) = 1 - 2^-k with
    F_j(K) = 1, and the ratio field is psi - 1 = theta * h(1 - F_1, 1 - F_2)
    for an h that is positively 1-homogeneous and 0 on the axes, so that
    psi(s, last) = 1.  The n-fold power at n = 2^m, pulled back by
    (1, m, 1, m), is F again in exact arithmetic, except near the top break.
    """
    u = 2.0 ** -np.arange(K + 1.0)
    u[-1] = 0.0
    f = 1.0 - u
    num = f[:, None] * f[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.where(num > 0.0, num / (1.0 + theta * h(u[:, None], u[None, :])), 0.0)
    return BivariateCDF(np.arange(K + 1.0), np.arange(K + 1.0), cdf)


# Grid documents for the loaders and the CLI's one-pass reader: each loader
# reads each at each buffer size in CHUNKS.

GRID = {"x_breaks": [-1.5, 0.0, 2.0], "y_breaks": [0.25, 1.0],
        "cdf": [[0.0, 0.1], [0.2, 0.5], [0.3, 1.0]]}
EXTREMES = {"x_breaks": [-0.0, 5e-324, 1e-7], "y_breaks": [1e-7, 1 - 2 ** -53],
            "cdf": [[-0.0, 5e-324], [1e-7, 1 - 2 ** -53], [0.5, 1.0]]}
SPLICED = '{"x_breaks": [0, 1], "y_breaks": [0, 1], "cdf": '


def _dumps(obj, **kw):
    return json.dumps(obj, **kw) + "\n"


def _documents():
    docs = {}
    for order in itertools.permutations(GRID):
        docs["order-" + "-".join(order)] = _dumps({k: GRID[k] for k in order})
    docs["indent-2"] = _dumps(GRID, indent=2)
    docs["compact"] = json.dumps(GRID, separators=(",", ":"))
    docs["crlf-tabs"] = _dumps(GRID, indent="\t").replace("\n", "\r\n")
    docs["extra-keys"] = _dumps({"meta": {"note": "}],:", "n": [1, None, True]},
                                 **GRID, "zz": "x"})
    # 2-, 3- and 4-byte UTF-8 characters, which reads of 1, 2 and 7 bytes split
    docs["utf-8"] = _dumps({"é€𝔽": ["é€𝔽", 1], **GRID, "𝔽€é": "é€𝔽"}, ensure_ascii=False)
    # a number at the top of a value can be cut anywhere by the buffer: 1.|5, 1e|-7
    docs["scalar-values"] = _dumps({"a": 12.5e-1, "b": -1.5e+10, "c": 1234, "d": True,
                                    **GRID, "e": None, "f": -0.0, "g": 1e-7})
    docs["duplicate-cdf"] = _dumps(GRID)[:-2] + ', "cdf": [[1, 1], [1, 1], [1, 1.0]]}'
    docs["duplicate-cdf-bad-first"] = '{"cdf": [[1], [2, 3]], ' + _dumps(GRID)[1:]
    docs["escaped-key"] = _dumps(GRID).replace('"cdf"', '"\\u0063df"')
    docs["integers-and-bools"] = SPLICED + "[[0, false], [1, true]]}"
    docs["1x1"] = _dumps({"x_breaks": [3.0], "y_breaks": [4.0], "cdf": [[1.0]]})
    docs["extremes"] = _dumps(EXTREMES)
    docs["long-decimals"] = SPLICED + "[[0.1000000000000000055511151231257827, 1e-7], [12.5e-1, 1E0]]}"
    for literal in ("NaN", "Infinity", "-Infinity"):
        docs["cdf-" + literal] = SPLICED + f"[[0, {literal}], [1, 1]]}}"
        docs["breaks-" + literal] = _dumps(GRID).replace("2.0]", literal + "]")
    docs["ragged"] = SPLICED + "[[0, 1], [1]]}"
    docs["scalar-row"] = SPLICED + "[[0, 1], 1]}"
    docs["null-in-row"] = SPLICED + "[[0, null], [1, 1]]}"
    docs["string-in-row"] = SPLICED + '[[0, "1"], [1, 1]]}'
    docs["3-d"] = SPLICED + "[[[0], [1]], [[1], [1]]]}"
    docs["empty-cdf"] = SPLICED + "[]}"
    docs["empty-rows"] = SPLICED + "[[], []]}"
    docs["cdf-not-array"] = SPLICED + "1}"
    docs["missing-key"] = _dumps({"x_breaks": [0], "cdf": [[1]]})
    docs["empty-object"] = "{}"
    docs["trailing-comma"] = SPLICED + "[[0, 1], [1, 1],]}"
    docs["key-not-string"] = '{1: 2}'
    for name, top in {"list": "[1, 2]", "string": '"x"', "number": "3", "null": "null",
                      "empty": "", "blank": " \n"}.items():
        docs["top-" + name] = top
    docs["trailing-data"] = _dumps(GRID) + "x"
    docs["trailing-object"] = _dumps(GRID) + "{}"
    docs["trailing-bracket"] = _dumps(GRID).strip() + "]"
    docs["bad-number"] = SPLICED + "[[0, 1.], [1, 1]]}"
    docs["bad-exponent"] = SPLICED + "[[0, 1e], [1, 1]]}"
    docs["number-then-letter"] = SPLICED + "[[0, 1x], [1, 1]]}"
    return docs


DOCUMENTS = _documents()
CHUNKS = [1, 2, 7, 64, gridio.JSON_CHUNK_CHARS]


# Key orders and documents that fill the preallocated array, leave it, or must not make it.
ORDER_DOCUMENTS = {
    "cdf-first": '{"cdf": [[0, 0.5], [0.5, 1]], "x_breaks": [0, 1], "y_breaks": [0, 1]}',
    "cdf-between": '{"x_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]], "y_breaks": [0, 1]}',
    "x-repeated-shorter": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], '
                          '"cdf": [[0, 0.5], [0.5, 1]], "x_breaks": [0, 1]}',
    "x-repeated-longer": SPLICED + '[[0, 0.5], [0.5, 0.5], [0.5, 1]], "x_breaks": [0, 1, 2]}',
    "fewer-rows": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]]}',
    "no-rows": SPLICED + "[]}",
    "more-rows": SPLICED + "[[0, 0.5], [0.5, 1], [0.5, 1]]}",
    "middle-row-short": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], '
                        '"cdf": [[0, 0.5], [0.5], [0.5, 1]]}',
    "middle-row-long": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], '
                       '"cdf": [[0, 0.5], [0.5, 0.5, 0.5], [0.5, 1]]}',
    "string-rows": SPLICED + '[["0", "0.5"], ["0.5", "1"]]}',
    "bool-rows": SPLICED + "[[false, false], [true, true]]}",
    "null-rows": SPLICED + "[[0, 0.5], [null, 1]]}",
    "x-string": '{"x_breaks": "01", "y_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]]}',
    "x-number": '{"x_breaks": 2, "y_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]]}',
}


# The one-pass harness's commands: each CLI call that reads a grid, and the
# whole-load outcome that its one pass must give.

#: The normalization (a, b, c, d) of the stability calls that every command makes.
NORM = (1.5, 0.25, 0.75, -0.5)

#: Each CLI command that reads a grid, with its n: in the biconv rows the grid
#: under test is F or G, beside another input.
COMMANDS = [("validate", 2), ("nfold", 1), ("nfold", 3), ("root", 2), ("plotdata", 2),
            ("stability", 1), ("stability", 3), ("biconv-F", None), ("biconv-G", None)]


#: The other input of a biconv row, beside a document as F or as G: a valid
#: grid that is not the document's.
F_FOR_DOCUMENTS = BivariateCDF([-1.0, 0.5], [0.5, 2.0], [[0.1, 0.3], [0.4, 1.0]])

#: A valid 2 x 2 grid's text, less its closing brace.
G_TEXT = '{"x_breaks": [0, 1], "y_breaks": [0, 1], "cdf": [[0.25, 0.5], [0.5, 1.0]]'


def inputs(command, path, other):
    """The input paths of command's call on the grid at path; biconv's other input is other."""
    return {"biconv-F": [path, other], "biconv-G": [other, path]}.get(command, [path])


def argv(command, paths, n, out):
    """The CLI call of command on paths, writing to out."""
    files = [str(p) for p in paths]
    if command == "validate":
        return ["validate", *files, "--kind", "bi"]
    if command == "stability":
        return ["stability", *files, str(n), *map(repr, NORM)]
    if command in ("nfold", "root"):
        files.append(str(n))
    return [command.partition("-")[0], *files, "--out", str(out)]


def biconv_stdout(F, G, H, out, tol=EPS_CDF):
    """What ``biconv`` printed when it held H: the marginal check on H's last
    column and the psi range of the whole array."""
    last = H.y_breaks[-1:]
    h1 = np.maximum(0.0, F.evaluate_grid(H.x_breaks, last)[:, 0]
                    + G.evaluate_grid(H.x_breaks, last)[:, 0] - 1.0)
    ok = np.array_equal(H.cdf[:, -1], h1)
    text = (f"wrote {out}: grid {H.x_breaks.size}x{H.y_breaks.size}, "
            f"total mass {float(H.cdf[-1, -1])!r}, marginal check {'OK' if ok else 'FAILED'}\n")
    psi = psi_reference(H.cdf)
    finite = psi[np.isfinite(psi)]
    if finite.size and max(finite.max() - 1.0, 1.0 - finite.min()) <= tol:
        text += "psi == 1 (product output)\n"
    return text


def _validate(F, n, out, shown, tol):
    violations = validate_bi(F, tol)
    return int(bool(violations)), "".join(v + "\n" for v in violations or ["OK"])


def _nfold(F, n, out, shown, tol):
    H = nfold(F, n, tol)
    save_bi_json(H, out)
    return 0, f"wrote {shown}: {n}-fold power, total mass {float(H.cdf[-1, -1])!r}\n"


def _root(F, n, out, shown, tol):
    res = nth_root(F, n, tol)
    if res.ok:
        save_bi_json(res.candidate, out)
        return 0, f"wrote {shown}: valid {n}-th root candidate\n"
    out.write_text(json.dumps({"divisibility_failure": res.violations}, indent=2) + "\n")
    lines = "".join(f"  {v}\n" for v in res.violations)
    return 1, f"not {n}-divisible; report written to {shown}:\n" + lines


def _plotdata(F, n, out, shown, tol):
    require_valid_bi(F, tol)
    with open(out, "w") as fh:
        for x, row in zip(F.x_breaks.tolist(), F.cdf.tolist()):
            for y, v in zip(F.y_breaks.tolist(), row):
                fh.write(f"{x!r}\t{y!r}\t{v!r}\n")
    return 0, f"wrote {shown}: {F.cdf.size} rows\n"


def _stability(F, n, out, shown, tol):
    return 0, f"{max_stable_residual(F, n, AffineNormalization(*NORM), tol):.10g}\n"


def _biconv(F, G, n, out, shown, tol):
    H = bifree_max_convolve(F, G, tol)
    save_bi_json(H, out)
    return 0, biconv_stdout(F, G, H, shown, tol)


#: The whole-array form of each command: the library call on the loaded
#: inputs, writing to out and giving (exit code, stdout).
_WHOLE = {"validate": _validate, "nfold": _nfold, "root": _root, "plotdata": _plotdata,
          "stability": _stability, "biconv-F": _biconv, "biconv-G": _biconv}


def outcome(command, paths, n, out, shown, tol=EPS_CDF):
    """Exit code, stdout, stderr and output bytes of loading every input whole
    with load_bi_json, in order, and then the library call, or of their error,
    as the CLI reports them with ``--out shown``."""
    try:
        code, stdout = _WHOLE[command](*map(load_bi_json, paths), n, out, shown, tol)
    except (CDFFormatError, OSError) as exc:
        return 2, "", f"error: {exc}\n", None
    except (CDFError, ValueError) as exc:
        return 1, "", f"error: {exc}\n", None
    return code, stdout, "", out.read_bytes() if out.exists() else None


def fresh_run(args, **env_changes):
    """Run a fresh interpreter with ``args``, importing the bifreemax that this
    process imported: the checkout's or an installed one."""
    package_dir = str(Path(bifreemax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_dir, os.environ.get("PYTHONPATH")])))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def fresh_python(code, *argv, **env_changes):
    """The stdout of ``code`` run by fresh_run with ``argv``, which must exit 0."""
    done = fresh_run(["-c", code, *argv], **env_changes)
    done.check_returncode()
    return done.stdout


def through_a_pipe(fifo, data, call):
    """The result of ``call()``, made while a thread writes ``data`` to the
    named pipe ``fifo``, which is made for the call and removed after it."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        result = call()
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    fifo.unlink()
    return result


def peak(call, warm_up=None):
    """``call()`` and the peak of what it allocates, by tracemalloc, which no
    other place in the suite starts; an exception it raises carries the peak
    as ``.peak``.  ``warm_up()`` runs untraced first, for numpy's first-call
    allocations and what numpy imports lazily, and the traced call must then
    import no module."""
    if warm_up is not None:
        warm_up()
    modules = set(sys.modules)
    tracemalloc.start()
    try:
        result = call()
        top = tracemalloc.get_traced_memory()[1]
    except Exception as exc:
        exc.peak = tracemalloc.get_traced_memory()[1]
        raise
    finally:
        tracemalloc.stop()
    if warm_up is not None:
        assert set(sys.modules) <= modules, sorted(set(sys.modules) - modules)
    return result, top
