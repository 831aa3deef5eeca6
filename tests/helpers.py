"""Shared random generators, reference implementations, fresh-process runners
and a pipe feeder for the test suite."""

import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np

import bifreemax
from bifreemax import BivariateCDF, CDFFormatError, ProjectionPairLaw, UnivariateCDF
from bifreemax.cdf import EPS_CDF, MAX_LISTED


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
