"""Grid-represented distribution functions on the line and the plane.

A CDF here is piecewise constant and right-continuous: it is determined
by a strictly increasing breakpoint grid and the values attained at the
breakpoints.  Below the first breakpoint the function is 0; at and above
the last breakpoint it keeps its last value.  This is exact for discrete
measures supported on the grid, which is all the convolution formulas in
this package ever consume.

Validation never raises on bad *data*; it returns a list of named
violations.  Structural problems (non-increasing grids, shape mismatch,
non-finite entries) are programming errors and raise immediately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Default tolerance for validating CDFs built from floating-point data.
EPS_CDF = 1e-9


class CDFError(ValueError):
    """Base class for CDF data errors."""


class InvalidCDFError(CDFError):
    """Raised when an operation receives a CDF that fails validation."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid CDF: " + "; ".join(violations))
        self.violations = violations


class CDFFormatError(CDFError):
    """Raised when a CDF/sample file does not match the expected schema."""


def _check_breaks(breaks: np.ndarray, name: str) -> np.ndarray:
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size == 0:
        raise CDFError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(breaks)):
        raise CDFError(f"{name} must be finite")
    if breaks.size > 1 and not np.all(np.diff(breaks) > 0):
        raise CDFError(f"{name} must be strictly increasing")
    return breaks


def _step_index(breaks: np.ndarray, s) -> np.ndarray:
    """Index of the grid cell containing s under right-continuity (-1 below grid)."""
    return np.searchsorted(breaks, s, side="right") - 1


@dataclass(frozen=True)
class UnivariateCDF:
    """Right-continuous distribution function of a probability measure on R."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks = _check_breaks(self.breaks, "breaks")
        values = np.asarray(self.values, dtype=float)
        if values.shape != breaks.shape:
            raise CDFError("values must have the same length as breaks")
        if not np.all(np.isfinite(values)):
            raise CDFError("values must be finite")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    def evaluate(self, s) -> np.ndarray:
        """Evaluate F(s); s may be a scalar or an array."""
        idx = _step_index(self.breaks, s)
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return out if np.ndim(s) else float(out)


@dataclass(frozen=True)
class BivariateCDF:
    """Right-continuous distribution function of a probability measure on R^2.

    ``cdf[i, j]`` is the value at ``(x_breaks[i], y_breaks[j])``.
    """

    x_breaks: np.ndarray
    y_breaks: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        xb = _check_breaks(self.x_breaks, "x_breaks")
        yb = _check_breaks(self.y_breaks, "y_breaks")
        cdf = np.asarray(self.cdf, dtype=float)
        if cdf.shape != (xb.size, yb.size):
            raise CDFError("cdf must have shape (len(x_breaks), len(y_breaks))")
        if not np.all(np.isfinite(cdf)):
            raise CDFError("cdf values must be finite")
        object.__setattr__(self, "x_breaks", xb)
        object.__setattr__(self, "y_breaks", yb)
        object.__setattr__(self, "cdf", cdf)

    def evaluate(self, s, t) -> float:
        """Evaluate F(s, t) at a single point."""
        i = int(_step_index(self.x_breaks, s))
        j = int(_step_index(self.y_breaks, t))
        if i < 0 or j < 0:
            return 0.0
        return float(self.cdf[i, j])

    def evaluate_grid(self, xs, ys) -> np.ndarray:
        """Evaluate F on the product grid xs x ys; returns a matrix."""
        xi = _step_index(self.x_breaks, np.asarray(xs, dtype=float))
        yj = _step_index(self.y_breaks, np.asarray(ys, dtype=float))
        vals = self.cdf[np.ix_(np.maximum(xi, 0), np.maximum(yj, 0))]
        mask = (xi[:, None] >= 0) & (yj[None, :] >= 0)
        return np.where(mask, vals, 0.0)


@dataclass(frozen=True)
class AffineNormalization:
    """Per-axis affine change of variables (s, t) -> (a*s + b, c*t + d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0):
            raise CDFError("scales a and c must be positive")

    @classmethod
    def identity(cls) -> "AffineNormalization":
        return cls(1.0, 0.0, 1.0, 0.0)

    def inverse(self) -> "AffineNormalization":
        return AffineNormalization(1.0 / self.a, -self.b / self.a,
                                   1.0 / self.c, -self.d / self.c)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_uni(F: UnivariateCDF, eps: float = EPS_CDF) -> list[str]:
    """Check the distribution-function axioms; returns named violations."""
    v = F.values
    out = []
    bad = np.flatnonzero((v < -eps) | (v > 1.0 + eps))
    for i in bad:
        out.append(f"value out of [0,1] at index {i}: {float(v[i])!r}")
    dec = np.flatnonzero(np.diff(v) < -eps)
    for i in dec:
        out.append(f"monotonicity violation at index {i + 1}: "
                   f"{float(v[i + 1])!r} < {float(v[i])!r}")
    if abs(v[-1] - 1.0) > eps:
        out.append(f"total-mass violation: F(last break) = {float(v[-1])!r} != 1")
    return out


def validate_bi(F: BivariateCDF, eps: float = EPS_CDF) -> list[str]:
    """Check the bivariate distribution-function axioms.

    The rectangle inequality is checked on adjacent grid cells only;
    general rectangles are sums of adjacent cells, so adjacency suffices.
    """
    c = F.cdf
    out = []
    bad = np.argwhere((c < -eps) | (c > 1.0 + eps))
    for i, j in bad:
        out.append(f"value out of [0,1] at ({i},{j}): {float(c[i, j])!r}")
    for i, j in np.argwhere(np.diff(c, axis=0) < -eps):
        out.append(f"monotonicity violation along x at ({i + 1},{j})")
    for i, j in np.argwhere(np.diff(c, axis=1) < -eps):
        out.append(f"monotonicity violation along y at ({i},{j + 1})")
    if c.shape[0] > 1 and c.shape[1] > 1:
        cell = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        for i, j in np.argwhere(cell < -eps):
            out.append(f"rectangle inequality violation at cell ({i},{j}): "
                       f"mass {float(cell[i, j])!r}")
    if abs(c[-1, -1] - 1.0) > eps:
        out.append(f"total-mass violation: F(last,last) = {float(c[-1, -1])!r} != 1")
    m1 = c[:, -1][:, None]
    m2 = c[-1, :][None, :]
    for i, j in np.argwhere((c > m1 + eps) | (c > m2 + eps)):
        out.append(f"Frechet upper-bound violation at ({i},{j})")
    for i, j in np.argwhere(c < m1 + m2 - 1.0 - eps):
        out.append(f"Frechet lower-bound violation at ({i},{j})")
    return out


def require_valid_uni(F: UnivariateCDF, eps: float = EPS_CDF) -> UnivariateCDF:
    violations = validate_uni(F, eps)
    if violations:
        raise InvalidCDFError(violations)
    return F


def require_valid_bi(F: BivariateCDF, eps: float = EPS_CDF) -> BivariateCDF:
    violations = validate_bi(F, eps)
    if violations:
        raise InvalidCDFError(violations)
    return F


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def marginals(F: BivariateCDF, eps: float = EPS_CDF) -> tuple[UnivariateCDF, UnivariateCDF]:
    """Marginal distribution functions (last column / last row read-off)."""
    require_valid_bi(F, eps)
    return (UnivariateCDF(F.x_breaks, F.cdf[:, -1].copy()),
            UnivariateCDF(F.y_breaks, F.cdf[-1, :].copy()))


def merge_uni_grids(F: UnivariateCDF, G: UnivariateCDF) -> tuple[UnivariateCDF, UnivariateCDF]:
    """Re-express both univariate CDFs on the union of their grids."""
    breaks = np.union1d(F.breaks, G.breaks)
    return (UnivariateCDF(breaks, F.evaluate(breaks)),
            UnivariateCDF(breaks, G.evaluate(breaks)))


def merge_grids(F: BivariateCDF, G: BivariateCDF,
                eps: float = EPS_CDF) -> tuple[BivariateCDF, BivariateCDF]:
    """Re-express both bivariate CDFs on the union grid, per axis.

    Values at original breakpoints are unchanged; new points are filled by
    right-continuous evaluation, so both outputs represent the same measures.
    """
    require_valid_bi(F, eps)
    require_valid_bi(G, eps)
    xb = np.union1d(F.x_breaks, G.x_breaks)
    yb = np.union1d(F.y_breaks, G.y_breaks)
    return (BivariateCDF(xb, yb, F.evaluate_grid(xb, yb)),
            BivariateCDF(xb, yb, G.evaluate_grid(xb, yb)))


def affine_transform(F: BivariateCDF, n: AffineNormalization,
                     eps: float = EPS_CDF) -> BivariateCDF:
    """The CDF (s, t) -> F(a*s + b, c*t + d).

    Breakpoints are pulled back through the affine map; values are unchanged.
    """
    require_valid_bi(F, eps)
    return BivariateCDF((F.x_breaks - n.b) / n.a,
                        (F.y_breaks - n.d) / n.c,
                        F.cdf.copy())


def ecdf_from_samples(points) -> BivariateCDF:
    """Empirical CDF of a non-empty list of (x, y) samples.

    Duplicate coordinates collapse into one breakpoint; cell masses are
    multiples of 1/N.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise CDFError("ecdf_from_samples requires at least one sample")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise CDFError("samples must be (x, y) pairs")
    xs, ys = pts[:, 0], pts[:, 1]
    xb = np.unique(xs)
    yb = np.unique(ys)
    counts = ((xs[None, None, :] <= xb[:, None, None])
              & (ys[None, None, :] <= yb[None, :, None])).sum(axis=2)
    return BivariateCDF(xb, yb, counts / pts.shape[0])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_uni_json(F: UnivariateCDF, path) -> None:
    # json.dumps, unlike json.dump, runs the C encoder; the bytes are the same.
    with open(path, "w") as fh:
        fh.write(json.dumps({"breaks": F.breaks.tolist(),
                             "values": F.values.tolist()}) + "\n")


def load_uni_json(path) -> UnivariateCDF:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return UnivariateCDF(np.asarray(data["breaks"], dtype=float),
                             np.asarray(data["values"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise CDFFormatError(f"bad univariate CDF file {path}: {exc}") from exc


def save_bi_json(F: BivariateCDF, path) -> None:
    # Written row by row through the C encoder, so the whole matrix never
    # exists as Python floats; the bytes equal json.dump of the dict + "\n".
    with open(path, "w") as fh:
        fh.write(f'{{"x_breaks": {json.dumps(F.x_breaks.tolist())}, '
                 f'"y_breaks": {json.dumps(F.y_breaks.tolist())}, "cdf": [')
        for i, row in enumerate(F.cdf):
            if i:
                fh.write(", ")
            fh.write(json.dumps(row.tolist()))
        fh.write("]}\n")


def load_bi_json(path) -> BivariateCDF:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return BivariateCDF(np.asarray(data["x_breaks"], dtype=float),
                            np.asarray(data["y_breaks"], dtype=float),
                            np.asarray(data["cdf"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise CDFFormatError(f"bad bivariate CDF file {path}: {exc}") from exc


def load_samples_tsv(path) -> np.ndarray:
    """Read "x<TAB>y" sample pairs; '#'-prefixed lines are comments."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CDFFormatError(f"{path}:{lineno}: expected 'x<TAB>y'")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise CDFFormatError(f"{path}:{lineno}: {exc}") from exc
    return np.asarray(rows, dtype=float).reshape(-1, 2)
