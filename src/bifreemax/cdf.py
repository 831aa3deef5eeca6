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
import math
import re
from dataclasses import dataclass

import numpy as np

#: Default tolerance for validating CDFs built from floating-point data.
EPS_CDF = 1e-9

#: Locations listed per kind of violation; the rest are summed up in one line.
MAX_LISTED = 10

#: Largest grid, in cells, an operation may allocate: 256 MiB per float64 array.
MAX_CELLS = 2 ** 25

#: Cells per row block of a grid kernel: 512 KiB per float64 temporary.
BLOCK_CELLS = 2 ** 16

#: Characters read per refill of the JSON loader's text buffer.
JSON_CHUNK_CHARS = 2 ** 16


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


def row_blocks(nrows: int, ncols: int):
    """Consecutive row slices of an nrows x ncols grid, about BLOCK_CELLS cells each.

    Grid kernels compute each block's temporaries and write or reduce them
    before the next block, so a call's peak memory is its output plus one
    block.  Elementwise operations and max/min do not depend on the blocking.
    """
    step = max(1, BLOCK_CELLS // max(ncols, 1))
    for lo in range(0, nrows, step):
        yield slice(lo, min(lo + step, nrows))


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
        # min and max propagate nan, so this needs no cells-sized mask
        if not (np.isfinite(cdf.min()) and np.isfinite(cdf.max())):
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
        vals[xi < 0] = 0.0
        vals[:, yj < 0] = 0.0
        return vals


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

def _report_kind(out: list[str], kind: str, nrows: int, ncols: int,
                 mask, line, worst) -> None:
    """Append the first MAX_LISTED violations of one kind, in row-major order.

    The kind is checked on an nrows x ncols array one row block at a time:
    ``mask(rows)`` flags the violations in those rows and ``line(i, j)``
    formats one location.  If more remain, one summary line follows with
    their exact count and the largest ``worst(rows)``: the largest amount by
    which a value of this kind passes its bound (every reported amount
    exceeds eps).  ``worst`` is only called when that line is written.
    """
    count = 0
    for rows in row_blocks(nrows, ncols):
        hits = np.flatnonzero(mask(rows))
        for k in hits[:max(0, MAX_LISTED - count)]:
            i, j = divmod(int(k), ncols)
            out.append(line(rows.start + i, j))
        count += hits.size
    if count > MAX_LISTED:
        amount = max(worst(rows) for rows in row_blocks(nrows, ncols))
        out.append(f"... and {count - MAX_LISTED} more {kind} violations, "
                   f"worst {float(amount)!r}")


def validate_uni(F: UnivariateCDF, eps: float = EPS_CDF) -> list[str]:
    """Check the distribution-function axioms; returns named violations.

    At most MAX_LISTED locations are listed per kind, then a summary line.
    """
    v = F.values
    out = []
    _report_kind(out, "out-of-[0,1]", v.size, 1,
                 lambda r: (v[r] < -eps) | (v[r] > 1.0 + eps),
                 lambda i, _: f"value out of [0,1] at index {i}: {float(v[i])!r}",
                 lambda r: max(v[r].max() - 1.0, -v[r].min()))
    d = np.diff(v)
    _report_kind(out, "monotonicity", d.size, 1, lambda r: d[r] < -eps,
                 lambda i, _: (f"monotonicity violation at index {i + 1}: "
                               f"{float(v[i + 1])!r} < {float(v[i])!r}"),
                 lambda r: -d[r].min())
    if abs(v[-1] - 1.0) > eps:
        out.append(f"total-mass violation: F(last break) = {float(v[-1])!r} != 1")
    return out


def validate_bi(F: BivariateCDF, eps: float = EPS_CDF) -> list[str]:
    """Check the bivariate distribution-function axioms.

    The rectangle inequality is checked on adjacent grid cells only;
    general rectangles are sums of adjacent cells, so adjacency suffices.
    At most MAX_LISTED locations are listed per kind, then a summary line
    with the count of the rest and the worst amount.  Every invariant is
    computed one row block at a time, so no temporary is cells-sized.
    """
    c = F.cdf
    nx, ny = c.shape
    m1, m2 = c[:, -1], c[-1, :]
    out = []

    def dx(r):  # rows r of np.diff(c, axis=0)
        return np.diff(c[r.start:r.stop + 1], axis=0)

    def dy(r):
        return np.diff(c[r], axis=1)

    def cell(r):  # rows r of the masses of the adjacent grid cells
        a = c[r.start:r.stop + 1]
        return a[1:, 1:] - a[:-1, 1:] - a[1:, :-1] + a[:-1, :-1]

    _report_kind(out, "out-of-[0,1]", nx, ny,
                 lambda r: (c[r] < -eps) | (c[r] > 1.0 + eps),
                 lambda i, j: f"value out of [0,1] at ({i},{j}): {float(c[i, j])!r}",
                 lambda r: max(c[r].max() - 1.0, -c[r].min()))
    _report_kind(out, "monotonicity along x", nx - 1, ny, lambda r: dx(r) < -eps,
                 lambda i, j: f"monotonicity violation along x at ({i + 1},{j})",
                 lambda r: -dx(r).min())
    _report_kind(out, "monotonicity along y", nx, ny - 1, lambda r: dy(r) < -eps,
                 lambda i, j: f"monotonicity violation along y at ({i},{j + 1})",
                 lambda r: -dy(r).min())
    if nx > 1 and ny > 1:
        _report_kind(out, "rectangle inequality", nx - 1, ny - 1, lambda r: cell(r) < -eps,
                     lambda i, j: (f"rectangle inequality violation at cell ({i},{j}): "
                                   f"mass {float(cell(slice(i, i + 1))[0, j])!r}"),
                     lambda r: -cell(r).min())
    if abs(c[-1, -1] - 1.0) > eps:
        out.append(f"total-mass violation: F(last,last) = {float(c[-1, -1])!r} != 1")
    _report_kind(out, "Frechet upper-bound", nx, ny,
                 lambda r: (c[r] > m1[r, None] + eps) | (c[r] > m2 + eps),
                 lambda i, j: f"Frechet upper-bound violation at ({i},{j})",
                 lambda r: (c[r] - np.minimum(m1[r, None], m2)).max())
    _report_kind(out, "Frechet lower-bound", nx, ny,
                 lambda r: c[r] < m1[r, None] + m2 - 1.0 - eps,
                 lambda i, j: f"Frechet lower-bound violation at ({i},{j})",
                 lambda r: (m1[r, None] + m2 - 1.0 - c[r]).max())
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

def require_cells(nx: int, ny: int, what: str) -> None:
    """Raise CDFError if an nx x ny grid is over the MAX_CELLS budget."""
    cells = nx * ny
    if cells > MAX_CELLS:
        raise CDFError(f"{what} would need a {nx}x{ny} grid: {cells} cells, "
                       f"{8 * cells} bytes per float64 array; the budget is "
                       f"{MAX_CELLS} cells")


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
    xb, yb = _union_grid(F, G, "merge_grids")
    return (BivariateCDF(xb, yb, F.evaluate_grid(xb, yb)),
            BivariateCDF(xb, yb, G.evaluate_grid(xb, yb)))


def _union_grid(F: BivariateCDF, G: BivariateCDF, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis union of two grids, checked against MAX_CELLS for ``what``."""
    xb = np.union1d(F.x_breaks, G.x_breaks)
    yb = np.union1d(F.y_breaks, G.y_breaks)
    require_cells(xb.size, yb.size, what)
    return xb, yb


def affine_transform(F: BivariateCDF, n: AffineNormalization,
                     eps: float = EPS_CDF) -> BivariateCDF:
    """The CDF (s, t) -> F(a*s + b, c*t + d).

    Breakpoints are pulled back through the affine map; values are unchanged.
    """
    require_valid_bi(F, eps)
    return _pulled_back(F, n, F.cdf.copy())


def _pulled_back(F: BivariateCDF, n: AffineNormalization, cdf: np.ndarray) -> BivariateCDF:
    """F's breakpoints pulled back through n, carrying the values ``cdf``."""
    return BivariateCDF((F.x_breaks - n.b) / n.a, (F.y_breaks - n.d) / n.c, cdf)


def ecdf_from_samples(points) -> BivariateCDF:
    """Empirical CDF of a non-empty list of (x, y) samples.

    Duplicate coordinates collapse into one breakpoint; cell masses are
    multiples of 1/N.  Raises CDFError if the grid is over MAX_CELLS.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise CDFError("ecdf_from_samples requires at least one sample")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise CDFError("samples must be (x, y) pairs")
    # Summed-area table (Crow 1984): count the samples per grid cell, then
    # take running sums along both axes.
    xb, xi = np.unique(pts[:, 0], return_inverse=True)
    yb, yi = np.unique(pts[:, 1], return_inverse=True)
    require_cells(xb.size, yb.size, "ecdf_from_samples")
    counts = np.bincount(xi * yb.size + yi, minlength=xb.size * yb.size)
    counts = counts.reshape(xb.size, yb.size)
    np.cumsum(counts, axis=0, out=counts)
    np.cumsum(counts, axis=1, out=counts)
    return BivariateCDF(xb, yb, counts / pts.shape[0])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _bad_file(what: str, path, exc: Exception) -> CDFFormatError:
    """The CDFFormatError for a file that failed to load, naming the file."""
    if isinstance(exc, RecursionError):
        reason = "nested too deeply"
    elif isinstance(exc, UnicodeDecodeError):
        reason = f"not UTF-8 text ({exc.reason})"
    else:
        reason = str(exc)
    return CDFFormatError(f"bad {what} file {path}: {reason}")


def save_uni_json(F: UnivariateCDF, path) -> None:
    # json.dumps, unlike json.dump, runs the C encoder; the bytes are the same.
    with open(path, "w") as fh:
        fh.write(json.dumps({"breaks": F.breaks.tolist(),
                             "values": F.values.tolist()}) + "\n")


def load_uni_json(path) -> UnivariateCDF:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return UnivariateCDF(np.asarray(data["breaks"], dtype=float),
                             np.asarray(data["values"], dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise _bad_file("univariate CDF", path, exc) from exc


def save_bi_json(F: BivariateCDF, path) -> None:
    with open(path, "w") as fh:
        write_bi_json(fh, F.x_breaks, F.y_breaks,
                      (F.cdf[rows] for rows in row_blocks(*F.cdf.shape)))


def write_bi_json(fh, x_breaks, y_breaks, blocks) -> None:
    """Write a bivariate CDF JSON text to fh, its cdf array given as row blocks.

    ``blocks`` yields consecutive rows of the array as 2-d arrays; each gets
    the checks BivariateCDF makes on the whole array, before it is written.
    Rows go through the C encoder one at a time, so the matrix never exists
    as Python floats, and the bytes equal json.dump of the dict plus "\n".
    """
    xb = _check_breaks(x_breaks, "x_breaks")
    yb = _check_breaks(y_breaks, "y_breaks")
    fh.write(f'{{"x_breaks": {json.dumps(xb.tolist())}, '
             f'"y_breaks": {json.dumps(yb.tolist())}, "cdf": [')
    nrows = 0
    for block in blocks:
        block = np.ascontiguousarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != yb.size:
            raise CDFError("cdf must have shape (len(x_breaks), len(y_breaks))")
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            raise CDFError("cdf values must be finite")
        fh.write((", " if nrows else "") + ", ".join(_rows_json(block)))
        nrows += block.shape[0]
    if nrows != xb.size:
        raise CDFError("cdf must have shape (len(x_breaks), len(y_breaks))")
    fh.write("]}\n")


def _rows_json(block: np.ndarray):
    """json.dumps of each row of a C-contiguous float64 block.

    A leading run of +0.0 (all bits zero; -0.0 is not one) is written as
    text without formatting: in a valid CDF each row's zeros are such a run.
    """
    nonzero = block.view(np.uint64) != 0
    ncols = block.shape[1]
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), ncols).tolist()
    zero_row = json.dumps([0.0] * ncols)
    for row, k in zip(block, lead):
        yield zero_row if k == ncols else "[" + "0.0, " * k + json.dumps(row[k:].tolist())[1:]


_JSON_SPACE = re.compile(r"[ \t\n\r]*")
# A number decoded up to one of these cannot continue past it.
_JSON_DELIMITER = re.compile(r"[ \t\n\r,:\]}]")
_JSON_DECODER = json.JSONDecoder()


def _float_row(value):
    """value as a float64 array, or as it is if it does not convert.

    np.asarray of a list of these raises what np.asarray of the decoded
    nested list would, and no sooner: a later duplicate key may replace it.
    """
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return value


class _JSONStream:
    """One JSON text read from a file through a bounded text buffer.

    The buffer holds the unread rest of the current value plus about
    JSON_CHUNK_CHARS characters, so a caller that takes an array one element
    at a time never holds the whole text.  Every value is decoded by the
    json module, so it is the object json.load would build for it.
    """

    def __init__(self, fh):
        self.fh, self.buf, self.pos, self.eof = fh, "", 0, False
        self.offset = 0  # characters of the file before buf

    def _fill(self, size: int) -> None:
        chunk = self.fh.read(size)
        self.offset += self.pos
        self.buf = self.buf[self.pos:] + chunk
        self.pos = 0
        self.eof = not chunk

    def peek(self) -> str:
        """The next non-whitespace character, or "" at the end of the file."""
        while True:
            self.pos = _JSON_SPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self._fill(JSON_CHUNK_CHARS)

    def expect(self, chars: str) -> str:
        """Consume the next non-whitespace character, which must be in chars."""
        c = self.peek()
        if not c or c not in chars:
            raise CDFFormatError(f"expecting {' or '.join(map(repr, chars))} "
                                 f"at char {self.offset + self.pos}")
        self.pos += 1
        return c

    def value(self):
        """Decode the next value."""
        if self.peek() == "[":
            # an array ends at or after the first "]": read up to one before decoding
            while self.buf.find("]", self.pos) < 0 and not self.eof:
                self._fill(max(JSON_CHUNK_CHARS, len(self.buf) - self.pos))
        if len(self.buf) - self.pos < JSON_CHUNK_CHARS and not self.eof:
            self._fill(JSON_CHUNK_CHARS)
        while True:
            try:
                obj, end = _JSON_DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                # A token cut by the buffer end runs to that end and holds no
                # delimiter; a string may hold any, so only EOF settles it.
                if self.eof or (not exc.msg.startswith("Unterminated string")
                                and _JSON_DELIMITER.search(self.buf, exc.pos)):
                    raise CDFFormatError(f"{exc.msg} at char {self.offset + exc.pos}") from exc
            else:
                # a number that runs to the end of the buffer may go on: 1.|5
                if self.eof or _JSON_DELIMITER.search(self.buf, end):
                    self.pos = end
                    return obj
            self._fill(max(JSON_CHUNK_CHARS, len(self.buf) - self.pos))

    def items(self):
        """Decode the next value, an array, one element at a time."""
        self.expect("[")
        if self.peek() == "]":
            self.pos += 1
            return
        while True:
            yield self.value()
            if self.expect(",]") == "]":
                return

    def json_object(self, rows_key: str) -> dict:
        """The whole text, which must be one object.

        The value of rows_key, if it is an array, comes as a list of its
        elements, each as a float64 array when it converts to one.
        """
        data = {}
        self.expect("{")
        if self.peek() == "}":
            self.pos += 1
        else:
            while True:
                key = self.value()
                if not isinstance(key, str):
                    raise CDFFormatError(f"expecting a property name before char "
                                         f"{self.offset + self.pos}")
                self.expect(":")
                if key == rows_key and self.peek() == "[":
                    data[key] = [_float_row(v) for v in self.items()]
                else:
                    data[key] = self.value()
                if self.expect(",}") == "}":
                    break
        if self.peek():
            raise CDFFormatError(f"extra data at char {self.offset + self.pos}")
        return data


def load_bi_json(path) -> BivariateCDF:
    """Read a file written by save_bi_json, or any JSON text json.load reads the same.

    The cdf array is decoded one row at a time into float64 rows, which are
    stacked at the end: the load peaks at about twice the array plus the
    buffer and one row as Python floats, not at a multiple of the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = _JSONStream(fh).json_object("cdf")
        return BivariateCDF(np.asarray(data["x_breaks"], dtype=float),
                            np.asarray(data["y_breaks"], dtype=float),
                            np.asarray(data["cdf"], dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise _bad_file("bivariate CDF", path, exc) from exc


def load_samples_tsv(path) -> np.ndarray:
    """Read "x<TAB>y" sample pairs of finite numbers; '#'-prefixed lines are comments."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise CDFFormatError(f"{path}:{lineno}: expected 'x<TAB>y'")
                try:
                    x, y = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise CDFFormatError(f"{path}:{lineno}: {exc}") from exc
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise CDFFormatError(f"{path}:{lineno}: samples must be finite, got {line!r}")
                rows.append((x, y))
    except UnicodeDecodeError as exc:
        raise _bad_file("sample", path, exc) from exc
    return np.asarray(rows, dtype=float).reshape(-1, 2)
