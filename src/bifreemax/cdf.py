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

A bivariate grid is read through one kind of row source: its breaks plus
``block(rows)``, the rows ``rows`` (a slice) of its values.  A
``BivariateCDF`` gives rows of its array; a ``GridRows`` computes them, as a
kernel's output does.  Both evaluate, pull back and save through the same
code, one row block at a time.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: Default tolerance for validating CDFs built from floating-point data.
EPS_CDF = 1e-9

#: Locations listed per kind of violation; the rest are summed up in one line.
MAX_LISTED = 10

#: Largest grid, in cells, an operation may allocate: 256 MiB per float64 array.
MAX_CELLS = 2 ** 25

#: Cells per row block of a grid kernel: 128 KiB per float64 scratch buffer.
BLOCK_CELLS = 2 ** 14


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

    Grid kernels compute each block into a few scratch buffers of one block
    (``_Scratch``), reused from block to block, and write or reduce it before
    the next block, so a call's peak memory is its output plus a few blocks
    and a block allocates nothing of its size.  Elementwise operations and
    max/min do not depend on the blocking.
    """
    step = _block_rows(ncols)
    for lo in range(0, nrows, step):
        yield slice(lo, min(lo + step, nrows))


def _block_rows(ncols: int) -> int:
    """Rows per row block of a grid of ncols columns."""
    return max(1, BLOCK_CELLS // max(ncols, 1))


class _Scratch:
    """Named buffers of one row block of an nrows x ncols grid, reused from block to block.

    ``scratch(name, shape, dtype)`` is a C-contiguous view of the buffer
    ``name``.  The buffer is allocated at its first use, at the size of the
    grid's largest row block or more if asked for, and replaced by a larger
    one when a read asks for more rows than one block.  Its values are those
    its last user left, so every user writes a view before it reads it.
    """

    def __init__(self, nrows: int, ncols: int):
        self.cells = min(nrows, _block_rows(ncols)) * ncols
        self._buffers = {}

    def __call__(self, name: str, shape: tuple[int, int], dtype=float) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(max(size, self.cells), dtype)
        return buf[:size].reshape(shape)


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
        out = np.where(np.isnan(s), np.nan, out)   # searchsorted puts nan above every break
        return out if np.ndim(s) else float(out)


class _RowSource:
    """Evaluation of a bivariate grid given by x_breaks, y_breaks and block(rows)."""

    def _reserve(self, nrows: int) -> None:
        """Make room for reads of up to nrows rows: a source that buffers the
        rows it reads sizes its buffer once; others have nothing to do."""

    def evaluate(self, s, t) -> float:
        """Evaluate F(s, t) at a single point."""
        return float(self.evaluate_grid([s], [t])[0, 0])

    def evaluate_grid(self, xs, ys) -> np.ndarray:
        """Evaluate F on the product grid xs x ys; returns a matrix, nan at a nan point.

        Reads one block: the contiguous row range that the points of xs hit.
        """
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        xi, yj = _step_index(self.x_breaks, xs), _step_index(self.y_breaks, ys)
        xi[np.isnan(xs)] = -1   # searchsorted puts nan above every break: read no row for it
        hit = xi[xi >= 0]
        if hit.size == 0:   # xs is empty, below the grid or nan
            vals = np.zeros((xi.size, yj.size))
        else:
            lo, hi = int(hit.min()), int(hit.max())
            vals = self.block(slice(lo, hi + 1))[np.ix_(np.maximum(xi - lo, 0), np.maximum(yj, 0))]
            vals[xi < 0] = 0.0
            vals[:, yj < 0] = 0.0
        vals[np.isnan(xs)] = vals[:, np.isnan(ys)] = np.nan
        return vals


class _OnGrid:
    """The row source X read on the increasing grid xs x ys, a row block at a time.

    On X's own grid a block is ``X.block(rows)`` itself; on another grid it
    is gathered into a scratch buffer, with the values of evaluate_grid.
    """

    def __init__(self, X, xs: np.ndarray, ys: np.ndarray):
        self.X, self.ny = X, ys.size
        self.own = np.array_equal(xs, X.x_breaks) and np.array_equal(ys, X.y_breaks)
        if not self.own:   # points below the grid come first, and read 0
            xi, yj = _step_index(X.x_breaks, xs), _step_index(X.y_breaks, ys)
            self.xi, self.x_below = np.maximum(xi, 0), int(np.count_nonzero(xi < 0))
            self.yj, self.y_below = np.maximum(yj, 0), int(np.count_nonzero(yj < 0))

    def block(self, rows: slice, scratch: _Scratch, name: str) -> np.ndarray:
        """The rows ``rows`` on the grid, valid until the next read of X or of name."""
        if self.own:
            return self.X.block(rows)
        out = scratch(name, (rows.stop - rows.start, self.ny))
        if rows.stop <= self.x_below:
            out.fill(0.0)
            return out
        xi = self.xi[rows]
        lo = int(xi[0])
        src = self.X.block(slice(lo, int(xi[-1]) + 1))
        picked = scratch("gather", (out.shape[0], src.shape[1]))
        # indices are in range, and mode="raise" would buffer out
        np.take(src, xi - lo, axis=0, out=picked, mode="clip")
        np.take(picked, self.yj, axis=1, out=out, mode="clip")
        out[:max(0, self.x_below - rows.start)] = 0.0
        out[:, :self.y_below] = 0.0
        return out


@dataclass(frozen=True)
class BivariateCDF(_RowSource):
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

    def block(self, rows: slice) -> np.ndarray:
        """The rows ``rows`` of cdf."""
        return self.cdf[rows]


@dataclass(frozen=True)
class GridRows(_RowSource):
    """A grid given by its breaks and ``block(rows)``, which computes the rows ``rows``.

    Every step of a kernel is elementwise, so a row has the same bits
    whichever block computes it: a caller may read any rows first, or stream
    the blocks to a file without ever holding the whole array.  A kernel's
    ``block(rows)`` is a view of its scratch, valid until the next read:
    a caller that keeps a row past the next read copies it, and one thread
    at a time reads a kernel's output.  A read of more
    rows than one block, such as ``evaluate_grid`` over the whole grid,
    grows the scratch to that read.
    """

    x_breaks: np.ndarray
    y_breaks: np.ndarray
    block: Callable[[slice], np.ndarray]

    def to_cdf(self) -> BivariateCDF:
        """The grid as a BivariateCDF, filled one row block at a time: each block's
        shape is checked as it comes, and the finiteness once, by BivariateCDF."""
        out = np.empty((self.x_breaks.size, self.y_breaks.size))
        for rows in row_blocks(*out.shape):
            out[rows] = _checked_block(self, rows, out.shape[1], out.shape[0])
        return BivariateCDF(self.x_breaks, self.y_breaks, out)


def _checked_block(F, rows: slice, ncols: int, finite_from: int = 0) -> np.ndarray:
    """F.block(rows) as a C-contiguous float64 array, with the checks BivariateCDF
    makes on a whole array: shape, and finiteness of F's rows from row
    finite_from on, the rows before it being checked already."""
    block = np.ascontiguousarray(F.block(rows), dtype=float)
    if block.shape != (rows.stop - rows.start, ncols):
        raise CDFError("cdf must have shape (len(x_breaks), len(y_breaks))")
    new = block[max(finite_from - rows.start, 0):]
    if new.size and not (np.isfinite(new.min()) and np.isfinite(new.max())):
        raise CDFError("cdf values must be finite")
    return block


@dataclass(frozen=True)
class AffineNormalization:
    """Per-axis affine change of variables (s, t) -> (a*s + b, c*t + d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise CDFError("a, b, c and d must be finite")
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

class _Kind:
    """One kind of violation: a bound ``lo <= v <= hi`` checked within a finite eps >= 0.

    ``check(row0, v, lo, hi, scratch)`` takes the 2-d rows of v from row row0
    on, with lo <= hi broadcast against them (-inf or inf for a missing
    bound).  A value violates the bound where its amount ``max(lo - v, v -
    hi)`` exceeds eps in exact arithmetic, with a Frechet bound taken as the
    float it rounds to.  Fed the rows in order, the kind keeps its first
    MAX_LISTED violations in row-major order, formatted by ``line(i, j,
    value)``, their exact count and their worst amount, rounded once.  It
    works in the block-sized mask and amounts of ``scratch``, and makes no
    array as long as the violations.  A block returns at once where no value
    can be past its bound: after its min (and max, if bounded above) for a
    scalar bound, after one comparison for a Frechet bound, which is
    one-sided.  Otherwise the violations, the ties settled by their rounding
    error, the count, the worst amount and the lines all come from the
    block's amounts.
    """

    def __init__(self, name: str, eps: float, line):
        if not 0.0 <= eps < math.inf:   # nan fails every comparison
            raise CDFError(f"eps must be a finite number >= 0, got {eps!r}")
        self.name, self.eps, self.line = name, eps, line
        self.lines, self.count, self.worst = [], 0, -math.inf

    def check(self, row0: int, v: np.ndarray, lo, hi, scratch: _Scratch) -> None:
        shape, ncols, eps = v.shape, v.shape[1], self.eps
        if v.size == 0:
            return
        scalar = np.ndim(lo) == np.ndim(hi) == 0
        # rounding is monotone: no amount rounds to eps or more unless an extreme value's does
        if scalar and lo - v.min() < eps and (hi == math.inf or v.max() - hi < eps):
            return
        bad = scratch("bad", shape, bool)
        if not (scalar or (np.less(v, lo, out=bad) if np.ndim(lo)
                           else np.greater(v, hi, out=bad)).any()):
            return
        amount = np.subtract(lo, v, out=scratch("amount", shape))   # -inf with no lower bound
        if np.ndim(hi) or hi < math.inf:   # lo <= hi: the larger amount is v - hi where v > hi
            np.subtract(v, hi, out=amount, where=np.greater(v, hi, out=bad) if scalar else bad)
        ties = ()
        if eps > 0 and np.equal(amount, eps, out=bad).any():
            ties = np.flatnonzero(bad)
        np.greater(amount, eps, out=bad)
        lo, hi = np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
        for k in ties:   # rounded to eps: past it iff e > 0,
            i, j = divmod(int(k), ncols)
            a, b = (lo[i, j], v[i, j]) if lo[i, j] - v[i, j] == eps else (v[i, j], hi[i, j])
            s = a - b   # where a - b = s + e exactly (Knuth's two-sum)
            bad[i, j] = (a - (s - (s - a))) - (b + (s - a)) > 0.0
        count = np.count_nonzero(bad)
        if not count:
            return
        self.worst = max(self.worst, float(np.max(amount, where=bad, initial=-math.inf)))
        flat, k = bad.ravel(), -1
        for _ in range(min(count, max(0, MAX_LISTED - self.count))):
            k += 1 + int(np.argmax(flat[k + 1:]))   # the next violation in row-major order
            i, j = divmod(k, ncols)
            self.lines.append(self.line(row0 + i, j, v[i, j]))
        self.count += count

    def report(self) -> list[str]:
        """The listed lines, then, if more than MAX_LISTED, one summary line."""
        if self.count <= MAX_LISTED:
            return self.lines
        return [*self.lines, f"... and {self.count - MAX_LISTED} more {self.name} "
                             f"violations, worst {self.worst!r}"]


def validate_uni(F: UnivariateCDF, eps: float = EPS_CDF) -> list[str]:
    """Check the distribution-function axioms; returns named violations.

    At most MAX_LISTED locations are listed per kind, then a summary line.
    The values and their steps are checked in one pass over row blocks of
    them, and the total mass on the last value.
    """
    v = F.values
    in01 = _Kind("out-of-[0,1]", eps,
                 lambda i, _, x: f"value out of [0,1] at index {i}: {float(x)!r}")
    rising = _Kind("monotonicity", eps,
                   lambda i, *_: (f"monotonicity violation at index {i + 1}: "
                                  f"{float(v[i + 1])!r} < {float(v[i])!r}"))
    total = _Kind("total-mass", eps,
                  lambda i, _, x: f"total-mass violation: F(last break) = {float(x)!r} != 1")
    scratch = _Scratch(v.size, 1)
    for rows in row_blocks(v.size, 1):
        lo = max(rows.start - 1, 0)   # the value before the block, for its first step
        in01.check(rows.start, v[rows, None], 0.0, 1.0, scratch)
        step = np.subtract(v[lo + 1:rows.stop, None], v[lo:rows.stop - 1, None],
                           out=scratch("diff", (rows.stop - lo - 1, 1)))
        rising.check(lo, step, 0.0, np.inf, scratch)
    total.check(v.size - 1, v[-1:, None], 1.0, 1.0, scratch)
    return in01.report() + rising.report() + total.report()


class _BiValidator(_RowSource):
    """The row source F, with validate_bi's checks made on its rows as they are read.

    F's last row, the y-marginal, is read and copied first, its last value
    checked as the total mass, and served for a read of that row alone until
    the checks reach it.  A read past the checked rows reads F once, from the
    row before them (or the read's first row, if earlier) to the end of the
    ``row_blocks`` block that holds the read's last row, and checks the rows
    past them; other reads go to F.  Unless the read itself is longer, that read
    of F spans at most the validator's span: a block and one row, or one row
    more than the widest read ``_reserve`` asks for.  The validator reserves
    its span of F, so a _RowStream's window holds every such read without
    growing.  So a reader of F's row blocks in order reads each row of F once,
    with the checks BivariateCDF makes on a whole array; ``column`` holds F's
    last column, the x-marginal, up to the checked rows.  ``report()`` checks
    the blocks not read yet and gives validate_bi's report, whatever the reads
    were: the kinds keep their lines in row-major order, and counts and worst
    amounts do not depend on the blocking.  The checks of a read work in one
    scratch set, reused from read to read, so a read allocates nothing of its
    size, however many of its values violate.
    """

    def __init__(self, F, eps: float):
        self.F, self.x_breaks, self.y_breaks = F, F.x_breaks, F.y_breaks
        nx, ny = self.nx, self.ny = F.x_breaks.size, F.y_breaks.size
        # a GridRows block is valid until the next read: the last row is kept
        self.m2 = _checked_block(F, slice(nx - 1, nx), ny)[0].copy()
        self.checked, self.column, self.scratch = 0, np.empty(nx), _Scratch(nx, ny)
        self.span = _block_rows(ny) + 1   # the rows of F that a check's read may round up to
        F._reserve(self.span)
        self.kinds = [
            _Kind("out-of-[0,1]", eps,
                  lambda i, j, x: f"value out of [0,1] at ({i},{j}): {float(x)!r}"),
            _Kind("monotonicity along x", eps,
                  lambda i, j, _: f"monotonicity violation along x at ({i + 1},{j})"),
            _Kind("monotonicity along y", eps,
                  lambda i, j, _: f"monotonicity violation along y at ({i},{j + 1})"),
            _Kind("rectangle inequality", eps,
                  lambda i, j, x: (f"rectangle inequality violation at cell ({i},{j}): "
                                   f"mass {float(x)!r}")),
            _Kind("total-mass", eps,
                  lambda i, j, x: f"total-mass violation: F(last,last) = {float(x)!r} != 1"),
            _Kind("Frechet upper-bound", eps,
                  lambda i, j, _: f"Frechet upper-bound violation at ({i},{j})"),
            _Kind("Frechet lower-bound", eps,
                  lambda i, j, _: f"Frechet lower-bound violation at ({i},{j})"),
        ]
        self.kinds[4].check(nx - 1, self.m2[None, -1:], 1.0, 1.0, self.scratch)   # total mass

    def _reserve(self, nrows: int) -> None:
        # a read past the checked rows reads F from the row before it
        self.span = max(self.span, nrows + 1)
        self.F._reserve(self.span)

    def block(self, rows: slice) -> np.ndarray:
        """The rows ``rows`` of F, checked; valid until the next read."""
        if rows.start == self.nx - 1 > self.checked:   # the last row alone, not checked yet
            return self.m2[None]
        if rows.stop <= self.checked:
            return _checked_block(self.F, rows, self.ny, self.checked)
        lo = min(rows.start, max(self.checked - 1, 0))
        return self._check(lo, rows.stop)[rows.start - lo:rows.stop - lo]

    def _check(self, lo: int, stop: int) -> np.ndarray:
        """Read F from row lo <= max(checked - 1, 0) through row stop - 1 and
        on, as the class says; check the rows past the checked ones."""
        in01, along_x, along_y, cells, _, upper, lower = self.kinds
        m2, scratch, ny, step = self.m2, self.scratch, self.ny, _block_rows(self.ny)
        end = max(stop, min(-(-stop // step) * step, lo + self.span, self.nx))
        read = _checked_block(self.F, slice(lo, end), ny, self.checked)
        start, self.checked = self.checked, end
        first = max(start - 1, 0)   # the row before them, for their first steps
        a, c, m1 = read[first - lo:], read[start - lo:], read[start - lo:, -1:]
        self.column[start:end] = m1[:, 0]
        in01.check(start, c, 0.0, 1.0, scratch)
        d = np.subtract(a[1:], a[:-1], out=scratch("d", (a.shape[0] - 1, ny)))
        along_x.check(first, d, 0.0, np.inf, scratch)
        d = np.subtract(c[:, 1:], c[:, :-1], out=scratch("d", (c.shape[0], ny - 1)))
        along_y.check(start, d, 0.0, np.inf, scratch)
        # the masses ((a11 - a01) - a10) + a00 of the adjacent grid cells, each >= 0
        d = np.subtract(a[1:, 1:], a[:-1, 1:], out=scratch("d", (a.shape[0] - 1, ny - 1)))
        np.subtract(d, a[1:, :-1], out=d)
        cells.check(first, np.add(d, a[:-1, :-1], out=d), 0.0, np.inf, scratch)
        d = scratch("d", c.shape)
        upper.check(start, c, -np.inf, np.minimum(m1, m2, out=d), scratch)
        np.add(m1, m2, out=d)
        lower.check(start, c, np.subtract(d, 1.0, out=d), np.inf, scratch)
        return read

    @property
    def clean(self) -> bool:
        """No violation in the rows checked so far, nor in the total mass."""
        return not any(kind.count for kind in self.kinds)

    def report(self) -> list[str]:
        """Check the blocks not read yet; validate_bi's report of F."""
        for rows in row_blocks(self.nx, self.ny):
            if rows.stop > self.checked:
                self._check(max(self.checked - 1, 0), rows.stop)
        return [line for kind in self.kinds for line in kind.report()]

    def finish(self) -> None:
        """report(); raise InvalidCDFError if it lists a violation."""
        violations = self.report()
        if violations:
            raise InvalidCDFError(violations)


def validate_bi(F: BivariateCDF | GridRows, eps: float = EPS_CDF) -> list[str]:
    """Check the bivariate distribution-function axioms of the row source F.

    The rectangle inequality is checked on adjacent grid cells only;
    general rectangles are sums of adjacent cells, so adjacency suffices.
    At most MAX_LISTED locations are listed per kind, then a summary line
    with the count of the rest and the worst amount.

    One pass (``_BiValidator``): the last row is read first, as a one-row
    block, then each row block with the row before it, and every kind is
    checked on that one read.  So no temporary is cells-sized, and a
    ``GridRows``, such as a root candidate, is checked without being held.
    """
    return _BiValidator(F, eps).report()


def require_valid_uni(F: UnivariateCDF, eps: float = EPS_CDF) -> UnivariateCDF:
    violations = validate_uni(F, eps)
    if violations:
        raise InvalidCDFError(violations)
    return F


def require_valid_bi(F: BivariateCDF, eps: float = EPS_CDF) -> BivariateCDF:
    _BiValidator(F, eps).finish()
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
    breaks = _unique(np.concatenate((F.breaks, G.breaks)))
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


def _unique(values: np.ndarray, inverse: bool = False):
    """np.unique(values) of a 1-d float array, and with inverse its return_inverse.

    np.unique calls np.ma.is_masked, whose first call imports numpy.ma: about
    20 ms of a fresh process.  This makes np.unique's own sorts, so the bits
    are the same: ndarray.sort() without the inverse and
    argsort(kind="quicksort") with it.  The sort decides which of -0.0 and
    0.0 comes first and is kept.  All nans count as one, as in np.unique.
    """
    values = np.ravel(values)   # contiguous, as np.unique's flatten() makes it
    if inverse:
        perm = values.argsort(kind="quicksort")
        aux = values[perm]
    else:
        aux = np.sort(values)
    keep = np.empty(aux.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = aux[1:] != aux[:-1]
    if aux.size and np.isnan(aux[-1]):   # sorted last: keep the first nan only
        keep[np.searchsorted(aux, aux[-1], side="left") + 1:] = False
    if not inverse:
        return aux[keep]
    index = np.empty(keep.shape, dtype=np.intp)
    index[perm] = np.cumsum(keep) - 1
    return aux[keep], index


def _union_grid(F, G, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis union of two row sources' grids, checked against MAX_CELLS for ``what``."""
    xb = _unique(np.concatenate((F.x_breaks, G.x_breaks)))
    yb = _unique(np.concatenate((F.y_breaks, G.y_breaks)))
    require_cells(xb.size, yb.size, what)
    return xb, yb


def affine_transform(F: BivariateCDF, n: AffineNormalization,
                     eps: float = EPS_CDF) -> BivariateCDF:
    """The CDF (s, t) -> F(a*s + b, c*t + d).

    Breakpoints are pulled back through the affine map; values are unchanged.
    """
    require_valid_bi(F, eps)
    P = _pulled_back(F, n)
    return BivariateCDF(P.x_breaks, P.y_breaks, F.cdf)


def _pulled_back(F, n: AffineNormalization) -> GridRows:
    """The row source F with its breaks pulled back through n; its rows are F's reads.

    Raises CDFError if the pulled-back breaks are not finite and strictly
    increasing, as when a huge shift collapses them or a tiny scale overflows.
    """
    with np.errstate(over="ignore"):
        xb, yb = (F.x_breaks - n.b) / n.a, (F.y_breaks - n.d) / n.c
    if not all(np.all(np.isfinite(b)) and np.all(np.diff(b) > 0) for b in (xb, yb)):
        raise CDFError(f"the normalization (a, b, c, d) = "
                       f"{tuple(map(float, (n.a, n.b, n.c, n.d)))!r} pulls the grid back "
                       f"to breaks that are not finite and strictly increasing")
    return GridRows(xb, yb, F.block)


def ecdf_from_samples(points) -> BivariateCDF:
    """Empirical CDF of a non-empty list of (x, y) samples.

    Duplicate coordinates collapse into one breakpoint; cell masses are
    multiples of 1/N.  Raises CDFError if the grid is over MAX_CELLS.
    """
    return ecdf_rows(points).to_cdf()


def ecdf_rows(points) -> GridRows:
    """ecdf_from_samples as row blocks; the samples and the grid size are checked here.

    A block is the summed-area table (Crow 1984) of its rows: the samples are
    counted per grid cell of the block, the counts of the samples before the
    block are added to its first row as one carry row, and running sums are
    taken along both axes, then divided by N.  The counts are float64 sums of
    integers below 2^53, so they are exact whatever the blocking, and the bits
    are those of integer counts / N.  A block is a view of scratch, valid
    until the next read.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise CDFError("ecdf_from_samples requires at least one sample")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise CDFError("samples must be (x, y) pairs")
    xb, xi = _unique(pts[:, 0], inverse=True)
    yb, yi = _unique(pts[:, 1], inverse=True)
    nx, ny, n = xb.size, yb.size, pts.shape[0]
    require_cells(nx, ny, "ecdf_from_samples")
    # the occupied cells in row-major order, each with its count
    cell = np.sort(xi * ny + yi)
    first = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    count = np.diff(np.append(first, n)).astype(float)
    cell = cell[first]
    scratch = _Scratch(nx, ny)

    def block(rows):
        a, b = np.searchsorted(cell, (rows.start * ny, rows.stop * ny))
        out = scratch("ecdf", (rows.stop - rows.start, ny))
        out.fill(0.0)
        out[0] = np.bincount(cell[:a] % ny, weights=count[:a], minlength=ny)
        out.reshape(-1)[cell[a:b] - rows.start * ny] += count[a:b]
        np.cumsum(out, axis=0, out=out)
        np.cumsum(out, axis=1, out=out)
        out /= n
        return out

    return GridRows(xb, yb, block)


def __getattr__(name):
    """cdf.<name> of the five file functions is gridio's, imported on first use (PEP 562)."""
    if name not in ("load_bi_json", "load_samples_tsv", "load_uni_json", "save_bi_json",
                    "save_uni_json"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import gridio   # gridio imports cdf

    return getattr(gridio, name)
