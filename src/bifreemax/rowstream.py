"""One-pass reading of a bivariate CDF JSON file's rows, for the CLI.

CLI ``validate --kind bi``, ``nfold``, ``root`` and ``plotdata`` read their
grid, and ``biconv`` its second input, as a ``_RowStream``: a row source
whose rows are decoded from the file as the command reaches them, validated
on that same pass, and never held whole.  A file that the pass does not read
is loaded whole instead, as a ``_Loaded``, which has the same interface.
It is a module of its own so that the CLI calls that do not use it compile
none of it: a fresh process without cached bytecode compiles every module
it imports, and in cdf.py this code raised the peak RSS of every fresh CLI
call by about 0.9 MB (Python 3.11, numpy 2.4, 2-core Xeon).
"""

from __future__ import annotations

import codecs
import json
import os

import numpy as np

from . import cdf
from .cdf import (
    BivariateCDF,
    CDFFormatError,
    InvalidCDFError,
    _BiValidator,
    _block_rows,
    _check_breaks,
    _float_row,
    _JSONStream,
    _RowSource,
    validate_bi,
)


class _Unstreamable(Exception):
    """A file that _RowStream does not read in one pass: its caller loads it whole."""


_END = object()   # what next() gives for a generator that has ended


class _Checked(_RowSource):
    """A row source with its validate_bi report, ``report()``."""

    def finish(self) -> None:
        """report(); raise InvalidCDFError if it lists a violation."""
        violations = self.report()
        if violations:
            raise InvalidCDFError(violations)


class _Loaded(_Checked):
    """A BivariateCDF F, validated whole, with the interface of a _RowStream."""

    def __init__(self, F: BivariateCDF, eps: float):
        self.F, self.x_breaks, self.y_breaks = F, F.x_breaks, F.y_breaks
        self.violations = validate_bi(F, eps)

    def block(self, rows: slice) -> np.ndarray:
        return self.F.cdf[rows]

    def report(self) -> list[str]:
        return self.violations

    def last_column(self) -> BivariateCDF:
        return self.F


class _RowStream(_Checked):
    """The rows of a bivariate CDF JSON file, decoded in one pass as they are read.

    For a regular file whose breaks come before ``cdf`` and whose ``cdf``
    array is followed by ``}`` alone.  The last row, the y-marginal, is read
    first from the file's tail, and is served for ``block`` of the last row
    until the pass reaches it.  Other rows are read in increasing order: a
    read may start again at the rows of the last read, never before.  They
    are decoded as load_bi_json decodes them, half a row block at a time,
    into a window that holds the rows of the last read, the row before the
    next half block and that half block: about one row block.  Each half
    block is fed to a ``_BiValidator``, with the row before it, and has its
    last column recorded.  ``report()`` reads the rest of the file and
    gives validate_bi's report of the grid.  Any other layout or
    surprise (rows that are not nx rows of ny finite floats, a tail row that
    is not the last row bit for bit, a format error) raises _Unstreamable,
    and then load_bi_json of the file gives what a whole load gives.
    Use it as a context manager, which closes the file.
    """

    def __init__(self, path, eps: float):
        if not os.path.isfile(path):
            raise _Unstreamable(path)
        self.fh = open(path, "rb", buffering=0)
        try:
            self.stream = _JSONStream(_Utf8Reader(self.fh))
            self.members, data = self.stream.members(), {}
            for key in self.members:
                if key == "cdf":
                    break
                data[key] = self.stream.value()
            else:
                raise CDFFormatError("no cdf key")
            if self.stream.peek() != "[":
                raise CDFFormatError("cdf is not an array")
            self.x_breaks = _check_breaks(np.asarray(data["x_breaks"], dtype=float), "x_breaks")
            self.y_breaks = _check_breaks(np.asarray(data["y_breaks"], dtype=float), "y_breaks")
            nx, ny = self.nx, self.ny = self.x_breaks.size, self.y_breaks.size
            self.last = _tail_row(path, ny)
        except Exception as exc:
            self.fh.close()
            raise _Unstreamable(path) from exc
        self.rows = self.stream.items()
        self.batch = min(max(1, _block_rows(ny) // 2), nx)
        self.window = np.empty((min(2 * self.batch + 1, nx), ny))
        self.w0 = self.w1 = self.floor = 0   # rows w0..w1 are in the window
        self.column = np.empty(nx)
        self.check, self.violations = _BiValidator(nx, ny, self.last, eps), None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def block(self, rows: slice) -> np.ndarray:
        """The rows ``rows``, valid until the next read."""
        if rows.start == self.nx - 1 and self.w1 < self.nx:
            return self.last[None]
        if rows.start < self.w0:
            raise RuntimeError("a row stream is read in increasing order")
        self.floor = rows.start   # no later read starts before it
        self._read_to(rows.stop)
        return self.window[rows.start - self.w0:rows.stop - self.w0]

    def _read_to(self, stop: int) -> None:
        """Decode rows half a block at a time through row stop - 1."""
        try:
            while self.w1 < stop:
                self._read_block()
        except Exception as exc:
            raise _Unstreamable from exc

    def _read_block(self) -> None:
        # keep the rows from the floor on, and the row before the block
        keep = max(self.w0, min(self.floor, self.w1 - 1))
        held = self.w1 - keep
        if keep > self.w0:
            self.window[:held] = self.window[keep - self.w0:self.w1 - self.w0]
        self.w0, start = keep, self.w1
        n = min(self.batch, self.nx - start)
        if held + n > len(self.window):   # a read of more rows than the window holds
            window = np.empty((held + n, self.ny))
            window[:held] = self.window[:held]
            self.window = window
        for k in range(held, held + n):   # _END, past the last row, is no array
            row = _float_row(next(self.rows, _END))
            if not (isinstance(row, np.ndarray) and row.shape == (self.ny,)):
                raise CDFFormatError("the rows are not nx rows of ny floats")
            self.window[k] = row
        a = self.window[max(held - 1, 0):held + n]   # with the row before the block
        if not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise CDFFormatError("a value is not finite")
        self.column[start:start + n] = a[-n:, -1]
        self.check.feed(start, a)
        self.w1 = start + n

    def report(self) -> list[str]:
        """Read the rest of the file; validate_bi's report of the grid."""
        if self.violations is None:
            self.floor = self.nx
            self._read_to(self.nx)
            try:
                end = (next(self.rows, _END) is _END and next(self.members, _END) is _END
                       and not self.stream.peek())
            except Exception as exc:
                raise _Unstreamable from exc
            if not (end and self.window[self.nx - 1 - self.w0].tobytes() == self.last.tobytes()):
                raise _Unstreamable("the file goes on, or its tail is not its last row")
            self.violations = self.check.report()
        return self.violations

    def last_column(self) -> BivariateCDF:
        """The last column as read on the pass, as a one-column grid; after report()."""
        return BivariateCDF(self.x_breaks, self.y_breaks[-1:], self.column[:, None])


class _Utf8Reader:
    """A binary file read as UTF-8 text, ``read(size)`` from size bytes at a time.

    Unlike a text file it keeps no decoded chunk or snapshot between reads,
    and translates no newlines; JSON reads "\\r\\n" as white space either way.
    """

    def __init__(self, raw):
        self.raw, self.decode = raw, codecs.getincrementaldecoder("utf-8")().decode

    def read(self, size: int) -> str:
        while True:   # a read that ends inside a character decodes to "" before EOF
            data = self.raw.read(size)
            text = self.decode(data, final=not data)
            if text or not data:
                return text


_JSON_SPACE_BYTES = b" \t\n\r"


def _tail_row(path, ny: int) -> np.ndarray:
    """The last row of the cdf array, decoded from the file's tail: ``[...]`` before ``]}``.

    Reads about cdf.JSON_CHUNK_CHARS bytes from the end, more if the row is longer.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        span = cdf.JSON_CHUNK_CHARS
        while True:   # a longer tail until it holds the row's "["
            start = fh.seek(max(0, size - span))
            text = fh.read()
            end = len(text)
            for close in b"}]]":   # the object, the cdf array and the last row end here
                end = len(text[:end].rstrip(_JSON_SPACE_BYTES)) - 1
                if end < 0 or text[end] != close:
                    break
            if end >= 0 and text[end] != close:
                raise CDFFormatError("the file does not end with a row, ] and }")
            begin = text.rfind(b"[", 0, max(end, 0))
            if begin >= 0:
                break
            if start == 0:
                raise CDFFormatError("the file has no last row")
            span *= 2
    row = _float_row(json.loads(text[begin:end + 1].decode("utf-8")))
    if not (isinstance(row, np.ndarray) and row.shape == (ny,) and np.isfinite(row).all()):
        raise CDFFormatError("the last row is not ny finite floats")
    return row
