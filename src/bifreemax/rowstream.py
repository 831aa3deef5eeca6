"""One-pass reading of a bivariate CDF JSON file's rows, for the CLI.

Every CLI call reads each of its grid inputs (the grid of ``validate --kind
bi``, ``nfold``, ``root``, ``stability`` and ``plotdata``, and both inputs
of ``biconv``) as a ``_RowStream``: a row source whose rows are decoded from
the file as the command reaches them, and never held whole.  It reads the
file through ``cdf._JSONStream``, opened as load_bi_json opens it, so both
read the same text.  ``_one_pass`` is the one read path of every grid
input: it validates the rows on that same pass through ``cdf._BiValidator``,
and loads a file that the pass does not read whole instead.  cli.py imports
this module, so every CLI call imports it, whether it streams or not.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from . import cdf
from .cdf import (
    CDFFormatError,
    _BiValidator,
    _check_breaks,
    _float_row,
    _JSONStream,
    _RowSource,
    load_bi_json,
)


class _Unstreamable(Exception):
    """A file that _RowStream does not read in one pass: its caller loads it whole."""


def _one_pass(paths, eps: float, run):
    """run(*F) for the grids in the files paths, each a _BiValidator F: checked as it is read.

    Each F first reads a _RowStream, which reads its file in one pass.  If
    a file is not one that the pass reads, or a pass meets any surprise
    (_Unstreamable), whatever run wrote through cdf._replacing is gone, and
    run runs once more on every grid loaded whole, in the order of paths.
    A run that writes hands every F to cdf._replacing, which finishes each
    before the output replaces a file; run prints only after it.  An error
    in run reads every F to its end first, in order, and then raises the
    first invalid F's violations, so a malformed grid reports first, then
    an invalid one, as when the grids were loaded and validated before run.
    """
    def attempt(grids):
        inputs = [_BiValidator(X, eps) for X in grids]
        try:
            return run(*inputs)
        except _Unstreamable:
            raise
        except Exception:
            for X in [F for F in inputs if F.report()]:   # each input read to its end first
                X.finish()
            raise

    try:
        with contextlib.ExitStack() as files:
            return attempt([files.enter_context(_RowStream(path)) for path in paths])
    except _Unstreamable:
        pass
    return attempt([load_bi_json(path) for path in paths])


_END = object()   # what next() gives for a generator that has ended


class _RowStream(_RowSource):
    """The rows of a bivariate CDF JSON file, decoded in one pass as they are read.

    For a regular file whose breaks come before ``cdf`` and whose ``cdf``
    array is followed by ``}`` alone.  The last row, the y-marginal, is read
    first from the file's tail, and is served for the first read if that is
    a read of the last row alone.  Other rows are read in increasing order:
    a read may start again at the rows of the last read, never before.  A
    read decodes the rows it asks for past those decoded, as load_bi_json
    decodes them, into a window that holds the rows of that read.  The
    window is allocated at the first decode, for what ``_reserve`` asked
    (``cdf._BiValidator`` reserves its span), and grows only for a read of
    more rows than it holds.  The read that reaches the last row checks
    that the file ends there and that the row equals the tail row bit for
    bit.  Any other layout or surprise (rows that are not nx rows of ny
    finite floats, a tail row that is not the last row, a format error)
    raises _Unstreamable, and then load_bi_json of the file gives what a
    whole load gives.  Use it as a context manager, which closes the file.
    """

    def __init__(self, path):
        if not os.path.isfile(path):
            raise _Unstreamable(path)
        self.fh = open(path, "rb", buffering=0)
        try:
            self.stream = _JSONStream(self.fh)
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
            self.nx, self.ny = self.x_breaks.size, self.y_breaks.size
            self.last = _tail_row(path, self.ny)
        except Exception as exc:
            self.fh.close()
            raise _Unstreamable(path) from exc
        self.rows, self.first = self.stream.items(), True
        self.capacity = 0   # rows of the window, once allocated: what _reserve asked
        self.window = np.empty((0, self.ny))
        self.w0 = self.w1 = self.at = 0   # rows w0..w1 are in the window from row at on

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def _reserve(self, nrows: int) -> None:
        """Size the window, when it is next allocated, for reads of up to nrows rows."""
        self.capacity = max(self.capacity, min(nrows, self.nx))

    def block(self, rows: slice) -> np.ndarray:
        """The rows ``rows``, valid until the next read."""
        first, self.first = self.first, False
        if first and rows.start == self.nx - 1:
            return self.last[None]
        if rows.start < self.w0:
            raise RuntimeError("a row stream is read in increasing order")
        if rows.stop > self.w1:
            try:
                self._decode(rows)
            except Exception as exc:
                raise _Unstreamable from exc
        at = self.at - self.w0
        return self.window[at + rows.start:at + rows.stop]

    def _decode(self, rows: slice) -> None:
        """Keep the held rows from rows.start on, where they are, and decode the rest
        of rows; if the rest would run past the window, first move the kept rows to
        its front in chunks that do not overlap, so numpy makes no temporary of them."""
        keep = min(rows.start, self.w1)
        at, held, size = self.at + keep - self.w0, self.w1 - keep, rows.stop - keep
        if size > len(self.window):
            window = np.empty((max(size, self.capacity), self.ny))
            window[:held] = self.window[at:at + held]
            self.window, at = window, 0
        elif at + size > len(self.window):
            for k in range(0, held, at):
                part = self.window[at + k:at + min(k + at, held)]
                self.window[k:k + len(part)] = part
            at = 0
        self.w0, self.w1, self.at = keep, rows.stop, at
        new = self.window[at + held:at + size]
        for k in range(len(new)):   # _END, past the last row, is no array
            row = _float_row(next(self.rows, _END))
            if not (isinstance(row, np.ndarray) and row.shape == (self.ny,)):
                raise CDFFormatError("the rows are not nx rows of ny floats")
            new[k] = row
        if not (np.isfinite(new.min()) and np.isfinite(new.max())):
            raise CDFFormatError("a value is not finite")
        if self.w1 == self.nx:
            end = (next(self.rows, _END) is _END and next(self.members, _END) is _END
                   and not self.stream.peek())
            if not (end and new[-1].tobytes() == self.last.tobytes()):
                raise CDFFormatError("the file goes on, or its tail is not its last row")


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
