"""Grid files: the JSON and TSV formats, and every open of a file in the package.

A grid file has two seams: the writer ``_write_bi_json(F, path, inputs)``
and the reader ``_one_pass(paths, eps, run)``.  This module imports ``cdf``,
never the other way round, and reads its knobs, such as ``cdf.MAX_CELLS``,
at call time.
"""

from __future__ import annotations

import codecs
import contextlib
import errno
import json
import math
import os
import re
import struct

import numpy as np

from . import cdf
from .cdf import (
    BivariateCDF,
    CDFFormatError,
    GridRows,
    UnivariateCDF,
    _BiValidator,
    _check_breaks,
    _checked_block,
    _RowSource,
    row_blocks,
)

#: Fewest cells of a bivariate grid file for which its writer forks a worker to format rows.
FORK_CELLS = 2 ** 18

#: Bytes read per refill of the JSON reader's text buffer.
JSON_CHUNK_CHARS = 2 ** 16


def _bad_file(what: str, path, exc: Exception) -> CDFFormatError:
    """The CDFFormatError for a file that failed to load, naming the file."""
    if isinstance(exc, RecursionError):
        reason = "nested too deeply"
    elif isinstance(exc, UnicodeDecodeError):
        reason = f"not UTF-8 text ({exc.reason})"
    elif isinstance(exc, KeyError):
        reason = f"missing key {exc}"
    else:
        reason = str(exc)
    return CDFFormatError(f"bad {what} file {path}: {reason}")


@contextlib.contextmanager
def _replacing(path, inputs=()):
    """A text file that replaces path whole on success; on an error, path is left as it was.

    Success is the last write, then finish() of each _BiValidator in inputs: each input
    read to its end and found valid.  Written beside os.path.realpath(path), so a symlink
    keeps its link, with a new file's mode.  An existing path that is not a regular file,
    like /dev/null, is written in place.
    """
    real = os.path.realpath(path)
    tmp = f"{real}.{os.getpid()}.tmp"
    in_place = os.path.exists(path) and not os.path.isfile(path)
    try:
        fh = open(path if in_place else tmp, "w")
    except OSError as exc:   # name path, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
            for F in inputs:
                F.finish()
        if not in_place:
            os.replace(tmp, real)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_uni_json(F: UnivariateCDF, path) -> None:
    """Write F as univariate CDF JSON; path is replaced whole or left as it was."""
    # json.dumps, unlike json.dump, runs the C encoder; the bytes are the same.
    with _replacing(path) as fh:
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


def save_bi_json(F: BivariateCDF | GridRows, path) -> None:
    """Write the row source F as bivariate CDF JSON, the bytes of json.dump of the dict
    plus "\n"; path is replaced whole or left as it was."""
    for _ in _write_bi_json(F, path):
        pass


def _write_bi_json(F, path, inputs=()):
    """Write F to path through _replacing(path, inputs), as save_bi_json does, a row
    block at a time; yield each block as (rows, block) after the checks BivariateCDF
    makes on a whole array (shape and finiteness) and before it is written.

    Rows go through the C encoder and are written one at a time, so the
    matrix never exists as Python floats.  A caller that stops early leaves
    path as it was, as does an invalid input.

    Once the caller takes the first block of a grid of FORK_CELLS cells or
    more, a worker forked by _fork_writer, where that is safe, writes the rows:
    from the fork until the worker is reaped, it alone writes to the file, so the
    text keeps its order.  A block is a view of the kernel's scratch, which the
    next block overwrites, so it goes on the worker's pipe before that is fetched.
    """
    with _replacing(path, inputs) as fh:
        xb = _check_breaks(F.x_breaks, "x_breaks")
        yb = _check_breaks(F.y_breaks, "y_breaks")
        fh.write(f'{{"x_breaks": {json.dumps(xb.tolist())}, '
                 f'"y_breaks": {json.dumps(yb.tolist())}, "cdf": [')
        pid = 0   # the worker's, once forked; w is then its pipe's write end
        try:
            for rows in row_blocks(xb.size, yb.size):
                block = _checked_block(F, rows, yb.size)
                yield rows, block
                if rows.start == 0 and xb.size * yb.size >= FORK_CELLS:
                    pid, w = _fork_writer(fh, yb.size)
                if not pid:
                    fh.writelines(_rows_json(block, rows.start))
                elif not _sent(w, block, rows.start):
                    break   # the worker has left: its status says why
            if pid:
                os.close(w)
                status, pid = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), 0
                if status > 0:   # the errno of its failed write, raised as the serial writer does
                    raise OSError(status, os.strerror(status))
                if status or rows.stop < xb.size:
                    raise OSError(errno.EIO, f"its row writer exited with status {status}",
                                  os.fspath(path))
            fh.write("]}\n")
        finally:
            if pid:   # an early stop or an error: the output is dropped
                import signal   # here, as importing it costs a fresh call 1 ms

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(w)


def _fork_writer(fh, ncols: int):
    """Fork a worker that writes to fh the rows that _sent puts on its pipe; return its
    pid and the pipe's write end.  Return pid 0 where a fork is unsafe, gains nothing
    or fails: a second thread or no procfs, one CPU, no descriptor, a pipe the kernel
    will not enlarge, no free process.  The worker leaves only through os._exit, with
    a failed write's errno, so it never flushes the parent's buffers or runs cleanup."""
    fh.flush()
    r, w = os.pipe()
    try:   # any failure here (no procfs, no affinity call, no fcntl) means no fork
        import fcntl   # here, as it is not on every platform

        # procfs sees native threads, like OpenBLAS's, which threading.active_count() misses
        if len(os.listdir("/proc/self/task")) != 1 or len(os.sched_getaffinity(0)) < 2:
            raise ValueError("a second thread, or one CPU")
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 2 ** 20)   # in 64 KiB the parent waits on the worker
        fh.fileno()   # its io.UnsupportedOperation is an OSError and a ValueError
        pid = os.fork()
    except (OSError, ValueError, AttributeError, ImportError):
        os.close(r)
        os.close(w)
        return 0, None
    if pid:
        os.close(r)
        return pid, w
    code = errno.EIO
    try:
        os.close(w)
        with open(r, "rb") as pipe:
            while head := pipe.read(16):
                start, n = struct.unpack("<qq", head)   # n < 0: -n bytes of text
                data = pipe.read(abs(n))
                fh.writelines([data.decode()] if n < 0 else
                              _rows_json(np.frombuffer(data).reshape(-1, ncols), start))
        fh.flush()
        code = 0
    except OSError as exc:
        code = exc.errno or code
    finally:
        os._exit(code)


def _sent(w, block: np.ndarray, start: int) -> bool:
    """Put block, rows start, ... of the grid, on the worker's pipe w: raw, or as
    its text, formatted here while the pipe holds two blocks or more unread.
    False if the worker has left."""
    import fcntl
    import termios

    if struct.unpack("i", fcntl.ioctl(w, termios.FIONREAD, b"\0" * 4))[0] >= 2 * block.nbytes:
        text = "".join(_rows_json(block, start)).encode()
        data = memoryview(struct.pack("<qq", start, -len(text)) + text)
    else:
        data = memoryview(struct.pack("<qq", start, block.nbytes) + block.tobytes())
    try:
        while data:
            data = data[os.write(w, data):]
    except BrokenPipeError:
        return False
    return True


def _rows_json(block: np.ndarray, start: int):
    """json.dumps of each row of a C-contiguous float64 block, the rows start, start + 1,
    ... of a table, each but row 0 after its ", " separator.

    A leading run of +0.0 (all bits zero; -0.0 is not one) is written as
    text without formatting: in a valid CDF each row's zeros are such a run.
    """
    nonzero = block.view(np.uint64) != 0
    ncols = block.shape[1]
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), ncols).tolist()
    zero_row = json.dumps([0.0] * ncols)
    for i, (row, k) in enumerate(zip(block, lead), start):
        text = zero_row if k == ncols else "[" + "0.0, " * k + json.dumps(row[k:].tolist())[1:]
        yield ", " + text if i else text


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


def _filled_rows(rows, xb, yb):
    """The rows (an iterator) as one float64 array while they fit, else as a list.

    When xb and yb are lists, of nx and ny elements with nx*ny <= MAX_CELLS,
    each row is copied into one preallocated (nx, ny) array as it comes, so
    the rows are never held twice.  From the first row that is not a float64
    array of shape (ny,), or that is row nx + 1, the rows come as a list, the
    array's rows first.  np.asarray of the result gives what np.asarray of
    the list of all rows would, but that no rows give shape (0, ny), not
    (0,); neither fits a grid.
    """
    if not (isinstance(xb, list) and isinstance(yb, list)) or len(xb) * len(yb) > cdf.MAX_CELLS:
        return list(rows)
    out = np.empty((len(xb), len(yb)))
    n = 0
    for row in rows:
        if n == len(out) or not (isinstance(row, np.ndarray) and row.shape == out.shape[1:]):
            return [*out[:n], row, *rows]
        out[n] = row
        n += 1
    return out[:n]


class _JSONStream:
    """One JSON text read from a binary file as UTF-8, through a bounded text buffer.

    The buffer holds the unread rest of the current value plus at most one
    refill (JSON_CHUNK_CHARS bytes, or the rest's length if longer), so an
    array taken one element at a time is never held whole.  Every value is
    decoded by the json module: it is the object json.load would build.
    """

    def __init__(self, fh):
        self.fh, self.buf, self.pos, self.eof = fh, "", 0, False
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.offset = 0  # characters of the file before buf, "\r\n" counted as two

    def _fill(self, size: int) -> None:
        rest = self.buf[self.pos:]
        self.offset += self.pos
        self.buf, self.pos = "", 0   # the read text is let go before more is read
        data = self.fh.read(size)   # a read that ends inside a character adds no text
        self.eof = not data
        text = self.decode(data, final=self.eof)
        del data   # the bytes are let go before the text is joined to the rest
        self.buf = rest + text

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

    def members(self):
        """The keys of the next value, an object, one at a time.

        The caller reads each key's value before it asks for the next key.
        """
        self.expect("{")
        if self.peek() == "}":
            self.pos += 1
            return
        while True:
            key = self.value()
            if not isinstance(key, str):
                raise CDFFormatError(f"expecting a property name before char "
                                     f"{self.offset + self.pos}")
            self.expect(":")
            yield key
            if self.expect(",}") == "}":
                return

    def json_object(self) -> dict:
        """The whole text, which must be one object.

        The value of "cdf", if it is an array, comes as its elements, each
        as a float64 array when it converts to one: as one array filled row
        by row if x_breaks and y_breaks came before it (see _filled_rows),
        else as a list.
        """
        data = {}
        for key in self.members():
            if key == "cdf" and self.peek() == "[":
                data[key] = _filled_rows(map(_float_row, self.items()),
                                         data.get("x_breaks"), data.get("y_breaks"))
            else:
                data[key] = self.value()
        if self.peek():
            raise CDFFormatError(f"extra data at char {self.offset + self.pos}")
        return data


def _cdf_array(rows, yb) -> np.ndarray:
    """np.asarray(rows, dtype=float); where the rows are ragged, an error naming the first
    row whose length is not that of y_breaks (of row 0 if y_breaks is not a list)."""
    try:
        return np.asarray(rows, dtype=float)
    except ValueError:
        if isinstance(rows, (list, np.ndarray)):
            lengths = [len(row) if isinstance(row, list) or np.ndim(row) else None
                       for row in rows]
            expected = len(yb) if isinstance(yb, list) else lengths[0]
            for i, n in enumerate(lengths):
                if n is None:
                    raise ValueError(f"cdf row {i} is not an array") from None
                if n != expected:
                    raise ValueError(f"cdf row {i} has {n} values, "
                                     f"expected {expected}") from None
        raise


def load_bi_json(path) -> BivariateCDF:
    """Read a file written by save_bi_json, or any JSON text json.load reads the same.

    The cdf array is decoded one row at a time into float64 rows.  When the
    breaks come first, as save_bi_json writes them, each row is copied into
    one preallocated array, and the load peaks at about the array plus the
    buffer and one row as Python floats, not at a multiple of the file.
    Otherwise the rows are stacked at the end, which holds them twice.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            data = _JSONStream(fh).json_object()
        return BivariateCDF(np.asarray(data["x_breaks"], dtype=float),
                            np.asarray(data["y_breaks"], dtype=float),
                            _cdf_array(data["cdf"], data["y_breaks"]))
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


class _Unstreamable(Exception):
    """A file that _RowStream does not read in one pass: its caller loads it whole."""


def _one_pass(paths, eps: float, run):
    """run(*F) for the grids in the files paths, each a _BiValidator F: checked as it is read.

    Each F first reads a _RowStream, which reads its file in one pass.  If
    a file is not one that the pass reads, or a pass meets any surprise
    (_Unstreamable), whatever run wrote through _replacing is gone, and
    run runs once more on every grid loaded whole, in the order of paths.
    A run that writes hands every F to _replacing, which finishes each
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
    (``_BiValidator`` reserves its span), and grows only for a read of
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

    Reads about JSON_CHUNK_CHARS bytes from the end, more if the row is longer.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        span = JSON_CHUNK_CHARS
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
