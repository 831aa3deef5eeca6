"""How the CLI reads its grid files, seen at ``builtins.open``: for tests that
check a call's reads without hooking a name inside the package."""

import builtins
import sys

from bifreemax.cli import main


class Reads:
    """Each binary read open of a file, in order, as [path, buffering, sizes, call]:
    the byte counts of its reads, and the number of the CLI call
    (``bifreemax.cli.main``) that made it, from 1, or 0 outside a call.

    A CLI call reads each regular file in one pass: an unbuffered open that reads
    every byte, and at once a buffered open that reads its tail.  Where a pass
    does not read its file, or an input is not a regular file, the call loads
    every input whole, in order: one more unbuffered open each.
    """

    def __init__(self, monkeypatch, tail=None):
        """With tail, a CLI call's buffered open of a path p opens tail(p) instead,
        as if the file changed between the pass and its tail read."""
        self.opens, self.calls, self._frame = [], 0, None
        real_open = builtins.open

        def open_(file, mode="r", buffering=-1, *args, **kwargs):
            call = self._call(sys._getframe(1))
            if mode != "rb":
                return real_open(file, mode, buffering, *args, **kwargs)
            fh = real_open(tail(file) if tail and call and buffering != 0 else file,
                           mode, buffering, *args, **kwargs)
            self.opens.append([str(file), buffering, [], call])
            return _Counted(fh, self.opens[-1][2])

        monkeypatch.setattr(builtins, "open", open_)

    def _call(self, frame):
        """The number of the CLI call that frame is in, or 0."""
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if frame is None:
            return 0
        if frame is not self._frame:
            self.calls, self._frame = self.calls + 1, frame
        return self.calls

    def clear(self):
        self.opens.clear()

    def of(self, path):
        """(buffering, bytes read) of each open of path."""
        return [(buffering, sum(sizes)) for p, buffering, sizes, *_ in self.opens
                if p == str(path)]

    def whole_loads(self):
        """The paths that CLI calls loaded whole, in order.  Only a call's first
        unbuffered open of a path can be a pass: it is one if the call's next open
        reads the same file's tail, or if the call opens the file unbuffered again
        (a pass that stopped before its tail read).  Every other unbuffered open,
        and every later one of the same path in the call, is a whole load."""
        opens = [(path, buffering != 0, call) for path, buffering, _, call in self.opens
                 if call]
        return [path for k, (path, buffered, call) in enumerate(opens) if not buffered
                and ((path, False, call) in opens[:k]
                     or (opens[k + 1:k + 2] != [(path, True, call)]
                         and (path, False, call) not in opens[k + 1:]))]


class _Counted:
    """A file whose reads append their byte counts to sizes."""

    def __init__(self, fh, sizes):
        self.fh, self.sizes = fh, sizes

    def read(self, *args):
        data = self.fh.read(*args)
        self.sizes.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
