"""Output checks for one CLI call, made after the timed region.

Each check returns None when the call's result is right and a short reason
otherwise.  Expected values come from ``reference``, not from bifreemax.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import numpy as np

import reference as ref

#: Largest spread the oracle's three routes may show (the CLI default).
ORACLE_SPREAD = 1e-6


def _validate(op, d, out, stdout):
    if op.expect_rc == 0:
        return None if stdout.strip() == "OK" else "valid grid not reported OK"
    if ref.is_cdf(ref.load_bi(d / op.meta["path"])[2]):
        return "corrupted input passes the reference check"
    lines = stdout.splitlines()
    return None if lines and "OK" not in lines else "corrupted grid reported without violations"


def _uniconv(op, d, out, stdout):
    (fb, fv), (gb, gv) = (ref.load_uni(d / p) for p in op.meta["paths"])
    hb, hv = ref.load_uni(out)
    if not np.array_equal(hb, np.union1d(fb, gb)):
        return "breaks are not the union grid"
    f, g = ref.step(fb, fv, hb), ref.step(gb, gv, hb)
    want = np.maximum(0.0, f + g - 1.0) if op.meta["op"] == "max" else np.minimum(f + g, 1.0)
    return None if np.array_equal(hv, want) else "values differ from the univariate formula"


def _biconv(op, d, out, stdout):
    (fx, fy, fc), (gx, gy, gc) = (ref.load_bi(d / p) for p in op.meta["paths"])
    hx, hy, hc = ref.load_bi(out)
    if not (np.array_equal(hx, np.union1d(fx, gx)) and np.array_equal(hy, np.union1d(fy, gy))):
        return "output grid is not the union grid"
    if not ref.is_cdf(hc):
        return "output is not a valid CDF"
    h1 = np.maximum(0.0, ref.step(fx, fc[:, -1], hx) + ref.step(gx, gc[:, -1], hx) - 1.0)
    h2 = np.maximum(0.0, ref.step(fy, fc[-1, :], hy) + ref.step(gy, gc[-1, :], hy) - 1.0)
    if not (np.array_equal(hc[:, -1], h1) and np.array_equal(hc[-1, :], h2)):
        return "marginals differ from (F_j + G_j - 1)_+"
    return None


def _nfold(op, d, out, stdout):
    fx, fy, fc = ref.load_bi(d / op.meta["path"])
    hx, hy, hc = ref.load_bi(out)
    n = int(op.args[1])
    if not (np.array_equal(hx, fx) and np.array_equal(hy, fy)):
        return "output grid differs from the input grid"
    if not ref.is_cdf(hc):
        return "output is not a valid CDF"
    h1 = np.maximum(0.0, n * fc[:, -1] - (n - 1.0))
    h2 = np.maximum(0.0, n * fc[-1, :] - (n - 1.0))
    if not (np.array_equal(hc[:, -1], h1) and np.array_equal(hc[-1, :], h2)):
        return "marginals differ from (n F_j - (n-1))_+"
    return None


def _root(op, d, out, stdout):
    n = int(op.args[1])
    if op.expect_rc == 1:
        with open(out) as fh:
            report = json.load(fh).get("divisibility_failure")
        ok = report and stdout.startswith(f"not {n}-divisible")
        return None if ok else "non-divisible grid reported without violations"
    fc = ref.load_bi(d / op.meta["path"])[2]
    cand = ref.load_bi(out)[2]
    if not ref.is_cdf(cand):
        return "root candidate is not a valid CDF"
    err = float(np.max(np.abs(ref.nfold_cdf(cand, n) - fc)))
    return None if err <= 1e-9 else f"n-fold power of the root misses F by {err:.3g}"


def _stability(op, d, out, stdout):
    got = float(stdout.strip())
    fx, fy, fc = ref.load_bi(d / op.meta["path"])
    want = ref.stable_residual(fx, fy, fc, int(op.args[1]), op.meta["norm"])
    ok = math.isfinite(got) and got >= 0.0 and abs(got - want) <= 1e-9
    return None if ok else f"residual {got!r}, reference {want!r}"


def _oracle(op, d, out, stdout):
    vals = {}
    for line in stdout.splitlines():
        key, _, num = line.rpartition(" ")
        vals[key.strip()] = float(num)
    spread = vals["max pairwise difference"]
    closed = vals["closed-form"]
    want = ref.wedge_closed_form(*op.meta["law"])
    if spread > ORACLE_SPREAD:
        return f"route spread {spread:.3g}"
    return None if abs(closed - want) <= 1e-12 else f"closed form {closed!r}, reference {want!r}"


def _ecdf(op, d, out, stdout):
    with open(d / op.meta["path"]) as fh:
        pts = np.array([[float(v) for v in line.split("\t")] for line in fh], float)
    want = ref.ecdf(pts)
    got = ref.load_bi(out)
    return None if all(map(np.array_equal, got, want)) else "ECDF differs from sample counts"


#: ``plotdata`` writes numpy scalar reprs, ``np.float64(0.5)``, under numpy 2
#: (ROADMAP aim 4).  The check reads the number inside, compares it exactly,
#: and counts the call in ``FORMAT_DEFECTS`` instead of failing it.
NUMPY_REPR = re.compile(r"np\.float64\(([^)]*)\)")
FORMAT_DEFECTS = Counter()


def _plotdata(op, d, out, stdout):
    xb, yb, c = ref.load_bi(d / op.meta["path"])
    with open(out) as fh:
        text = fh.read()
    plain = NUMPY_REPR.sub(r"\1", text)
    if plain != text:
        FORMAT_DEFECTS["plotdata rows written as np.float64(...) reprs"] += 1
    rows = np.array([[float(v) for v in line.split("\t")] for line in plain.splitlines()], float)
    want = np.column_stack([np.repeat(xb, yb.size), np.tile(yb, xb.size), c.ravel()])
    return None if np.array_equal(rows, want) else "rows differ from the grid"


CHECKS = {
    "validate": _validate, "uniconv": _uniconv, "biconv": _biconv, "nfold": _nfold,
    "root": _root, "stability": _stability, "oracle": _oracle, "ecdf": _ecdf,
    "plotdata": _plotdata,
}


def check(op, rc, d, out, stdout):
    """None if exit code and output are right for ``op``, else the reason."""
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    try:
        return CHECKS[op.kind](op, d, out, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
