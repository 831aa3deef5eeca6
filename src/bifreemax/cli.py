"""Command-line surface for the grid CDF toolkit.

Exit codes: 0 success, 1 domain-level failure (invalid CDF, divisibility
failure, oracle spread above tolerance), 2 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

# The package makes no BLAS calls, but OpenBLAS starts a spinning thread per
# core when numpy loads: in a fresh process that is CPU time and run-to-run
# jitter for nothing.  Only takes effect if numpy is not loaded yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .cdf import (
    EPS_CDF,
    AffineNormalization,
    CDFError,
    CDFFormatError,
    UnivariateCDF,
    _BiValidator,
    _Scratch,
    _union_grid,
    ecdf_rows,
    row_blocks,
    validate_uni,
)
from .extremal import free_max_convolve, free_min_convolve
from .gridio import (_one_pass, _replacing, _write_bi_json, load_samples_tsv, load_uni_json,
                     save_bi_json, save_uni_json)
from .biconv import _nfold_rows, _power_rows, _residual, bifree_max_convolve, psi_range
from .oracle import (
    InvalidLawError,
    LimitConvergenceError,
    ProjectionPairLaw,
    projection_indicator_cdf,
    wedge_moment_closed_form,
    wedge_moment_limit,
)


def cmd_validate(args) -> int:
    if args.kind == "uni":
        violations = validate_uni(load_uni_json(args.path), args.tol)
    else:
        violations = _one_pass([args.path], args.tol, lambda F: F.report())
    if violations:
        for v in violations:
            print(v)
        return 1
    print("OK")
    return 0


def cmd_uniconv(args) -> int:
    F = load_uni_json(args.pathF)
    G = load_uni_json(args.pathG)
    op = free_max_convolve if args.op == "max" else free_min_convolve
    H = op(F, G, args.tol)
    save_uni_json(H, args.out)
    print(f"wrote {args.out}: {H.breaks.size} breaks, total mass {float(H.values[-1])!r}")
    return 0


def cmd_biconv(args) -> int:
    def run(F, G):   # the convolution, then the marginal and psi report
        xs, ys = _union_grid(F, G, "bifree_max_convolve")
        scratch = _Scratch(xs.size, ys.size)   # the kernel's, and psi_range's between reads
        H = _power_rows(xs, ys, (F, G), scratch=scratch)
        m1, m2 = np.empty(xs.size), H.evaluate_grid(xs[-1:], ys)[0]
        psi = np.inf, -np.inf
        for rows, b in _write_bi_json(H, args.out, (F, G)):   # gathers the last column and psi
            m1[rows] = b[:, -1]
            psi = psi_range(b, m2, scratch, *psi)
        f1, g1 = (UnivariateCDF(X.x_breaks, X.column) for X in (F, G))   # the input marginals
        ok = np.all(np.abs(m1 - free_max_convolve(f1, g1, args.tol).values) <= args.tol)
        print(f"wrote {args.out}: grid {xs.size}x{ys.size}, "
              f"total mass {float(m2[-1])!r}, marginal check {'OK' if ok else 'FAILED'}")
        # max |psi - 1| is at the smallest or the largest psi
        if psi[0] <= psi[1] and max(psi[1] - 1.0, 1.0 - psi[0]) <= args.tol:
            print("psi == 1 (product output)")
        return 0

    return _one_pass([args.pathF, args.pathG], args.tol, run)


def cmd_nfold(args) -> int:
    def run(F):
        H = _nfold_rows(F, args.n)
        mass = H.evaluate(H.x_breaks[-1], H.y_breaks[-1])
        for _ in _write_bi_json(H, args.out, (F,)):
            pass
        print(f"wrote {args.out}: {args.n}-fold power, total mass {mass!r}")
        return 0

    return _one_pass([args.path], args.tol, run)


class _NotDivisible(Exception):
    """The root candidate has a violation: its output stops, its validation goes on."""


def cmd_root(args) -> int:
    def run(F):
        # the candidate, checked as it is written
        R = _BiValidator(_power_rows(F.x_breaks, F.y_breaks, (F,), 1, args.n), args.tol)
        try:
            for _ in _write_bi_json(R, args.out, (F,)):   # a block with a violation is not written
                if not R.clean:
                    raise _NotDivisible
        except _NotDivisible:
            violations = R.report()   # which reads the rest of F too
        else:
            print(f"wrote {args.out}: valid {args.n}-th root candidate")
            return 0
        with _replacing(args.out, (F,)) as fh:
            fh.write(json.dumps({"divisibility_failure": violations}, indent=2) + "\n")
        print(f"not {args.n}-divisible; report written to {args.out}:")
        for v in violations:
            print(f"  {v}")
        return 1

    return _one_pass([args.path], args.tol, run)


def cmd_stability(args) -> int:
    def run(F):
        res = _residual(F, args.n, AffineNormalization(args.a, args.b, args.c, args.d))
        F.finish()
        print(f"{res:.10g}")
        return 0

    return _one_pass([args.path], args.tol, run)


def cmd_oracle(args) -> int:
    law = ProjectionPairLaw(args.p, args.q, args.r)
    law2 = ProjectionPairLaw(args.p2, args.q2, args.r2)
    closed = wedge_moment_closed_form(law, law2)
    limit = wedge_moment_limit(law, law2)
    H = bifree_max_convolve(projection_indicator_cdf(law),
                            projection_indicator_cdf(law2))
    cell = float(H.cdf[0, 0])
    values = [closed, limit, cell]
    spread = max(values) - min(values)
    print(f"closed-form      {closed!r}")
    print(f"transform-limit  {limit!r}")
    print(f"convolution-cell {cell!r}")
    print(f"max pairwise difference {spread!r}")
    if spread > args.tol:
        print(f"spread above tolerance {args.tol!r}", file=sys.stderr)
        return 1
    return 0


def cmd_ecdf(args) -> int:
    samples = load_samples_tsv(args.samples_path)
    F = ecdf_rows(samples)
    save_bi_json(F, args.out)
    print(f"wrote {args.out}: {samples.shape[0]} samples, "
          f"grid {F.x_breaks.size}x{F.y_breaks.size}")
    return 0


def cmd_plotdata(args) -> int:
    def run(F):
        nx, ny = F.x_breaks.size, F.y_breaks.size
        with _replacing(args.out, (F,)) as fh:
            # one write per grid row: a format with each y's text, filled with x and the values
            line = "".join(f"%s\t{y!r}\t%r\n" for y in F.y_breaks.tolist())
            cells = [None] * (2 * ny)
            for rows in row_blocks(nx, ny):
                for x, row in zip(F.x_breaks[rows].tolist(), F.block(rows)):
                    cells[0::2] = [repr(x)] * ny
                    cells[1::2] = row.tolist()
                    fh.write(line % tuple(cells))
        print(f"wrote {args.out}: {nx * ny} rows")
        return 0

    return _one_pass([args.path], args.tol, run)


def _tolerance(text: str) -> float:
    """The --tol value: a finite number >= 0 (nan fails every comparison)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_tol(p: argparse.ArgumentParser, default: float = EPS_CDF) -> None:
    p.add_argument("--tol", type=_tolerance, default=default,
                   help=f"tolerance (default {default})")


def _add_floats(p: argparse.ArgumentParser, names) -> None:
    """Float positionals, which may be negative.

    argparse takes an argument that starts with '-' for an option unless
    the parser's negative-number pattern matches it, and the pattern of
    Python 3.11 has no exponent, inf or nan, so -1e-3 was an unknown
    option.  Here every argument that starts like a negative number is a
    positional, and float() judges it.
    """
    for name in names:
        p.add_argument(name, type=float)
    p._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


@functools.cache   # main() in one process parses with one parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifreemax",
        description="Bi-free extremal convolutions on grid CDF files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a CDF file")
    p.add_argument("path")
    p.add_argument("--kind", choices=["uni", "bi"], required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("uniconv", help="univariate free extremal convolution")
    p.add_argument("pathF")
    p.add_argument("pathG")
    p.add_argument("--op", choices=["max", "min"], default="max")
    p.add_argument("--out", required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_uniconv)

    p = sub.add_parser("biconv", help="bi-free max-convolution of two bivariate CDFs")
    p.add_argument("pathF")
    p.add_argument("pathG")
    p.add_argument("--out", required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_biconv)

    p = sub.add_parser("nfold", help="n-fold bi-free max-convolution power")
    p.add_argument("path")
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_nfold)

    p = sub.add_parser("root", help="formula-level n-th convolution root")
    p.add_argument("path")
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("stability", help="sup-on-grid residual of the normalized n-fold power")
    p.add_argument("path")
    p.add_argument("n", type=int)
    _add_floats(p, ("a", "b", "c", "d"))
    _add_tol(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("oracle", help="wedge moment by three independent routes")
    _add_floats(p, ("p", "q", "r", "p2", "q2", "r2"))
    _add_tol(p, default=1e-6)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ecdf", help="empirical CDF from TSV samples")
    p.add_argument("samples_path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ecdf)

    p = sub.add_parser("plotdata", help="contour-plot-ready TSV dump of a CDF file")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    _add_tol(p)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CDFFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CDFError, InvalidLawError, LimitConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
