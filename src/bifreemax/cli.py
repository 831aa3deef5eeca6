"""Command-line surface for the grid CDF toolkit.

Exit codes: 0 success, 1 domain-level failure (invalid CDF, divisibility
failure, oracle spread above tolerance), 2 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
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
    ecdf_from_samples,
    load_bi_json,
    load_samples_tsv,
    load_uni_json,
    require_valid_bi,
    require_valid_uni,
    save_bi_json,
    save_uni_json,
    validate_bi,
    validate_uni,
    write_bi_json,
)
from .extremal import free_max_convolve, free_min_convolve
from .biconv import (
    bifree_max_convolve,
    bifree_max_convolve_rows,
    max_stable_residual,
    nfold_rows,
    nth_root,
    psi_range,
)
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
        violations = validate_bi(load_bi_json(args.path), args.tol)
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
    F = load_bi_json(args.pathF)
    G = load_bi_json(args.pathG)
    H = bifree_max_convolve_rows(F, G, args.tol)
    last = H.y_breaks[-1:]
    h1 = np.maximum(0.0, F.evaluate_grid(H.x_breaks, last)[:, 0]
                    + G.evaluate_grid(H.x_breaks, last)[:, 0] - 1.0)
    m1, m2 = np.empty(H.shape[0]), H.last_row()
    psi = [np.inf, -np.inf]

    def passing():   # gathers the last column and the psi range on the way out
        for rows, block in H.blocks():
            m1[rows] = block[:, -1]
            psi[:] = psi_range(block, m2, *psi)
            yield block

    _write_streamed(args.out, H.x_breaks, H.y_breaks, passing())
    print(f"wrote {args.out}: grid {H.x_breaks.size}x{H.y_breaks.size}, "
          f"total mass {float(m2[-1])!r}, "
          f"marginal check {'OK' if np.array_equal(m1, h1) else 'FAILED'}")
    # max |psi - 1| is at the smallest or the largest psi
    if psi[0] <= psi[1] and max(psi[1] - 1.0, 1.0 - psi[0]) <= args.tol:
        print("psi == 1 (product output)")
    return 0


def cmd_nfold(args) -> int:
    F = load_bi_json(args.path)
    H = nfold_rows(F, args.n, args.tol)
    mass = float(H.last_row()[-1])
    _write_streamed(args.out, H.x_breaks, H.y_breaks, (block for _, block in H.blocks()))
    print(f"wrote {args.out}: {args.n}-fold power, total mass {mass!r}")
    return 0


def _write_streamed(path, x_breaks, y_breaks, blocks) -> None:
    """write_bi_json to a temporary file beside path, renamed to path on success.

    The output is computed while it is written, so an error can come midway;
    then path is left as it was and the temporary file is removed.  A path
    that exists and is not a regular file, such as /dev/null, is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            write_bi_json(fh, x_breaks, y_breaks, blocks)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write_bi_json(fh, x_breaks, y_breaks, blocks)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def cmd_root(args) -> int:
    F = load_bi_json(args.path)
    result = nth_root(F, args.n, args.tol)
    if result.ok:
        save_bi_json(result.candidate, args.out)
        print(f"wrote {args.out}: valid {args.n}-th root candidate")
        return 0
    with open(args.out, "w") as fh:
        json.dump({"divisibility_failure": result.violations}, fh, indent=2)
        fh.write("\n")
    print(f"not {args.n}-divisible; report written to {args.out}:")
    for v in result.violations:
        print(f"  {v}")
    return 1


def cmd_stability(args) -> int:
    F = load_bi_json(args.path)
    norm = AffineNormalization(args.a, args.b, args.c, args.d)
    res = max_stable_residual(F, args.n, norm, args.tol)
    print(f"{res:.10g}")
    return 0


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
    F = ecdf_from_samples(samples)
    save_bi_json(F, args.out)
    print(f"wrote {args.out}: {samples.shape[0]} samples, "
          f"grid {F.x_breaks.size}x{F.y_breaks.size}")
    return 0


def cmd_plotdata(args) -> int:
    F = load_bi_json(args.path)
    require_valid_bi(F, args.tol)
    with open(args.out, "w") as fh:
        ys = F.y_breaks.tolist()
        for x, row in zip(F.x_breaks.tolist(), F.cdf):
            for y, v in zip(ys, row.tolist()):
                fh.write(f"{x!r}\t{y!r}\t{v!r}\n")
    print(f"wrote {args.out}: {F.x_breaks.size * F.y_breaks.size} rows")
    return 0


def _add_tol(p: argparse.ArgumentParser, default: float = EPS_CDF) -> None:
    p.add_argument("--tol", type=float, default=default,
                   help=f"tolerance (default {default})")


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
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("c", type=float)
    p.add_argument("d", type=float)
    _add_tol(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("oracle", help="wedge moment by three independent routes")
    for name in ("p", "q", "r", "p2", "q2", "r2"):
        p.add_argument(name, type=float)
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
    except (CDFFormatError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CDFError, InvalidLawError, LimitConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
