"""Traced in-process replay of a workload's operations.

Each operation is replayed as the public bifreemax calls its ``cmd_*``
makes, with a span around each call; spans are recorded here, in the
benchmark, so ``src/`` is not edited.  The same operation then runs without
spans (the difference is ``trace.overhead_s``) and through ``cli.main``
(the difference to the spanned calls is ``cli.glue_s``: argument parsing,
printing and report writing).  Probes run after the replay and stay out of
every sum that is compared with ``cli.main``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout

from bifreemax import cdf, cli
from bifreemax.biconv import bifree_max_convolve, max_stable_residual, nfold, nth_root, psi_ratio
from bifreemax.extremal import free_max_convolve, free_min_convolve
from bifreemax.oracle import (
    LimitConvergenceError,
    ProjectionPairLaw,
    atom_mass_limit,
    bifree_sum_cauchy,
    projection_indicator_cdf,
    wedge_moment_closed_form,
    wedge_moment_limit,
)

import verify

TOL = cdf.EPS_CDF
#: Spans whose names start with this are probes: they split a layer's time
#: without being part of any CLI call.
PROBE = "probe."
#: The atom route is not part of ``cmd_oracle``; it is timed as a probe.
EXTRA = {"oracle.atom"}


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op_id = -1
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def count(self, name, value=1):
        self.counts[name] += value


class NullTracer:
    def span(self, name):
        return nullcontext()

    def count(self, name, value=1):
        pass


# ---------------------------------------------------------------------------
# Replays, one per subcommand
# ---------------------------------------------------------------------------

def _load(t, path):
    with t.span("cdf.load_bi_json"):
        F = cdf.load_bi_json(path)
    t.count("cdf.load_bi_json.mb", os.path.getsize(path) / 1e6)
    return F


def _save(t, F, out):
    with t.span("cdf.save_bi_json"):
        cdf.save_bi_json(F, out)
    t.count("cdf.save_bi_json.mb", os.path.getsize(out) / 1e6)


def _validate(t, op, d, out):
    F = _load(t, d / op.meta["path"])
    with t.span("cdf.validate_bi"):
        v = cdf.validate_bi(F, TOL)
    t.count("cdf.validate_bi.calls")
    t.count("cdf.validate_bi.violations", len(v))


def _uniconv(t, op, d, out):
    with t.span("cdf.load_uni_json"):
        F, G = (cdf.load_uni_json(d / p) for p in op.meta["paths"])
    with t.span("extremal"):
        H = (free_max_convolve if op.meta["op"] == "max" else free_min_convolve)(F, G, TOL)
    with t.span("cdf.save_uni_json"):
        cdf.save_uni_json(H, out)


def _biconv(t, op, d, out):
    F, G = (_load(t, d / p) for p in op.meta["paths"])
    with t.span("biconv.bifree_max_convolve"):
        H = bifree_max_convolve(F, G, TOL)
    t.count("biconv.bifree_max_convolve.cells", H.cdf.size)
    _save(t, H, out)
    for X in (F, G):
        with t.span("cdf.evaluate_grid"):
            X.evaluate_grid(H.x_breaks, H.y_breaks)
    with t.span("biconv.psi_ratio"):
        psi_ratio(H, TOL)


def _nfold(t, op, d, out):
    F = _load(t, d / op.meta["path"])
    with t.span("biconv.nfold"):
        H = nfold(F, int(op.args[1]), TOL)
    _save(t, H, out)


def _root(t, op, d, out):
    F = _load(t, d / op.meta["path"])
    with t.span("biconv.nth_root"):
        res = nth_root(F, int(op.args[1]), TOL)
    t.count("cdf.validate_bi.violations", len(res.violations))
    if res.ok:
        _save(t, res.candidate, out)


def _stability(t, op, d, out):
    F = _load(t, d / op.meta["path"])
    norm = cdf.AffineNormalization(*op.meta["norm"])
    with t.span("biconv.max_stable_residual"):
        max_stable_residual(F, int(op.args[1]), norm, TOL)


def _oracle(t, op, d, out):
    p, q, r, p2, q2, r2 = op.meta["law"]
    law, law2 = ProjectionPairLaw(p, q, r), ProjectionPairLaw(p2, q2, r2)
    with t.span("oracle.closed_form"):
        wedge_moment_closed_form(law, law2)
    with t.span("oracle.limit"):
        wedge_moment_limit(law, law2)
    with t.span("oracle.cell"):
        F, G = projection_indicator_cdf(law), projection_indicator_cdf(law2)
        with t.span("biconv.bifree_max_convolve"):
            H = bifree_max_convolve(F, G)
        float(H.cdf[0, 0])
    t.count("biconv.bifree_max_convolve.cells", H.cdf.size)


def _ecdf(t, op, d, out):
    with t.span("cdf.load_samples_tsv"):
        samples = cdf.load_samples_tsv(d / op.meta["path"])
    with t.span("cdf.ecdf_from_samples"):
        F = cdf.ecdf_from_samples(samples)
    _save(t, F, out)


def _plotdata(t, op, d, out):
    F = _load(t, d / op.meta["path"])
    with t.span("cdf.require_valid_bi"):
        cdf.require_valid_bi(F, TOL)


REPLAYS = {
    "validate": _validate, "uniconv": _uniconv, "biconv": _biconv, "nfold": _nfold,
    "root": _root, "stability": _stability, "oracle": _oracle, "ecdf": _ecdf,
    "plotdata": _plotdata,
}


def _probe(t, op, d):
    """Split the kernel and the oracle without editing ``src/``."""
    if op.kind == "biconv":
        F, G = (cdf.load_bi_json(d / p) for p in op.meta["paths"])
        with t.span(PROBE + "merge_grids"):
            cdf.merge_grids(F, G, TOL)
        with t.span(PROBE + "validate_bi"):
            cdf.validate_bi(F, TOL)
            cdf.validate_bi(G, TOL)
    elif op.kind == "oracle":
        p, q, r, p2, q2, r2 = op.meta["law"]
        with t.span("oracle.atom"):
            try:
                atom_mass_limit(bifree_sum_cauchy(ProjectionPairLaw(p, q, r),
                                                  ProjectionPairLaw(p2, q2, r2)), (2.0, 2.0))
            except LimitConvergenceError:
                t.count("oracle.atom.unstable")


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def startup_s(env, probes):
    """Median wall time of a fresh process that imports bifreemax.cli."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bifreemax.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_main(op, d, out, totals):
    """Run ``cli.main`` on the op in this process and check its output."""
    stdout = out.with_suffix(".stdout")
    with open(stdout, "w") as fo, open(os.devnull, "w") as fe, \
            redirect_stdout(fo), redirect_stderr(fe):
        t0 = time.perf_counter()
        rc = cli.main(op.argv(out))
        totals["main"] += time.perf_counter() - t0
    why = verify.check(op, rc, d, out, stdout.read_text())
    stdout.unlink()
    return why


def replay(unit, d, seconds, max_units):
    """Replay the op list ``unit`` until ``seconds`` pass (at least once, at
    most ``max_units`` times).  Returns the tracer, per-pass totals, failures,
    calls attempted and units replayed.

    The working directory must be ``d``: CLI arguments are relative to it.
    """
    (d / "trace_out").mkdir()
    tracer, null = Tracer(), NullTracer()
    totals = {"untraced": 0.0, "main": 0.0}
    failures, attempted, units = [], 0, 0
    deadline = time.perf_counter() + seconds
    while units < max_units and (units == 0 or time.perf_counter() < deadline):
        for i, op in enumerate(unit):
            op_id = units * len(unit) + i
            out = d / "trace_out" / op.out_name(op_id)
            tracer.op_id = op_id
            # rotate which pass runs first, so that no pass always runs on warm caches
            passes = ("untraced", "traced", "main")
            for name in passes[op_id % 3:] + passes[:op_id % 3]:
                if name == "traced":
                    with tracer.span("op." + op.label):
                        REPLAYS[op.kind](tracer, op, d, out)
                elif name == "untraced":
                    t0 = time.perf_counter()
                    REPLAYS[op.kind](null, op, d, out)
                    totals["untraced"] += time.perf_counter() - t0
                else:
                    why = _run_main(op, d, out, totals)
                    attempted += 1
                    if why:
                        failures.append(f"{op.label}: {why}")
                out.unlink(missing_ok=True)
            _probe(tracer, op, d)
        units += 1
    return tracer, totals, failures, attempted, units


def layers(tracer):
    """Per span name: calls, busy (inclusive) and self time, in seconds."""
    busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for name, start, end, parent, _ in tracer.spans:
        dur = end - start
        busy[name] += dur
        own[name] += dur
        calls[name] += 1
        if parent >= 0:
            own[tracer.spans[parent][0]] -= dur
    return {n: {"calls": calls[n], "busy_s": busy[n], "self_s": own[n]} for n in busy}


def is_extra(name):
    return name.startswith(PROBE) or name in EXTRA


def replay_sums(tracer):
    """(total of the op spans, total of the spans directly inside them)."""
    roots, inner = 0.0, 0.0
    for name, start, end, parent, _ in tracer.spans:
        if parent < 0 and not is_extra(name):
            roots += end - start
        elif parent >= 0 and tracer.spans[parent][3] < 0:
            inner += end - start
    return roots, inner
