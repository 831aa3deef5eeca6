"""Fresh-process benchmark of the bifreemax CLI.

    python3 perfbench/run.py --workload small-cli --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` a single client runs one
fresh ``python -m bifreemax.cli`` process per operation, closed loop, making
the calls that take ``--seconds`` seconds on the reference machine, then
checks every output and prints the end-to-end metrics.  With ``--trace 1``
it replays the same calls in this process with a span around each public
call and prints the per-layer metrics.  The last line of standard output is
one JSON object; see perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fresh ``import bifreemax.cli`` processes timed for ``cli.startup_s``.
STARTUP_PROBES = {"full": 5, "smoke": 1}
#: Cap on units a traced run replays, so that the span file stays small.
MAX_TRACE_UNITS = 20

END_TO_END = {
    "ops_per_s": "1/s", "call_p50_s": "s", "call_tail_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "cli.startup_s": "s", "cli.main_s": "s", "cli.glue_s": "s",
    "cdf.load_bi_json.busy_s": "s", "cdf.load_bi_json.mb": "MB",
    "cdf.save_bi_json.busy_s": "s", "cdf.save_bi_json.mb": "MB",
    "cdf.validate_bi.busy_s": "s", "cdf.validate_bi.calls": "count",
    "cdf.validate_bi.violations": "count",
    "cdf.ecdf_from_samples.busy_s": "s", "cdf.load_samples_tsv.busy_s": "s",
    "cdf.evaluate_grid.busy_s": "s",
    "biconv.bifree_max_convolve.busy_s": "s", "biconv.bifree_max_convolve.cells": "count",
    "biconv.psi_ratio.busy_s": "s", "biconv.nfold.busy_s": "s",
    "biconv.nth_root.busy_s": "s", "biconv.max_stable_residual.busy_s": "s",
    "extremal.busy_s": "s",
    "oracle.closed_form.busy_s": "s", "oracle.limit.busy_s": "s",
    "oracle.cell.busy_s": "s", "oracle.atom.busy_s": "s",
    "probe.merge_grids.busy_s": "s", "probe.validate_bi.busy_s": "s",
    "trace.overhead_s": "s",
}


def environment():
    """Where the numbers were measured (ROADMAP aim 2 asks for the size of src/)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def set_up(args, run_dir):
    """Set up SETUPS times in fresh directories; keep the last one."""
    times = []
    for k in range(SETUPS):
        d = run_dir / f"setup{k}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(inputs.__file__)), args.workload,
                        str(args.seed), str(d), args.profile], check=True)
        times.append(time.perf_counter() - t0)
        if k < SETUPS - 1:
            shutil.rmtree(d)
    return d, inputs.load_plan(d), statistics.median(times)


def measure(ops, d):
    """Closed loop, one client: the next call starts when the last returns."""
    (d / "out").mkdir()
    env = child_env()
    calls = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out = "out/" + op.out_name(i)
        argv = [sys.executable, "-m", "bifreemax.cli"] + op.argv(out)
        with open(d / f"out/{i}.stdout", "w") as fo, open(d / f"out/{i}.stderr", "w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=d, env=env, stdout=fo, stderr=fe)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        calls.append({"op": op, "i": i, "out": out, "rc": proc.returncode, "s": t1 - t0,
                      "rss_mb": usage.ru_maxrss / 1024.0})
    return calls, t1 - start


def check_calls(calls, d):
    """Check every call's output; return the reasons for the failed ones."""
    failures = []
    for c in calls:
        stdout = (d / f"out/{c['i']}.stdout").read_text()
        why = verify.check(c["op"], c["rc"], d, d / c["out"], stdout)
        c["ok"] = why is None
        if why:
            failures.append(f"call {c['i']} {c['op'].label}: {why}")
        for p in (c["out"], f"out/{c['i']}.stdout", f"out/{c['i']}.stderr"):
            (d / p).unlink(missing_ok=True)
    return failures


def tail(times):
    """Highest percentile with at least 10 calls beyond it: (value, percentile)."""
    s = sorted(times)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def report_problems(failures):
    for f in failures:
        print(f"  FAILED {f}")
    for what, n in verify.FORMAT_DEFECTS.items():
        print(f"  note: {n} call(s) with {what}; values checked, not counted as failed")


def run_end_to_end(args, d, plan, setup_s):
    calls, wall = measure(inputs.planned(plan, args.seconds), d)
    failures = check_calls(calls, d)
    times = [c["s"] for c in calls]
    tail_s, tail_pct = tail(times)
    metrics = {
        "ops_per_s": len(calls) / wall,
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail_s,
        "peak_rss_mb": max(c["rss_mb"] for c in calls),
        "setup_s": setup_s,
    }
    n, failed = len(calls), len(failures)
    print(f"workload {args.workload}  seed {args.seed}  {n} calls in {wall:.2f} s, one client")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_ratio':<12} {failed / n:.6g} ({failed}/{n})")
    print(f"  percentile of call_tail_s: p{tail_pct:.1f} of {n} calls")
    report_problems(failures)
    record = {"calls": [{"label": c["op"].label, "s": c["s"], "rc": c["rc"],
                         "rss_mb": c["rss_mb"], "ok": c["ok"]} for c in calls],
              "tail_percentile": tail_pct, "fail_ratio": failed / n, "failures": failures}
    return n, failed, {k: (metrics[k], u) for k, u in END_TO_END.items()}, record


def run_traced(args, d, plan, setup_s):
    import tracing

    startup = tracing.startup_s(child_env(), STARTUP_PROBES[args.profile])
    ops = inputs.planned(plan, args.seconds)
    os.chdir(d)
    tracer, totals, failures, attempted, units = tracing.replay(
        ops, d, args.seconds, MAX_TRACE_UNITS)
    os.chdir(ROOT)
    table = tracing.layers(tracer)
    roots, inner = tracing.replay_sums(tracer)
    values = {
        "cli.startup_s": startup,
        "cli.main_s": totals["main"] / units,
        "cli.glue_s": (totals["main"] - inner) / units,
        "trace.overhead_s": (roots - totals["untraced"]) / units,
    }
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "busy_s":
            values[name] = table.get(layer, {}).get("busy_s", 0.0) / units
        elif name not in values:
            values[name] = tracer.counts.get(name, 0) / units
    print(f"workload {args.workload}  seed {args.seed}  traced replay of {units} unit(s) of "
          f"{len(ops)} ops (the calls of one end-to-end run); per unit: replay {roots / units:.6g} s, "
          f"cli.main {totals['main'] / units:.6g} s")
    print(f"  {'layer':<36} {'calls':>7} {'busy_s':>11} {'self_s':>11} {'share':>7}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = "  probe" if tracing.is_extra(name) else f"{100 * row['self_s'] / roots:6.2f}%"
        print(f"  {name:<36} {row['calls'] / units:7.4g} {row['busy_s'] / units:11.6f} "
              f"{row['self_s'] / units:11.6f} {share}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<36} {values[name]:.6g} {unit}")
    report_problems(failures)
    spans = WORK / "results" / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
    spans.write_text(json.dumps(tracer.spans))
    record = {"units": units, "layers": table, "counts": tracer.counts,
              "spans_file": str(spans.relative_to(ROOT)), "failures": failures}
    return attempted, len(failures), {k: (values[k], u) for k, u in PER_LAYER.items()}, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", dest="profile", action="store_const", const="smoke",
                   default="full", help="toy sizes: every operation kind in seconds")
    args = p.parse_args(argv)
    if not (SRC / "bifreemax" / "cli.py").is_file():
        print(f"error: no bifreemax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        d, plan, setup_s = set_up(args, run_dir)
        run = run_traced if args.trace else run_end_to_end
        attempted, failed, metrics, record = run(args, d, plan, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()
    print("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (WORK / "results" / name).write_text(json.dumps(
        {"args": vars(args), "env": env, "result": result, **record}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
