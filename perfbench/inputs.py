"""Seeded inputs and operation plans for the three benchmark workloads.

Inputs are generated with numpy and written with the standard ``json``
module, never through bifreemax, so the code under test does not run while
the benchmark sets up and no file survives from one run to the next.

A workload is a few *heavy* operations and a *block* of light ones.  Its
call sequence is each heavy call followed by one block, then the block
again and again, so that the heavy calls are spread over the run instead
of meeting the same stretch of machine noise.  A run makes the calls whose
nominal costs (``NOMINAL_S``, wall seconds of one fresh-process call on the
reference machine, 2 vCPU Xeon) add up to the run's ``--seconds``.  The
kinds and sizes are fixed and the seed decides only the data, so every run
of a workload does the same amount of work, each heavy call exactly once,
and its metrics are comparable across seeds and across commits.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import nfold_cdf

#: Grid sizes and sample counts per profile.  The
#: smoke profile runs every operation kind at toy size in seconds.
PROFILES = {
    "full": {"small": 256, "large": 1024, "samples": (100, 200, 400, 800)},
    "smoke": {"small": 8, "large": 24, "samples": (10, 20, 30, 40)},
}
#: Share of cells perturbed in the corrupted grids given to ``validate``.
CORRUPT_FRACTION = 0.01
#: Where the op plan is stored next to the inputs.
PLAN_FILE = "plan.json"
#: Nominal cost of one call by op label; any other label costs LIGHT_S.
NOMINAL_S = {
    "biconv@1024": 7.2, "nfold@1024": 2.5, "stability@1024": 1.6, "validate@1024": 1.5,
    "biconv@256": 1.25, "nfold@256": 1.0, "stability@256": 0.95, "validate@256": 0.95,
    "root-nondivisible@1024": 5.0, "ecdf@800": 2.4, "ecdf@400": 1.2,
    "root-nondivisible@256": 1.15, "root-divisible@256": 1.05,
    "validate-corrupt@256": 0.95, "ecdf@200": 0.95, "ecdf@100": 0.95,
}
LIGHT_S = 0.8
#: Fold count for ``nfold``, ``root`` and ``stability``.
FOLD = 2


@dataclass(frozen=True)
class Op:
    """One CLI call: ``bifreemax <kind> <args>``.

    ``args`` holds paths relative to the run directory; ``{out}`` stands for
    the call's own output file.  ``meta`` carries what the output check and
    the traced replay need to know about the inputs.
    """

    kind: str
    label: str
    args: tuple
    expect_rc: int = 0
    meta: dict = field(default_factory=dict)

    def out_name(self, tag):
        """File name of the output of call ``tag``."""
        return f"{tag}.tsv" if self.kind == "plotdata" else f"{tag}.json"

    def argv(self, out):
        """Subcommand and arguments, writing to ``out``."""
        return [self.kind] + [str(out) if a == "{out}" else a for a in self.args]


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def _breaks(rng, n, offset=0.0):
    return offset + np.cumsum(rng.uniform(0.1, 1.0, n))


def random_cdf(rng, nx, ny, corner_mass=0.0):
    """Random valid bivariate CDF values on an nx x ny grid.

    With ``corner_mass`` that much probability sits on the lowest grid
    point, so every marginal value is at least ``corner_mass``.
    """
    masses = rng.uniform(0.05, 1.0, (nx, ny))
    if corner_mass:
        masses *= (1.0 - corner_mass) / masses.sum()
        masses[0, 0] += corner_mass
    cdf = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    cdf /= cdf[-1, -1]
    cdf[-1, -1] = 1.0
    return cdf


def write_bi(path, xb, yb, cdf):
    Path(path).write_text(json.dumps(
        {"x_breaks": xb.tolist(), "y_breaks": yb.tolist(), "cdf": cdf.tolist()}) + "\n")


def write_uni(path, breaks, values):
    Path(path).write_text(json.dumps(
        {"breaks": breaks.tolist(), "values": values.tolist()}) + "\n")


def _bi_file(rng, d, name, n, offset=0.0, corner_mass=0.0):
    xb, yb = _breaks(rng, n, offset), _breaks(rng, n, offset)
    write_bi(d / name, xb, yb, random_cdf(rng, n, n, corner_mass))
    return name


def _uni_file(rng, d, name, n):
    values = np.cumsum(rng.uniform(0.05, 1.0, n))
    values /= values[-1]
    values[-1] = 1.0
    write_uni(d / name, _breaks(rng, n), values)
    return name


def _divisible_file(rng, d, name, n):
    """The FOLD-fold power of a random CDF whose marginals stay above
    (FOLD-1)/FOLD, so its formula-level root is a valid CDF."""
    xb, yb = _breaks(rng, n), _breaks(rng, n)
    write_bi(d / name, xb, yb, nfold_cdf(random_cdf(rng, n, n, corner_mass=0.6), FOLD))
    return name


def _corrupted_file(rng, d, name, n):
    """A valid CDF with CORRUPT_FRACTION of its cells moved by 0.01 to 0.5."""
    cdf = random_cdf(rng, n, n)
    k = max(1, round(CORRUPT_FRACTION * cdf.size))
    cells = rng.choice(cdf.size, size=k, replace=False)
    cdf.flat[cells] += rng.choice([-1.0, 1.0], k) * rng.uniform(0.01, 0.5, k)
    write_bi(d / name, _breaks(rng, n), _breaks(rng, n), cdf)
    return name


def _samples_file(rng, d, name, n):
    pts = rng.normal(size=(n, 2))
    (d / name).write_text("".join(f"{x!r}\t{y!r}\n" for x, y in pts.tolist()))
    return name


def _law_pair(rng):
    """Two commuting-projection laws with positive meet traces and joint
    traces strictly inside their Frechet bounds."""
    out = []
    for _ in range(2):
        p, q = rng.uniform(0.55, 0.95, 2)
        lo, hi = max(0.0, p + q - 1.0), min(p, q)
        out += [p, q, lo + (hi - lo) * rng.uniform(0.1, 0.9)]
    return tuple(float(v) for v in out)


def _oracle(rng):
    law = _law_pair(rng)
    return Op("oracle", "oracle", tuple(repr(v) for v in law), meta={"law": law})


def _stability(rng, path, label):
    a, c = rng.uniform(1.0, 2.0, 2)
    b, d = rng.uniform(-0.5, 0.5, 2)
    norm = tuple(float(v) for v in (a, b, c, d))
    return Op("stability", label, (path, str(FOLD)) + tuple(repr(v) for v in norm),
              meta={"path": path, "norm": norm})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def small_cli(rng, d, profile):
    """Tiny inputs; most calls are ``oracle``, one call of every other kind
    per block.  No heavy calls."""
    def size():
        return int(rng.integers(4, 17))

    bi = [_bi_file(rng, d, f"bi{i}.json", size()) for i in range(6)]
    uni = [_uni_file(rng, d, f"uni{i}.json", size()) for i in range(2)]
    div = _divisible_file(rng, d, "div.json", size())
    smp = _samples_file(rng, d, "samples.tsv", int(rng.integers(16, 65)))
    others = [
        Op("validate", "validate", (bi[0], "--kind", "bi"), meta={"path": bi[0]}),
        Op("uniconv", "uniconv-max", (uni[0], uni[1], "--op", "max", "--out", "{out}"),
           meta={"paths": uni, "op": "max"}),
        Op("uniconv", "uniconv-min", (uni[0], uni[1], "--op", "min", "--out", "{out}"),
           meta={"paths": uni, "op": "min"}),
        Op("biconv", "biconv", (bi[1], bi[2], "--out", "{out}"), meta={"paths": bi[1:3]}),
        Op("nfold", "nfold", (bi[3], str(FOLD), "--out", "{out}"), meta={"path": bi[3]}),
        Op("root", "root-divisible", (div, str(FOLD), "--out", "{out}"), meta={"path": div}),
        _stability(rng, bi[4], "stability"),
        Op("plotdata", "plotdata", (bi[5], "--out", "{out}"), meta={"path": bi[5]}),
        Op("ecdf", "ecdf", (smp, "--out", "{out}"), meta={"path": smp}),
    ]
    block = []
    for op in others:
        block += [_oracle(rng), op]
    return [], block + [_oracle(rng), _oracle(rng)]


def large_grid(rng, d, profile):
    """Valid grids on the pass path.  The heavy calls work on the large
    inputs, on offset grids so that the merged ``biconv`` grid doubles per
    axis; the block makes the same calls on the small inputs."""
    s, l = profile["small"], profile["large"]
    fs = _bi_file(rng, d, "Fs.json", s)
    gs = _bi_file(rng, d, "Gs.json", s, offset=0.05)
    fl = _bi_file(rng, d, "Fl.json", l)
    gl = _bi_file(rng, d, "Gl.json", l, offset=0.05)
    heavy = [
        Op("biconv", f"biconv@{l}", (fl, gl, "--out", "{out}"), meta={"paths": [fl, gl]}),
        Op("nfold", f"nfold@{l}", (fl, str(FOLD), "--out", "{out}"), meta={"path": fl}),
        _stability(rng, gl, f"stability@{l}"),
        Op("validate", f"validate@{l}", (gl, "--kind", "bi"), meta={"path": gl}),
    ]
    block = [
        Op("validate", f"validate@{s}", (fs, "--kind", "bi"), meta={"path": fs}),
        Op("biconv", f"biconv@{s}", (fs, gs, "--out", "{out}"), meta={"paths": [fs, gs]}),
        _stability(rng, fs, f"stability@{s}"),
        Op("nfold", f"nfold@{s}", (gs, str(FOLD), "--out", "{out}"), meta={"path": gs}),
    ]
    return heavy, block


def ingest_diagnose(rng, d, profile):
    """Rejection paths of ``root`` and ``validate``, and sample ingestion.
    The heavy calls are the large non-divisible root and the largest sample set."""
    s, l = profile["small"], profile["large"]
    nl = _bi_file(rng, d, "nondiv_l.json", l)
    ns = _bi_file(rng, d, "nondiv_s.json", s)
    dv = _divisible_file(rng, d, "div_s.json", s)
    bad = _corrupted_file(rng, d, "corrupt_s.json", s)
    smp = [_samples_file(rng, d, f"samples{n}.tsv", n) for n in profile["samples"]]

    def ecdf(i):
        return Op("ecdf", f"ecdf@{profile['samples'][i]}", (smp[i], "--out", "{out}"),
                  meta={"path": smp[i]})

    heavy = [Op("root", f"root-nondivisible@{l}", (nl, str(FOLD), "--out", "{out}"), 1,
                meta={"path": nl}), ecdf(3)]
    rejects = [
        Op("root", f"root-nondivisible@{s}", (ns, str(FOLD), "--out", "{out}"), 1,
           meta={"path": ns}),
        Op("validate", f"validate-corrupt@{s}", (bad, "--kind", "bi"), 1, meta={"path": bad}),
        Op("root", f"root-divisible@{s}", (dv, str(FOLD), "--out", "{out}"), meta={"path": dv}),
    ]
    return heavy, rejects + [ecdf(0)] + rejects + [ecdf(1)] + rejects + [ecdf(2)]


WORKLOADS = {
    "small-cli": small_cli,
    "large-grid": large_grid,
    "ingest-diagnose": ingest_diagnose,
}


def setup(workload, seed, directory, profile="full"):
    """Write the workload's inputs into ``directory``; return its
    (heavy, block) plan of operations."""
    directory = Path(directory)
    directory.mkdir(parents=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, directory, PROFILES[profile])


def planned(plan, seconds):
    """The calls a run of ``seconds`` makes: each heavy call followed by a
    block, then the block repeated, up to the first call that brings the
    nominal total to ``seconds`` (at least one call)."""
    heavy, block = plan
    calls, total = [], 0.0
    sequence = itertools.chain(*([op] + block for op in heavy), itertools.cycle(block))
    for op in sequence:
        calls.append(op)
        total += NOMINAL_S.get(op.label, LIGHT_S)
        if total >= seconds:
            return calls


def load_plan(directory):
    """The (heavy, block) plan that ``python3 inputs.py`` wrote next to the inputs."""
    with open(Path(directory) / PLAN_FILE) as fh:
        return tuple([Op(o["kind"], o["label"], tuple(o["args"]), o["expect_rc"], o["meta"])
                      for o in ops] for ops in json.load(fh))


if __name__ == "__main__":
    # python3 inputs.py WORKLOAD SEED DIRECTORY PROFILE -- run in its own
    # process so that the benchmark, whose children inherit its peak RSS in
    # their rusage, never holds the inputs in memory.
    workload, seed, directory, profile = sys.argv[1:]
    plan = setup(workload, int(seed), directory, profile)
    (Path(directory) / PLAN_FILE).write_text(json.dumps([[vars(op) for op in ops] for ops in plan]))
