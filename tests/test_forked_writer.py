"""The forked row writer of bivariate grid files (cdf._write_bi_json).

From FORK_CELLS cells on, a single-threaded process that may run on two
CPUs forks one worker that writes the output's rows, and formats a block
itself while the worker lags.  The bytes, exit codes and cleanup are those of
the serial writer.  Each case runs in a fresh process with
OPENBLAS_NUM_THREADS=1, as a CLI call does, since a process with a second
thread never forks; there it counts forks with os.register_at_fork, and the
blocks the process formatted itself, and checks after every call that no
child is left to reap.
"""

import json
import os

import numpy as np
import pytest

from bifreemax import BivariateCDF, nfold, save_bi_json
from bifreemax.cdf import FORK_CELLS, row_blocks
from helpers import fresh_python, random_breaks, sparse_bivariate_cdf

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) >= 2),
    reason="the writer forks only where the process may run on two CPUs")

# 519 x 512 cells: above FORK_CELLS, and 519 rows are 16 blocks of 32 and one of 7
NX, NY = 519, 512

PRELUDE = """
import contextlib, io, json, os, time
import bifreemax.cli as cli   # sets OPENBLAS_NUM_THREADS before numpy loads
from bifreemax import cdf

forks, formatted, child_hook = [], [], [None]
os.register_at_fork(before=lambda: forks.append(1))
os.register_at_fork(after_in_child=lambda: child_hook[0] and child_hook[0]())
parent, rows_json = os.getpid(), cdf._rows_json

def counting(block, start):   # blocks formatted in this process, not in its worker
    if os.getpid() == parent:
        formatted.append(start)
    return rows_json(block, start)

cdf._rows_json = counting

def outcome(call, one_cpu=False, hook=None):
    '''call(), pinned to one CPU or not, with hook run in each forked child:
    its result, stdout, stderr, forks and blocks formatted here.'''
    cpus = os.sched_getaffinity(0)
    forks.clear()
    formatted.clear()
    child_hook[0] = hook
    out, err = io.StringIO(), io.StringIO()
    try:
        if one_cpu:
            os.sched_setaffinity(0, {min(cpus)})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = call()
    finally:
        os.sched_setaffinity(0, cpus)
        child_hook[0] = None
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("a child process is left")
    return {"result": result, "out": out.getvalue(), "err": err.getvalue(),
            "forks": len(forks), "formatted": len(formatted)}

def cli_outcome(argv, **kwargs):
    return outcome(lambda: cli.main(argv), **kwargs)
"""


def run(code):
    """The JSON that code, after PRELUDE, prints in a fresh process."""
    return json.loads(fresh_python(PRELUDE + code, OPENBLAS_NUM_THREADS="1"))


def expected_text(table):
    """json.dumps of special_table's file, as the serial writer gives it."""
    return json.dumps({"x_breaks": np.arange(table.shape[0] * 1.0).tolist(),
                       "y_breaks": np.arange(table.shape[1] * 1.0).tolist(),
                       "cdf": table.tolist()}) + "\n"


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def special_table(nx, ny):
    """An nx x ny table with each value the writer treats apart: rows that lead
    with runs of +0.0 of many lengths, all-zero rows, -0.0 (not a run), the
    smallest subnormal and the largest double below 1.  Most rows have a
    long run, so that formatting them costs little."""
    rng = np.random.default_rng(9)
    table = rng.random((nx, ny))
    for i in range(nx):
        table[i, :(7 * i) % (ny + 1) if i % 8 == 0 else ny - i % 32] = 0.0
    table[1] = 0.0
    table[2, 0] = table[3, 5] = -0.0
    table[4, 3] = table[nx - 1, 0] = 5e-324
    table[5] = 1 - 2 ** -53
    return table


def write_samples(path, n, rng):
    """n samples at distinct coordinates: their ECDF has n x n cells."""
    path.write_text("".join(f"{x!r}\t{y!r}\n" for x, y in rng.normal(size=(n, 2)).tolist()))


def power_law(rng, nx, ny):
    """A law whose 2-fold power is 2-divisible: every marginal stays above 1/2."""
    masses = rng.uniform(0.05, 1.0, (nx, ny))
    masses *= 0.4 / masses.sum()
    masses[0, 0] += 0.6
    cdf = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    cdf /= cdf[-1, -1]
    cdf[-1, -1] = 1.0
    return BivariateCDF(random_breaks(rng, nx), random_breaks(rng, ny), cdf)


def late_violation(F, first):
    """F with the mass of its rows from first on moved along an anti-diagonal.

    Each column keeps its mass, so F's rows before first and its marginal in
    y are unchanged, and so are the rows of its 2nd-root candidate before
    first - 1.  The candidate of a 2-fold power is then clean up to there and
    not 2-increasing after."""
    cells = np.diff(np.diff(np.pad(F.cdf, ((1, 0), (1, 0))), axis=0), axis=1)
    columns = cells[first:].sum(axis=0)
    cells[first:] = 0.0
    nx, ny = cells.shape
    cells[first + (ny - 1 - np.arange(ny)) * (nx - first) // ny, np.arange(ny)] = columns
    cdf = np.minimum(np.cumsum(np.cumsum(cells, axis=0), axis=1), 1.0)
    cdf[-1, -1] = 1.0
    return BivariateCDF(F.x_breaks, F.y_breaks, cdf)


def test_the_last_block_of_a_call_is_short():
    blocks = list(row_blocks(NX, NY))
    assert NX * NY >= FORK_CELLS and blocks[-1].stop - blocks[-1].start < blocks[0].stop


#: Each command's arguments but --out; the names are those of the outputs.
CALLS = {"biconv": ["biconv", "F.json", "G.json"], "nfold": ["nfold", "P.json", "2"],
         "root": ["root", "P.json", "2"], "ecdf": ["ecdf", "S.tsv"],
         "root-fails-late": ["root", "V.json", "2"]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every case of this file, in one fresh process: its outcomes by name, and
    the directory of its outputs, each named after its case.

    Each command runs forked and on one CPU ("<name>@1cpu"); biconv once
    more with a worker killed at its start ("failed", over an old file), and
    forked and on one CPU under a file size limit that its output passes
    ("efbig", "efbig@1cpu").  save_bi_json writes special tables: at
    FORK_CELLS cells forked; forked while the worker sleeps at its start, so
    that the parent formats some blocks; with a second thread; on one CPU;
    where the pipe may not grow to 1 MiB; where /proc/self/task cannot be
    listed; and below FORK_CELLS cells.
    """
    d = tmp_path_factory.mktemp("forked")
    rng = np.random.default_rng(31)
    # offset grids: biconv's merged output is 519 x 512, with leading zero runs
    save_bi_json(sparse_bivariate_cdf(rng, 260, NY // 2, 0.9), d / "F.json")
    save_bi_json(sparse_bivariate_cdf(rng, NX - 260, NY // 2, 0.9, offset=0.05), d / "G.json")
    power = nfold(power_law(rng, NX, NY), 2)
    save_bi_json(power, d / "P.json")
    save_bi_json(late_violation(power, 200), d / "V.json")
    write_samples(d / "S.tsv", 520, rng)
    np.save(d / "at.npy", special_table(512, 512))
    np.save(d / "below.npy", special_table(511, 513))
    out = d / "out"
    out.mkdir()
    (out / "failed.json").write_bytes(b"old bytes\n")
    calls = {name: [str(d / a) if "." in a else a for a in argv] for name, argv in CALLS.items()}
    done = run(f"""
import fcntl, resource, signal, threading
import numpy as np
from bifreemax import BivariateCDF, save_bi_json

def out(name):
    return {str(out)!r} + f"/{{name}}.json"

done = {{}}
for name, argv in {calls!r}.items():
    done[name] = cli_outcome(argv + ["--out", out(name)])
    done[name + "@1cpu"] = cli_outcome(argv + ["--out", out(name + "@1cpu")], one_cpu=True)
done["failed"] = cli_outcome({calls["biconv"]!r} + ["--out", out("failed")],
                             hook=lambda: os.kill(os.getpid(), signal.SIGKILL))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)   # a write past the limit fails with EFBIG
limit = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (2 ** 20, limit[1]))
for name, one_cpu in (("efbig", False), ("efbig@1cpu", True)):
    done[name] = cli_outcome({calls["biconv"]!r} + ["--out", out(name)], one_cpu=one_cpu)
resource.setrlimit(resource.RLIMIT_FSIZE, limit)

def save(table, name):
    t = np.load({str(d)!r} + f"/{{table}}.npy")
    F = BivariateCDF(np.arange(t.shape[0] * 1.0), np.arange(t.shape[1] * 1.0), t)
    return lambda: save_bi_json(F, out(name))

stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
done["thread"] = outcome(save("at", "thread"))
stop.set()
thread.join()
done["forked"] = outcome(save("at", "forked"))
done["parent-formats-some"] = outcome(save("at", "parent-formats-some"),
                                      hook=lambda: time.sleep(0.2))
done["below"] = outcome(save("below", "below"))
fcntl_call = fcntl.fcntl

def refusing(fd, cmd, arg=0):   # as the kernel does past pipe-user-pages-soft
    if cmd == fcntl.F_SETPIPE_SZ:
        raise PermissionError(1, "Operation not permitted")
    return fcntl_call(fd, cmd, arg)

fcntl.fcntl = refusing
done["small-pipe"] = outcome(save("at", "small-pipe"))
fcntl.fcntl = fcntl_call
done["one-cpu"] = outcome(save("at", "one-cpu"), one_cpu=True)
listdir = os.listdir

def no_procfs(path="."):   # as where /proc is not mounted
    if path == "/proc/self/task":
        raise FileNotFoundError(2, "No such file or directory", path)
    return listdir(path)

os.listdir = no_procfs
done["no-procfs"] = outcome(save("at", "no-procfs"))
os.listdir = listdir
print(json.dumps(done))
""")
    return done, out


@pytest.mark.parametrize("name", ["biconv", "nfold", "root", "ecdf"])
def test_a_forked_call_writes_the_bytes_of_a_call_on_one_cpu(runs, name):
    done, out = runs
    forked, one_cpu = done[name], done[name + "@1cpu"]
    assert [(o["result"], o["forks"], o["err"]) for o in (forked, one_cpu)] == [
        (0, 1, ""), (0, 0, "")]
    assert forked["out"].replace(f"{name}.json", f"{name}@1cpu.json") == one_cpu["out"]
    text = (out / f"{name}.json").read_bytes()
    assert text == (out / f"{name}@1cpu.json").read_bytes()
    if name == "biconv":   # the other outputs are dense: json.dumps costs more there
        assert text.decode() == json.dumps(json.loads(text)) + "\n"
    assert leftovers(out) == []


def test_a_root_that_fails_after_the_fork_reports_as_on_one_cpu(runs):
    """The candidate's first block is clean, so the worker starts; a later
    block has a violation, so the call stops its output, kills the worker and
    writes the report."""
    done, out = runs
    forked, one_cpu = done["root-fails-late"], done["root-fails-late@1cpu"]
    assert [(o["result"], o["forks"], o["err"]) for o in (forked, one_cpu)] == [
        (1, 1, ""), (1, 0, "")]
    assert forked["out"].replace("late.json", "late@1cpu.json") == one_cpu["out"]
    assert "rectangle inequality violation" in forked["out"]
    report = (out / "root-fails-late.json").read_bytes()
    assert report == (out / "root-fails-late@1cpu.json").read_bytes()
    assert leftovers(out) == []


def test_a_worker_that_is_killed_leaves_out_as_it_was(runs):
    done, out = runs
    assert (done["failed"]["result"], done["failed"]["forks"], done["failed"]["out"]) == (2, 1, "")
    assert done["failed"]["err"] == (
        f"error: [Errno 5] its row writer exited with status -9: {str(out / 'failed.json')!r}\n")
    assert (out / "failed.json").read_bytes() == b"old bytes\n"
    assert leftovers(out) == []


def test_a_write_error_in_the_worker_reports_as_on_one_cpu(runs):
    """Past the file size limit, the worker's write fails with EFBIG, which
    the call reports as the serial writer does, and --out is not made."""
    done, out = runs
    forked, one_cpu = done["efbig"], done["efbig@1cpu"]
    assert [(o["result"], o["forks"], o["out"]) for o in (forked, one_cpu)] == [
        (2, 1, ""), (2, 0, "")]
    assert forked["err"] == one_cpu["err"] == "error: [Errno 27] File too large\n"
    assert not (out / "efbig.json").exists() and not (out / "efbig@1cpu.json").exists()
    assert leftovers(out) == []


def test_either_formatter_writes_the_bytes_of_json_dumps(runs):
    """The first block after the fork goes raw to the worker, whose pipe is
    empty; while the worker sleeps, the parent formats later blocks itself."""
    done, out = runs
    assert done["forked"]["forks"] == done["parent-formats-some"]["forks"] == 1
    assert 0 < done["parent-formats-some"]["formatted"] < len(list(row_blocks(512, 512)))
    expected = expected_text(special_table(512, 512))
    for name in ("forked", "parent-formats-some"):
        assert (out / f"{name}.json").read_text() == expected, name


def test_each_gate_keeps_the_bytes(runs):
    """A grid of FORK_CELLS cells forks; one cell fewer, a second thread, a
    one-CPU affinity or a pipe the kernel will not enlarge does not; and each
    writes the bytes of json.dumps."""
    done, out = runs
    gates = ("below", "thread", "one-cpu", "small-pipe")
    assert {name: done[name]["forks"] for name in gates} == dict.fromkeys(gates, 0)
    assert (out / "below.json").read_text() == expected_text(special_table(511, 513))
    at = (out / "forked.json").read_bytes()
    for name in ("thread", "one-cpu", "small-pipe"):
        assert (out / f"{name}.json").read_bytes() == at, name


def test_a_process_whose_threads_cannot_be_counted_does_not_fork(runs):
    """Without /proc/self/task the writer cannot see native threads, so it
    writes alone, the bytes of json.dumps."""
    done, out = runs
    assert done["no-procfs"]["forks"] == 0
    assert (out / "no-procfs.json").read_text() == expected_text(special_table(512, 512))
