"""CLI ``validate --kind bi``, ``nfold``, ``root``, ``stability`` and
``plotdata`` read their grid in one pass, and ``ecdf`` writes its table a row
block at a time: the same exit code, stdout, stderr and ``--out`` bytes as
loading the grid whole (or building the whole table), on every input."""

import builtins
import json
import os
import tracemalloc

import numpy as np
import pytest

from bifreemax import (
    EPS_CDF,
    AffineNormalization,
    BivariateCDF,
    CDFError,
    CDFFormatError,
    ecdf_from_samples,
    load_bi_json,
    max_stable_residual,
    nfold,
    nth_root,
    save_bi_json,
    validate_bi,
)
from bifreemax import cdf as cdf_module
from bifreemax import gridio
from bifreemax.cdf import require_valid_bi
from bifreemax.cli import main
from helpers import ecdf_reference, random_bivariate_cdf, through_a_pipe
from observe import Reads
from test_blocking import seeded_pairs
from test_loaders import CHUNKS, DOCUMENTS, ORDER_DOCUMENTS

BLOCK_CELLS = [1, 7, 64, cdf_module.BLOCK_CELLS]


def _validate(F, n, out, shown, tol):
    violations = validate_bi(F, tol)
    return int(bool(violations)), "".join(v + "\n" for v in violations or ["OK"])


def _nfold(F, n, out, shown, tol):
    H = nfold(F, n, tol)
    save_bi_json(H, out)
    return 0, f"wrote {shown}: {n}-fold power, total mass {float(H.cdf[-1, -1])!r}\n"


def _root(F, n, out, shown, tol):
    res = nth_root(F, n, tol)
    if res.ok:
        save_bi_json(res.candidate, out)
        return 0, f"wrote {shown}: valid {n}-th root candidate\n"
    out.write_text(json.dumps({"divisibility_failure": res.violations}, indent=2) + "\n")
    lines = "".join(f"  {v}\n" for v in res.violations)
    return 1, f"not {n}-divisible; report written to {shown}:\n" + lines


def _plotdata(F, n, out, shown, tol):
    require_valid_bi(F, tol)
    with open(out, "w") as fh:
        for x, row in zip(F.x_breaks.tolist(), F.cdf.tolist()):
            for y, v in zip(F.y_breaks.tolist(), row):
                fh.write(f"{x!r}\t{y!r}\t{v!r}\n")
    return 0, f"wrote {shown}: {F.cdf.size} rows\n"


#: The normalization (a, b, c, d) of the stability calls that every command makes.
NORM = (1.5, 0.25, 0.75, -0.5)


def _stability(F, n, out, shown, tol):
    return 0, f"{max_stable_residual(F, n, AffineNormalization(*NORM), tol):.10g}\n"


#: The whole-array form of each streamed command: load_bi_json, then the
#: library call, writing to out and giving (exit code, stdout).
WHOLE = {"validate": _validate, "nfold": _nfold, "root": _root, "plotdata": _plotdata,
         "stability": _stability}


def argv(command, path, n, out):
    if command == "validate":
        return ["validate", str(path), "--kind", "bi"]
    if command == "plotdata":
        return ["plotdata", str(path), "--out", str(out)]
    if command == "stability":
        return ["stability", str(path), str(n), *map(repr, NORM)]
    return [command, str(path), str(n), "--out", str(out)]


def whole_outcome(command, path, n, out, shown, tol=EPS_CDF):
    """Exit code, stdout, stderr and output bytes of the whole-array path,
    or of its error, as the CLI reports them with ``--out shown``."""
    try:
        code, stdout = WHOLE[command](load_bi_json(path), n, out, shown, tol)
    except (CDFFormatError, OSError) as exc:
        return 2, "", f"error: {exc}\n", None
    except (CDFError, ValueError) as exc:
        return 1, "", f"error: {exc}\n", None
    return code, stdout, "", out.read_bytes() if out.exists() else None


@pytest.fixture
def compare(tmp_path, capsys):
    """compare(command, path, n, rerun=True): assert the CLI gives the
    whole-array outcome and leaves no temporary file, and, with rerun, that
    a call that writes no file keeps an existing --out byte for byte; return
    the outcome."""
    ref, out = tmp_path / "ref.out", tmp_path / "cli.out"

    def run(command, path, n=2, rerun=True):
        want = whole_outcome(command, path, n, ref, out)
        ref.unlink(missing_ok=True)
        before = sorted(tmp_path.iterdir())
        args = argv(command, path, n, out)
        code = main(args)
        captured = capsys.readouterr()
        got = (code, captured.out, captured.err, out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
        assert got == want
        assert sorted(tmp_path.iterdir()) == before
        if rerun and want[3] is None and "--out" in args:
            out.write_bytes(b"old bytes\n")
            before = sorted(tmp_path.iterdir())
            code = main(args)
            assert (code, *capsys.readouterr(), out.read_bytes()) == (*want[:3], b"old bytes\n")
            assert sorted(tmp_path.iterdir()) == before
            out.unlink()
        return got
    return run


@pytest.fixture
def reads(monkeypatch):
    """The CLI's reads of its files; reads.whole_loads() are the paths it loads
    whole, and a streamed grid is not one."""
    return Reads(monkeypatch)


COMMANDS = [("validate", 2), ("nfold", 1), ("nfold", 3), ("root", 2), ("plotdata", 2),
            ("stability", 1), ("stability", 3)]
COMMAND_IDS = [f"{c}-{n}" for c, n in COMMANDS]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("command, n", COMMANDS, ids=COMMAND_IDS)
def test_every_loader_document(compare, monkeypatch, tmp_path, chunk, command, n):
    monkeypatch.setattr(gridio, "JSON_CHUNK_CHARS", chunk)
    path = tmp_path / "F.json"
    codes = set()
    for text in [*DOCUMENTS.values(), *ORDER_DOCUMENTS.values()]:
        path.write_text(text)
        codes.add(compare(command, path, n, rerun=chunk == CHUNKS[-1])[0])
    assert codes == {0, 1, 2}


def _grids():
    """Valid and invalid grids; with corner mass above 1/2, squares of grids
    whose square root is valid, and grids whose square root is not."""
    rng = np.random.default_rng(61)
    yield BivariateCDF([0.5], [0.5], [[1.0]])
    yield BivariateCDF([0.0], [0.0, 1.0, 2.0], [[0.25, 0.5, 1.0]])
    yield BivariateCDF([0.0, 1.5, 2.0], [0.0], [[0.25], [0.75], [1.0]])
    for F, G in seeded_pairs(62, 4):
        yield F
        yield BivariateCDF(G.x_breaks, G.y_breaks, G.cdf * 0.9)   # total mass 0.9
        bad = F.cdf.copy()
        bad[rng.integers(F.cdf.shape[0]), rng.integers(F.cdf.shape[1])] += 0.3
        yield BivariateCDF(F.x_breaks, F.y_breaks, bad)
    for _ in range(3):
        yield nfold(random_bivariate_cdf(rng, 12, 3, corner_mass=0.6), 2)
    yield load_bi_json(os.path.join(os.path.dirname(__file__), "fixtures",
                                    "not_two_divisible_3x3.json"))


@pytest.mark.parametrize("cells", BLOCK_CELLS)
@pytest.mark.parametrize("command, n", COMMANDS, ids=COMMAND_IDS)
def test_seeded_grids_at_every_block_size(compare, reads, monkeypatch, tmp_path,
                                          cells, command, n):
    monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    path = tmp_path / "F.json"
    codes = set()
    for F in _grids():
        save_bi_json(F, path)
        codes.add(compare(command, path, n, rerun=cells == BLOCK_CELLS[-1])[0])
        assert reads.whole_loads() == []   # every grid was read in one pass
    assert codes == {0, 1}


def test_root_cases_are_all_there(tmp_path):
    """_grids has divisible and non-divisible valid grids, and invalid ones."""
    outcomes = set()
    for F in _grids():
        if validate_bi(F):
            outcomes.add("invalid")
        else:
            outcomes.add("divisible" if nth_root(F, 2).ok else "not divisible")
    assert outcomes == {"invalid", "divisible", "not divisible"}


G_TEXT = '{"x_breaks": [0, 1], "y_breaks": [0, 1], "cdf": [[0.25, 0.5], [0.5, 1.0]]'


ROW_TEXT = '{"x_breaks": [0], "y_breaks": [0, 1], "cdf": [[0.5, 1.0]]'


@pytest.mark.parametrize("text, streamed, cells", [
    (G_TEXT + "}\n", True, None),
    (G_TEXT + ', "note": "after cdf"}', False, None),
    (G_TEXT + ', "cdf": [[0.2, 0.5], [0.5, 1.0]]}', False, None),
    (G_TEXT + "}\n{}", False, None),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 1.0], [0.5, 1.0]]") + "}", False, None),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 0.75]]") + "}", True, None),   # invalid: exit 1
    (G_TEXT.replace("[[0.25, 0.5]", "[[0.25, 0.5x]") + "}", False, None),   # malformed and invalid
    # the last row is a block of its own, and on a 1 x 2 grid the only one:
    # the pass still decodes it and checks that the file ends there
    (G_TEXT + ', "note": "after cdf"}', False, 1),
    (G_TEXT + ', "cdf": [[0.2, 0.5], [0.5, 1.0]]}', False, 1),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 1.0], [0.5, 1.0]]") + "}", False, 1),
    (ROW_TEXT + "}\n", True, 1),
    (ROW_TEXT + ', "note": "after cdf"}', False, 1),
    (ROW_TEXT + ', "cdf": [[0.25, 1.0]]}', False, 1),
    (ROW_TEXT.replace("]]", "], [0.5, 1.0]]") + "}", False, 1),
    ('{"é€𝔽": ["é€𝔽", 1], ' + G_TEXT[1:] + "}\n", True, None),
], ids=["saved", "key-after-cdf", "second-cdf", "trailing-object", "extra-row", "invalid",
        "bad-number-first-row", "key-after-cdf-row-blocks", "second-cdf-row-blocks",
        "extra-row-row-blocks", "one-row-saved", "one-row-key-after-cdf", "one-row-second-cdf",
        "one-row-extra-row", "utf-8-key-first"])
@pytest.mark.parametrize("command, n", COMMANDS, ids=COMMAND_IDS)
def test_layouts(compare, reads, monkeypatch, tmp_path, text, streamed, cells, command, n):
    if cells is not None:
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    path = tmp_path / "F.json"
    path.write_text(text)
    compare(command, path, n)
    assert (reads.whole_loads() == []) == streamed


def test_a_tail_with_no_row(monkeypatch, tmp_path, capsys):
    """A tail with no "[" before its "]]}" has no last row.  After the header
    parse has met the "[" of cdf, that is a file rewritten during the read:
    the pass falls back to the whole load, which gives the loader's message."""
    path = tmp_path / "F.json"
    path.write_text("]]}\n")
    with pytest.raises(CDFFormatError, match="the file has no last row"):
        gridio._tail_row(path, 2)
    with pytest.raises(CDFFormatError) as loaded:
        load_bi_json(path)
    path.write_text(G_TEXT + "}\n")

    def rewritten(p):   # the file as the tail read finds it
        path.write_text("]]}\n")
        return p

    reads = Reads(monkeypatch, tail=rewritten)
    assert main(["validate", str(path), "--kind", "bi"]) == 2
    assert capsys.readouterr() == ("", f"error: {loaded.value}\n")
    # the pass met the "[" of cdf; its tail read found the rewritten file whole
    assert reads.of(path) == [(0, len(G_TEXT) + 2), (-1, 4), (0, 4)]
    assert reads.whole_loads() == [str(path)]


@pytest.mark.parametrize("chunk", [1, 8, 32])
@pytest.mark.parametrize("command, n", COMMANDS, ids=COMMAND_IDS)
def test_last_row_longer_than_the_buffer(compare, reads, monkeypatch, tmp_path,
                                         chunk, command, n):
    monkeypatch.setattr(gridio, "JSON_CHUNK_CHARS", chunk)
    path = tmp_path / "F.json"
    square = nfold(random_bivariate_cdf(np.random.default_rng(71), 60, 60, corner_mass=0.6), 2)
    save_bi_json(square, path)
    assert len(path.read_text().rsplit("[", 1)[1]) > 16 * chunk
    assert compare(command, path, n)[0] == 0
    assert reads.whole_loads() == []


@pytest.mark.parametrize("command, n", COMMANDS, ids=COMMAND_IDS)
def test_grid_from_a_pipe(compare, reads, tmp_path, capsys, command, n):
    """A pipe is not streamed: the grid is loaded whole, with the same outcome."""
    path, fifo = tmp_path / "F.json", tmp_path / "F.fifo"
    save_bi_json(nfold(random_bivariate_cdf(np.random.default_rng(72), 9, corner_mass=0.6), 2),
                 path)
    want = compare(command, path, n)   # the same grid from its file
    out = tmp_path / "cli.out"
    code = through_a_pipe(fifo, path.read_bytes(), lambda: main(argv(command, fifo, n, out)))
    assert reads.whole_loads() == [str(fifo)]
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want[:3]
    assert (out.read_bytes() if out.exists() else None) == want[3]


@pytest.mark.parametrize("bad_n", [0, -1, 2 ** 53 + 2, 2 ** 1024],
                         ids=["0", "-1", "2^53+2", "2^1024"])
@pytest.mark.parametrize("command", ["nfold", "root", "stability"])
def test_an_invalid_grid_reports_before_a_bad_n(compare, tmp_path, command, bad_n):
    path = tmp_path / "F.json"
    for last, message in (("[0.5, 1.0]]", "n must be"), ("[0.5, 0.75]]", "invalid CDF")):
        path.write_text(G_TEXT.replace("[0.5, 1.0]]", last) + "}")
        code, _, err, _ = compare(command, path, bad_n)
        assert code == 1 and message in err


def test_a_tail_that_is_not_the_last_row_falls_back(compare, monkeypatch, tmp_path):
    """A tail row that differs from the row the pass ends on drops the
    temporary output and loads the grid whole."""
    path, halved = tmp_path / "F.json", tmp_path / "halved"
    path.write_text(G_TEXT + "}\n")
    halved.write_text(G_TEXT.replace("[0.5, 1.0]]", "[0.25, 0.5]]") + "}\n")
    reads = Reads(monkeypatch, tail=lambda p: halved)   # the file changed before its tail read
    for command, n in COMMANDS:
        reads.clear()
        compare(command, path, n)
        assert reads.whole_loads() == [str(path)]


def _item_1_law():
    rng = np.random.default_rng(5)
    for _ in range(127):   # the law at index 126
        R = random_bivariate_cdf(rng, max_size=5, corner_mass=rng.uniform(0, 0.9))
    return R


def test_root_verdict_at_n_1024(tmp_path, capsys):
    """ROADMAP item 1's repro: at n = 1024 the root of R is not valid,
    by a rectangle mass of about -1.79e-8."""
    path, R = tmp_path / "R.json", _item_1_law()
    assert R.cdf.shape == (3, 3)
    save_bi_json(R, path)
    assert main(["root", str(path), "1024", "--out", str(tmp_path / "r.json")]) == 1
    assert "mass -1.789" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_root_verdict_at_n_2_to_the_20(tmp_path):
    """The same law is no more divisible at n = 2^20, yet its root passes
    validation there: a verdict that flips with n."""
    path = tmp_path / "R.json"
    save_bi_json(_item_1_law(), path)
    assert main(["root", str(path), str(2 ** 20), "--out", str(tmp_path / "r.json")]) == 1


class TestOneDecode:
    """Each streamed call decodes its file once, plus a read of its tail."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        rng = np.random.default_rng(73)
        path = tmp_path_factory.mktemp("one-decode") / "F.json"
        save_bi_json(nfold(random_bivariate_cdf(rng, 200, 150, corner_mass=0.6), 2), path)
        return path

    @pytest.mark.parametrize("command, n", [*COMMANDS, ("root", 3)],
                             ids=[*COMMAND_IDS, "root-report"])
    def test_read_once_plus_its_tail(self, path, reads, command, n):
        code = main(argv(command, path, n, path.with_name("out")))
        assert code == (1 if n == 3 and command == "root" else 0)
        assert reads.whole_loads() == []
        # one unbuffered pass over every byte, and a tail read of one buffer
        (buffering, passed), (_, tail) = reads.of(path)
        assert buffering == 0 and passed == os.path.getsize(path)
        assert 0 < tail <= gridio.JSON_CHUNK_CHARS < os.path.getsize(path)


def _samples():
    """Seeded samples: repeated x and y values, a single sample, one row, one column."""
    rng = np.random.default_rng(74)
    yield np.array([[0.5, -1.0]])
    yield np.array([[0.5, -1.0]] * 3)
    yield np.column_stack((np.full(9, 2.0), rng.normal(size=9)))   # one row
    yield np.column_stack((rng.normal(size=9), np.full(9, -0.0)))   # one column
    for n in (2, 17, 60, 150):
        yield rng.integers(-3, 4, (n, 2)).astype(float)
        base = rng.normal(size=(max(1, n // 4), 2))
        yield base[rng.integers(0, base.shape[0], n)]
        yield rng.normal(size=(n, 2))


@pytest.mark.parametrize("cells", BLOCK_CELLS)
def test_ecdf_equals_the_whole_table(monkeypatch, tmp_path, capsys, cells):
    monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    tsv, out, ref = tmp_path / "s.tsv", tmp_path / "F.json", tmp_path / "ref.json"
    shapes = set()
    for pts in _samples():
        R = ecdf_reference(pts)
        F = ecdf_from_samples(pts)
        assert F.x_breaks.tobytes() == R.x_breaks.tobytes()
        assert F.y_breaks.tobytes() == R.y_breaks.tobytes()
        assert F.cdf.tobytes() == R.cdf.tobytes()
        tsv.write_text("".join(f"{x!r}\t{y!r}\n" for x, y in pts.tolist()))
        assert main(["ecdf", str(tsv), "--out", str(out)]) == 0
        save_bi_json(R, ref)
        assert out.read_bytes() == ref.read_bytes()
        assert capsys.readouterr().out == (f"wrote {out}: {len(pts)} samples, "
                                           f"grid {R.x_breaks.size}x{R.y_breaks.size}\n")
        shapes.add(tuple(min(k, 2) for k in R.cdf.shape))
    assert shapes == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_ecdf_rows_read_in_any_order():
    """A block does not depend on the blocks read before it."""
    pts = np.random.default_rng(75).integers(-4, 5, (80, 2)).astype(float)
    R = ecdf_reference(pts)
    rows = cdf_module.ecdf_rows(pts)
    nx = R.cdf.shape[0]
    for lo, hi in [(nx - 1, nx), (3, 5), (0, 2), (2, nx), (0, nx), (4, 5)]:
        assert rows.block(slice(lo, hi)).tobytes() == R.cdf[lo:hi].tobytes()


def _cumulated(rng, nx, ny):
    """A valid nx x ny CDF with positive masses, on breaks 0, 1, 2, ..."""
    cdf = np.cumsum(np.cumsum(rng.uniform(0.05, 1.0, (nx, ny)), axis=0), axis=1)
    cdf /= cdf[-1, -1]
    cdf[-1, -1] = 1.0
    return BivariateCDF(np.arange(float(nx)), np.arange(float(ny)), cdf)


class TestStability:
    """``stability`` reads its grid once, holding the rows between the
    grid's own row x and the power's rows near a*x + b, and prints
    max_stable_residual of the grid loaded whole."""

    @staticmethod
    def normalizations(F, rng):
        """The identity (the evaluation grid is F's own), a < 1 and c < 1,
        shifts that put the power's grid above or below F's (the rows
        between are the whole grid), and seeded ones."""
        span = float(F.x_breaks[-1] - F.x_breaks[0]) + 1.0
        yield 1.0, 0.0, 1.0, 0.0
        yield 0.6, 0.1, 0.7, -0.1
        yield 1.0, -span, 1.0, 0.0
        yield 1.0, span, 0.5, 0.0
        for _ in range(3):
            a, c = rng.uniform(0.5, 2.0, 2)
            b, d = rng.uniform(-1.0, 1.0, 2)
            yield float(a), float(b), float(c), float(d)

    @pytest.mark.parametrize("cells", [1, 4096])
    def test_stdout_is_the_residual_of_the_whole_grid(self, reads, monkeypatch, tmp_path,
                                                     capsys, cells):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
        decoded, windows = [0], []
        real_row, real_decode = gridio._float_row, gridio._RowStream._decode

        def float_row(value):   # a row decoded twice from bytes read once shows nowhere outside
            decoded[0] += 1
            return real_row(value)

        def decode(self, rows):   # the stream's window is seen nowhere outside it
            real_decode(self, rows)
            if not any(w is self.window for w in windows):
                windows.append(self.window)

        monkeypatch.setattr(gridio, "_float_row", float_row)
        monkeypatch.setattr(gridio._RowStream, "_decode", decode)
        rng = np.random.default_rng(76)
        path = tmp_path / "F.json"
        grids = [BivariateCDF([0.5], [0.5], [[1.0]]),
                 BivariateCDF([0.0], [0.0, 1.0, 2.0], [[0.25, 0.5, 1.0]]),
                 BivariateCDF([0.0, 1.5, 2.0], [0.0], [[0.25], [0.75], [1.0]]),
                 *(random_bivariate_cdf(rng, 40, 2) for _ in range(3))]
        for F in grids:
            save_bi_json(F, path)
            for norm in self.normalizations(F, rng):
                want = max_stable_residual(load_bi_json(path), 3, AffineNormalization(*norm))
                reads.clear()
                decoded[0], windows[:] = 0, []
                assert main(["stability", str(path), "3", *map(repr, norm)]) == 0
                assert capsys.readouterr() == (f"{want:.10g}\n", "")
                assert reads.whole_loads() == []
                # every byte once, plus one read of the tail; every row decoded once,
                # plus the tail row; one window, at the widest read
                (buffering, passed), (tail_buffering, tail) = reads.of(path)
                assert (buffering, passed, tail_buffering) == (0, os.path.getsize(path), -1)
                assert tail > 0
                assert decoded[0] == F.x_breaks.size + 1
                assert len(windows) == 1

    @pytest.mark.parametrize("norm", [(1.04, -0.3), (1.46, 0.1), (2.0, 0.5)])
    def test_checks_whole_blocks(self, reads, monkeypatch, tmp_path, capsys, norm):
        """The validator rounds each read of the grid up to the end of a row
        block within its span, the widest read and the row before it, so a
        read that starts far behind its last row still checks to a block's
        end: at most two checks per row block, where a forward pass makes one."""
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 512)
        F = _cumulated(np.random.default_rng(79), 512, 32)
        path = tmp_path / "F.json"
        save_bi_json(F, path)
        want = max_stable_residual(F, 2, AffineNormalization(*norm, *norm))
        checks = []
        real = cdf_module._BiValidator._check
        monkeypatch.setattr(cdf_module._BiValidator, "_check",
                            lambda self, lo, stop: checks.append(lo) or real(self, lo, stop))
        assert main(["stability", str(path), "2", *map(repr, norm * 2)]) == 0
        assert capsys.readouterr() == (f"{want:.10g}\n", "")
        assert reads.whole_loads() == []
        assert len(checks) <= 2 * len(list(cdf_module.row_blocks(512, 32)))

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_a_malformed_grid_reports_before_a_bad_scale(self, reads, tmp_path, capsys,
                                                         scale):
        """A malformed grid reports first, then an invalid grid, then a bad
        scale, as a bad n does, and the grid is read in one pass, never
        loaded whole: the scale is checked only where the grid is read.  From
        a pipe, loaded whole, the outcome is the same, naming the pipe."""
        path, fifo, norm = tmp_path / "F.json", tmp_path / "F.fifo", (scale, 0.0, 1.0, 0.0)
        codes = []
        for text in (G_TEXT + "}", G_TEXT.replace("0.5]", "0.5x]") + "}",
                     G_TEXT.replace("[0.5, 1.0]]", "[0.5, 0.75]]") + "}"):
            path.write_text(text)
            try:
                F = load_bi_json(path)
                require_valid_bi(F)
                want = (0, f"{max_stable_residual(F, 2, AffineNormalization(*norm)):.10g}\n", "")
            except CDFFormatError as exc:
                want = (2, "", f"error: {exc}\n")
            except CDFError as exc:
                want = (1, "", f"error: {exc}\n")
            reads.clear()
            code = main(["stability", str(path), "2", *map(repr, norm)])
            assert (code, *capsys.readouterr()) == want
            assert code == 2 or reads.whole_loads() == []
            codes.append(code)
            reads.clear()
            code = through_a_pipe(fifo, path.read_bytes(),
                                  lambda: main(["stability", str(fifo), "2", *map(repr, norm)]))
            err = want[2].replace(str(path), str(fifo))
            assert (code, *capsys.readouterr()) == (*want[:2], err)
            assert reads.whole_loads() == [str(fifo)]
        assert codes == ([0, 2, 1] if scale else [1, 2, 1])

    def test_holds_no_grid(self, monkeypatch, tmp_path, capsys):
        """At the identity normalization, the rows between the two reads are
        those of one read: the call peaks at the stream's buffer and blocks."""
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 4096)
        F = _cumulated(np.random.default_rng(77), 1024, 512)
        path = tmp_path / "F.json"
        save_bi_json(F, path)
        call = ["stability", str(path), "2", "1", "0", "1", "0"]
        main(call)   # the first call in a process also imports what numpy loads lazily
        tracemalloc.start()
        try:
            code = main(call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr()
        assert peak < 0.25 * F.cdf.nbytes


def test_a_read_inside_the_window_allocates_no_copy_of_its_rows(monkeypatch, tmp_path):
    """A read that drops rows from the front of a stream's window and decodes
    rows past them leaves the kept rows where they are while the window has
    room, and moves them to its front in chunks that do not overlap when it
    has not: neither allocates anything the size of the kept rows."""
    F = _cumulated(np.random.default_rng(78), 1200, 128)
    path = tmp_path / "F.json"
    save_bi_json(F, path)
    with gridio._RowStream(str(path)) as rows:
        rows._reserve(1003)
        assert rows.block(slice(0, 1000)).tobytes() == F.cdf[:1000].tobytes()
        # inside the window, then past its end, which moves 852 rows by 150
        for read in (slice(1, 1002), slice(150, 1004)):
            tracemalloc.start()
            try:
                got = rows.block(read)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.tobytes() == F.cdf[read].tobytes()
            # decoding the new rows may refill the text buffer; no more
            assert peak < 0.5 * F.cdf[read].nbytes


def test_a_read_behind_the_window_raises(tmp_path):
    """A row stream reads its file forward: a read that starts before the rows
    it holds is a caller's error, raised as such, not a file to load whole."""
    F = _cumulated(np.random.default_rng(79), 30, 8)
    path = tmp_path / "F.json"
    save_bi_json(F, path)
    with gridio._RowStream(str(path)) as rows:
        for read in (slice(0, 5), slice(20, 25)):
            assert rows.block(read).tobytes() == F.cdf[read].tobytes()
        with pytest.raises(RuntimeError, match="a row stream is read in increasing order"):
            rows.block(slice(0, 2))


def test_plotdata_writes_once_per_grid_row(monkeypatch, tmp_path, capsys):
    """plotdata joins the lines of a grid row and writes them in one call."""
    F = _cumulated(np.random.default_rng(80), 7, 5)
    path, out = tmp_path / "F.json", tmp_path / "F.tsv"
    save_bi_json(F, path)
    writes, real_open = [], builtins.open

    def open_(file, mode="r", *args, **kwargs):   # the output file, with its writes counted
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            fh.write = lambda text, write=fh.write: writes.append(text) or write(text)
        return fh

    monkeypatch.setattr(builtins, "open", open_)
    assert main(["plotdata", str(path), "--out", str(out)]) == 0, capsys.readouterr()
    assert len(writes) == 7
    assert "".join(writes) == out.read_text()
