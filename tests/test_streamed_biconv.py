"""CLI ``biconv`` reads both of its inputs, F and G, in one pass each: the
same exit code, stdout, stderr and output bytes as loading both inputs whole,
on every input, and memory of blocks, with no input held."""

import os
import tracemalloc

import numpy as np
import pytest

from bifreemax import (
    EPS_CDF,
    BivariateCDF,
    CDFError,
    CDFFormatError,
    bifree_max_convolve,
    load_bi_json,
    save_bi_json,
)
from bifreemax import cdf as cdf_module
from bifreemax import gridio
from bifreemax.cli import main
from helpers import sparse_bivariate_cdf, through_a_pipe
from observe import Reads
from test_blocking import _biconv_stdout, _stream_cases
from test_loaders import CHUNKS, DOCUMENTS, ORDER_DOCUMENTS

#: A valid F for documents used as G; its grid is not G's.
F_FOR_DOCUMENTS = BivariateCDF([-1.0, 0.5], [0.5, 2.0], [[0.1, 0.3], [0.4, 1.0]])


def library_outcome(f, g, out, shown_out, tol=EPS_CDF):
    """Exit code, stdout, stderr and output bytes of load_bi_json of both
    inputs, bifree_max_convolve and save_bi_json to out, or of their error,
    as CLI biconv reports them with ``--out shown_out``."""
    try:
        F, G = load_bi_json(f), load_bi_json(g)
        H = bifree_max_convolve(F, G, tol)
        save_bi_json(H, out)
    except (CDFFormatError, OSError) as exc:
        return 2, "", f"error: {exc}\n", None
    except (CDFError, ValueError) as exc:
        return 1, "", f"error: {exc}\n", None
    return 0, _biconv_stdout(F, G, H, shown_out, tol), "", out.read_bytes()


def cli_outcome(f, g, out, capsys):
    """The same four things for ``biconv f g --out out``."""
    code = main(["biconv", str(f), str(g), "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


@pytest.fixture
def compare(tmp_path, capsys):
    """compare(f, g, rerun=True): assert the CLI gives the library's outcome
    and leaves no temporary file, and, with rerun, that a call that writes no
    file keeps an existing --out byte for byte; return the outcome."""
    ref, out = tmp_path / "ref.json", tmp_path / "out.json"

    def run(f, g, rerun=True):
        want = library_outcome(f, g, ref, out)
        ref.unlink(missing_ok=True)
        before = sorted(tmp_path.iterdir())
        got = cli_outcome(f, g, out, capsys)
        out.unlink(missing_ok=True)
        assert got == want
        assert sorted(tmp_path.iterdir()) == before
        if rerun and want[3] is None:
            out.write_bytes(b"old bytes\n")
            before = sorted(tmp_path.iterdir())
            assert cli_outcome(f, g, out, capsys) == (*want[:3], b"old bytes\n")
            assert sorted(tmp_path.iterdir()) == before
            out.unlink()
        return got
    return run


@pytest.fixture
def reads(monkeypatch):
    """The reads of CLI biconv; reads.whole_loads() are the paths it loads whole:
    none when both inputs are streamed."""
    return Reads(monkeypatch)


@pytest.mark.parametrize("cells", [1, 7, 64, cdf_module.BLOCK_CELLS])
def test_seeded_pairs_at_every_block_size(compare, reads, monkeypatch, tmp_path, cells):
    monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    for F, G in _stream_cases():
        save_bi_json(F, f)
        save_bi_json(G, g)
        for pair in ((f, g), (g, f)):
            reads.clear()
            assert compare(*pair)[0] == 0
            assert reads.whole_loads() == []   # F and G were read in one pass


def _every_loader_document(compare, monkeypatch, tmp_path, chunk, as_f):
    """Each loader document as G, or as F, beside F_FOR_DOCUMENTS."""
    monkeypatch.setattr(gridio, "JSON_CHUNK_CHARS", chunk)
    doc, other = tmp_path / "doc.json", tmp_path / "other.json"
    save_bi_json(F_FOR_DOCUMENTS, other)
    codes = set()
    for text in [*DOCUMENTS.values(), *ORDER_DOCUMENTS.values()]:
        doc.write_text(text)
        codes.add(compare(*((doc, other) if as_f else (other, doc)),
                          rerun=chunk == CHUNKS[-1])[0])
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("chunk", CHUNKS)
def test_every_loader_document_as_g(compare, monkeypatch, tmp_path, chunk):
    _every_loader_document(compare, monkeypatch, tmp_path, chunk, as_f=False)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_every_loader_document_as_f(compare, monkeypatch, tmp_path, chunk):
    _every_loader_document(compare, monkeypatch, tmp_path, chunk, as_f=True)


G_TEXT = ('{"x_breaks": [0, 1], "y_breaks": [0, 1], '
          '"cdf": [[0.25, 0.5], [0.5, 1.0]]')


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_g_is_read_a_block_and_a_row_at_a_time(monkeypatch, tmp_path, cells):
    """A read of either input's stream spans at most one row block and the
    row before it, so the stream's window never grows, also where the
    kernel's reads of an input on the union grid cross its row blocks."""
    monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    excess = []
    real = gridio._RowStream.block

    def spy(self, rows):   # the rows a read asks for show nowhere outside the stream
        excess.append(rows.stop - rows.start - cdf_module._block_rows(self.ny))
        return real(self, rows)

    monkeypatch.setattr(gridio._RowStream, "block", spy)
    f, g, out = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "h.json"
    rng = np.random.default_rng(5)
    for nf in (3, 40):   # with 3 rows in F, a union-grid block reads several rows of G
        save_bi_json(sparse_bivariate_cdf(rng, nf, 4, 0.2), f)
        save_bi_json(sparse_bivariate_cdf(rng, 40, 4, 0.2, offset=0.05), g)
        assert main(["biconv", str(f), str(g), "--out", str(out)]) == 0
    assert max(excess) == 1


ROW_TEXT = '{"x_breaks": [0], "y_breaks": [0, 1], "cdf": [[0.5, 1.0]]'


LAYOUTS = [
    (G_TEXT + "}\n", True, None),
    (G_TEXT + ', "note": "after cdf"}', False, None),
    (G_TEXT + ', "cdf": [[0.2, 0.5], [0.5, 1.0]]}', False, None),
    (G_TEXT + ', "cdf": [[0.2], [0.5, 1.0]]}', False, None),
    (G_TEXT + "}\n{}", False, None),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 1.0], [0.5, 1.0]]") + "}", False, None),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 1.0 ]]") + " \t\r\n}\r\n", True, None),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 1e400]]") + "}", False, None),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 0.75]]") + "}", True, None),   # invalid: exit 1
    (G_TEXT.replace("[[0.25, 0.5]", "[[0.25, 0.5, 0.75]") + "}", False, None),
    (G_TEXT.replace("[[0.25, 0.5]", "[[0.25, 0.5x]") + "}", False, None),   # malformed and invalid
    # the last row is a block of its own, and in a 1 x 2 grid the only one:
    # the pass still decodes it and checks that the file ends there
    (G_TEXT + ', "note": "after cdf"}', False, 1),
    (G_TEXT + ', "cdf": [[0.2, 0.5], [0.5, 1.0]]}', False, 1),
    (G_TEXT.replace("[0.5, 1.0]]", "[0.5, 1.0], [0.5, 1.0]]") + "}", False, 1),
    (ROW_TEXT + "}\n", True, 1),
    (ROW_TEXT + ', "note": "after cdf"}', False, 1),
    (ROW_TEXT + ', "cdf": [[0.25, 1.0]]}', False, 1),
    (ROW_TEXT.replace("]]", "], [0.5, 1.0]]") + "}", False, 1),
    ('{"é€𝔽": ["é€𝔽", 1], ' + G_TEXT[1:] + "}\n", True, None),
]
LAYOUT_IDS = ["saved", "key-after-cdf", "second-cdf", "second-cdf-ragged", "trailing-object",
              "extra-row", "white-space", "overflow-in-last-row", "invalid", "long-first-row",
              "bad-number-first-row", "key-after-cdf-row-blocks", "second-cdf-row-blocks",
              "extra-row-row-blocks", "one-row-saved", "one-row-key-after-cdf",
              "one-row-second-cdf", "one-row-extra-row", "utf-8-key-first"]


@pytest.mark.parametrize("text, streamed, cells", LAYOUTS, ids=LAYOUT_IDS)
def test_layouts(compare, reads, monkeypatch, tmp_path, text, streamed, cells):
    if cells is not None:
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    save_bi_json(F_FOR_DOCUMENTS, f)
    g.write_text(text)
    compare(f, g)
    assert (reads.whole_loads() == []) == streamed


@pytest.mark.parametrize("text, streamed, cells", LAYOUTS, ids=LAYOUT_IDS)
def test_layouts_as_f(compare, reads, monkeypatch, tmp_path, text, streamed, cells):
    """The same layouts as F, beside a G on another grid."""
    if cells is not None:
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    f.write_text(text)
    save_bi_json(F_FOR_DOCUMENTS, g)
    compare(f, g)
    assert (reads.whole_loads() == []) == streamed


@pytest.mark.parametrize("chunk", [1, 8, 32])
def test_last_row_longer_than_the_buffer(compare, reads, monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(gridio, "JSON_CHUNK_CHARS", chunk)
    rng = np.random.default_rng(71)
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    save_bi_json(sparse_bivariate_cdf(rng, 5, 60, 0.3), f)
    save_bi_json(sparse_bivariate_cdf(rng, 4, 60, 0.3, offset=0.05), g)
    assert len(g.read_text().rsplit("[", 1)[1]) > 16 * chunk
    assert compare(f, g)[0] == 0
    assert reads.whole_loads() == []


def test_a_tail_that_is_not_the_last_row_falls_back(compare, monkeypatch, tmp_path):
    """A tail row that differs from the row the pass ends on drops the
    streamed output and loads G whole."""
    f, g, halved = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "halved"
    save_bi_json(F_FOR_DOCUMENTS, f)
    g.write_text(G_TEXT + "}\n")
    halved.write_text(G_TEXT.replace("[0.5, 1.0]]", "[0.25, 0.5]]") + "}\n")
    # G changed before its tail read
    reads = Reads(monkeypatch, tail=lambda path: halved if str(path) == str(g) else path)
    assert compare(f, g)[0] == 0
    assert reads.whole_loads() == [str(f), str(g)]


def test_g_from_a_pipe(compare, reads, tmp_path, capsys):
    """A pipe is not streamed: G, or F, is loaded whole with the other
    input, with the same output."""
    f, g, fifo = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "in.fifo"
    F, G = list(_stream_cases())[-1]
    save_bi_json(F, f)
    save_bi_json(G, g)
    _, want_out, _, want_bytes = compare(f, g)   # the same inputs from their files
    out = tmp_path / "out.json"
    for inputs, piped in (([f, fifo], g), ([fifo, g], f)):
        reads.clear()
        code = through_a_pipe(fifo, piped.read_bytes(), lambda: main(
            ["biconv", *map(str, inputs), "--out", str(out)]))
        assert code == 0
        assert reads.whole_loads() == list(map(str, inputs))
        assert capsys.readouterr().out == want_out
        assert out.read_bytes() == want_bytes
        out.unlink()


def test_invalid_f_with_a_malformed_g_exits_2(compare, tmp_path):
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    save_bi_json(BivariateCDF([0, 1], [0, 1], [[0.5, 0.9], [0.9, 1.0]]), f)
    for text in (G_TEXT + "}x", G_TEXT[:-3]):
        g.write_text(text)
        code, _, err, _ = compare(f, g)
        assert code == 2 and str(g) in err


def test_grid_over_the_budget_reports_an_invalid_g_first(compare, monkeypatch, tmp_path):
    """Over MAX_CELLS, an invalid G still reports first, as when it is loaded whole."""
    monkeypatch.setattr(cdf_module, "MAX_CELLS", 8)   # the union grid is 4 x 4
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    save_bi_json(F_FOR_DOCUMENTS, f)
    errors = []
    for last in ("[0.5, 1.0]]", "[0.5, 0.75]]"):
        g.write_text(G_TEXT.replace("[0.5, 1.0]]", last) + "}")
        code, _, err, _ = compare(f, g)
        assert code == 1
        errors.append(err)
    assert "budget" in errors[0] and "invalid CDF" in errors[1]


#: F_FOR_DOCUMENTS's text and G_TEXT's, and a fault of each; their union grid is 4 x 4.
F_TEXT = '{"x_breaks": [-1.0, 0.5], "y_breaks": [0.5, 2.0], "cdf": [[0.1, 0.3], [0.4, 1.0]]}'
FAULTS = {"F": {"none": F_TEXT, "malformed": F_TEXT.replace("0.3]", "0.3x]"),
                "invalid": F_TEXT.replace("0.4, 1.0", "0.4, 0.875")},
          "G": {"none": G_TEXT + "}",
                "malformed": G_TEXT.replace("0.5], [0.5", "0.5x], [0.5") + "}",
                "invalid": G_TEXT.replace("[0.5, 1.0]]", "[0.5, 0.75]]") + "}"}}


@pytest.mark.parametrize("over_budget", [False, True], ids=["within-budget", "over-budget"])
@pytest.mark.parametrize("g_fault", ["none", "malformed", "invalid"])
@pytest.mark.parametrize("f_fault", ["none", "malformed", "invalid"])
def test_report_order(compare, monkeypatch, tmp_path, f_fault, g_fault, over_budget):
    """Of a malformed F, a malformed G, an invalid F, an invalid G and a grid
    over MAX_CELLS, the first in that order reports, as when both inputs are
    loaded whole and then validated, whichever of them the passes meet first."""
    if over_budget:
        monkeypatch.setattr(cdf_module, "MAX_CELLS", 8)
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    f.write_text(FAULTS["F"][f_fault])
    g.write_text(FAULTS["G"][g_fault])
    order = [(f_fault == "malformed", 2, str(f)), (g_fault == "malformed", 2, str(g)),
             (f_fault == "invalid", 1, "F(last,last) = 0.875 "),
             (g_fault == "invalid", 1, "F(last,last) = 0.75 "), (over_budget, 1, "budget")]
    want_code, want_text = next(((c, t) for hit, c, t in order if hit), (0, ""))
    code, _, err, _ = compare(f, g)
    assert code == want_code and want_text in err


class TestOnePass:
    """Each input's file is decoded once, plus a tail read, and the call holds
    no input."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 4096)

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        rng = np.random.default_rng(53)
        F = sparse_bivariate_cdf(rng, 512, 512, 0.2)
        # breaks interleaved with F's: the union grid is 1024 x 1024
        G = BivariateCDF(F.x_breaks + 0.05, F.y_breaks + 0.05,
                         sparse_bivariate_cdf(rng, 512, 512, 0.2).cdf)
        d = tmp_path_factory.mktemp("one-pass")
        save_bi_json(F, d / "f.json")
        save_bi_json(G, d / "g.json")
        return d, F

    @staticmethod
    def assert_read_once_plus_its_tail(files, reads, name):
        d, _ = files
        path = str(d / name)
        call = ["biconv", str(d / "f.json"), str(d / "g.json"), "--out", str(d / "h.json")]
        assert main(call) == 0
        assert reads.whole_loads() == []
        # one unbuffered pass over every byte, and a tail read of one buffer
        (buffering, passed), (_, tail) = reads.of(path)
        assert buffering == 0 and passed == os.path.getsize(path)
        assert 0 < tail <= gridio.JSON_CHUNK_CHARS < os.path.getsize(path)

    def test_f_is_read_once_plus_its_tail(self, files, reads):
        self.assert_read_once_plus_its_tail(files, reads, "f.json")

    def test_g_is_read_once_plus_its_tail(self, files, reads):
        self.assert_read_once_plus_its_tail(files, reads, "g.json")

    def test_biconv_holds_no_input(self, files, capsys):
        """biconv peaks at its streams' buffers and blocks: below half of one
        input's array, as test_streamed_call_holds_no_grid asks of the
        one-input calls."""
        d, F = files
        call = ["biconv", str(d / "f.json"), str(d / "g.json"), "--out", str(d / "h.json")]
        main(call)   # the first call in a process also imports what numpy loads lazily
        tracemalloc.start()
        try:
            code = main(call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr()
        assert peak < 0.5 * F.cdf.nbytes
