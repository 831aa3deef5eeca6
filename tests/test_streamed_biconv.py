"""CLI ``biconv``'s fall back to loading both inputs whole when G's tail read
does not find the row its pass ended on.  The one-pass harness of every grid
command, ``test_streamed_calls.py``, runs biconv's other cases, with the grid
under test as its F and as its G."""

from bifreemax import save_bi_json
from bifreemax.cli import main
from helpers import F_FOR_DOCUMENTS, G_TEXT, argv, outcome
from observe import Reads


def test_a_tail_that_is_not_the_last_row_falls_back(monkeypatch, tmp_path, capsys):
    """A tail row that differs from the row the pass ends on drops the
    streamed output and loads F and G whole, with their outcome."""
    f, g, halved = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "halved"
    ref, out = tmp_path / "ref.json", tmp_path / "out.json"
    save_bi_json(F_FOR_DOCUMENTS, f)
    g.write_text(G_TEXT + "}\n")
    halved.write_text(G_TEXT.replace("[0.5, 1.0]]", "[0.25, 0.5]]") + "}\n")
    want = outcome("biconv-G", [f, g], None, ref, out)
    ref.unlink()
    before = sorted(tmp_path.iterdir())
    # G changed before its tail read
    reads = Reads(monkeypatch, tail=lambda path: halved if str(path) == str(g) else path)
    code = main(argv("biconv-G", [f, g], None, out))
    assert code == 0
    assert (code, *capsys.readouterr(), out.read_bytes()) == want
    assert reads.whole_loads() == [str(f), str(g)]
    out.unlink()
    assert sorted(tmp_path.iterdir()) == before
