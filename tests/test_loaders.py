"""File loaders: the streaming JSON loader against json.load, and malformed input."""

import io
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from bifreemax import BivariateCDF, CDFFormatError, load_bi_json, save_bi_json
from bifreemax import cdf as cdf_module
from bifreemax.cli import main
from helpers import load_bi_json_reference, random_bivariate_cdf, through_a_pipe

GRID = {"x_breaks": [-1.5, 0.0, 2.0], "y_breaks": [0.25, 1.0],
        "cdf": [[0.0, 0.1], [0.2, 0.5], [0.3, 1.0]]}
EXTREMES = {"x_breaks": [-0.0, 5e-324, 1e-7], "y_breaks": [1e-7, 1 - 2 ** -53],
            "cdf": [[-0.0, 5e-324], [1e-7, 1 - 2 ** -53], [0.5, 1.0]]}
SPLICED = '{"x_breaks": [0, 1], "y_breaks": [0, 1], "cdf": '


def _dumps(obj, **kw):
    return json.dumps(obj, **kw) + "\n"


def _documents():
    docs = {}
    for order in itertools.permutations(GRID):
        docs["order-" + "-".join(order)] = _dumps({k: GRID[k] for k in order})
    docs["indent-2"] = _dumps(GRID, indent=2)
    docs["compact"] = json.dumps(GRID, separators=(",", ":"))
    docs["crlf-tabs"] = _dumps(GRID, indent="\t").replace("\n", "\r\n")
    docs["extra-keys"] = _dumps({"meta": {"note": "}],:", "n": [1, None, True]},
                                 **GRID, "zz": "x"})
    # 2-, 3- and 4-byte UTF-8 characters, which reads of 1, 2 and 7 bytes split
    docs["utf-8"] = _dumps({"é€𝔽": ["é€𝔽", 1], **GRID, "𝔽€é": "é€𝔽"}, ensure_ascii=False)
    # a number at the top of a value can be cut anywhere by the buffer: 1.|5, 1e|-7
    docs["scalar-values"] = _dumps({"a": 12.5e-1, "b": -1.5e+10, "c": 1234, "d": True,
                                    **GRID, "e": None, "f": -0.0, "g": 1e-7})
    docs["duplicate-cdf"] = _dumps(GRID)[:-2] + ', "cdf": [[1, 1], [1, 1], [1, 1.0]]}'
    docs["duplicate-cdf-bad-first"] = '{"cdf": [[1], [2, 3]], ' + _dumps(GRID)[1:]
    docs["escaped-key"] = _dumps(GRID).replace('"cdf"', '"\\u0063df"')
    docs["integers-and-bools"] = SPLICED + "[[0, false], [1, true]]}"
    docs["1x1"] = _dumps({"x_breaks": [3.0], "y_breaks": [4.0], "cdf": [[1.0]]})
    docs["extremes"] = _dumps(EXTREMES)
    docs["long-decimals"] = SPLICED + "[[0.1000000000000000055511151231257827, 1e-7], [12.5e-1, 1E0]]}"
    for literal in ("NaN", "Infinity", "-Infinity"):
        docs["cdf-" + literal] = SPLICED + f"[[0, {literal}], [1, 1]]}}"
        docs["breaks-" + literal] = _dumps(GRID).replace("2.0]", literal + "]")
    docs["ragged"] = SPLICED + "[[0, 1], [1]]}"
    docs["scalar-row"] = SPLICED + "[[0, 1], 1]}"
    docs["null-in-row"] = SPLICED + "[[0, null], [1, 1]]}"
    docs["string-in-row"] = SPLICED + '[[0, "1"], [1, 1]]}'
    docs["3-d"] = SPLICED + "[[[0], [1]], [[1], [1]]]}"
    docs["empty-cdf"] = SPLICED + "[]}"
    docs["empty-rows"] = SPLICED + "[[], []]}"
    docs["cdf-not-array"] = SPLICED + "1}"
    docs["missing-key"] = _dumps({"x_breaks": [0], "cdf": [[1]]})
    docs["empty-object"] = "{}"
    docs["trailing-comma"] = SPLICED + "[[0, 1], [1, 1],]}"
    docs["key-not-string"] = '{1: 2}'
    for name, top in {"list": "[1, 2]", "string": '"x"', "number": "3", "null": "null",
                      "empty": "", "blank": " \n"}.items():
        docs["top-" + name] = top
    docs["trailing-data"] = _dumps(GRID) + "x"
    docs["trailing-object"] = _dumps(GRID) + "{}"
    docs["trailing-bracket"] = _dumps(GRID).strip() + "]"
    docs["bad-number"] = SPLICED + "[[0, 1.], [1, 1]]}"
    docs["bad-exponent"] = SPLICED + "[[0, 1e], [1, 1]]}"
    docs["number-then-letter"] = SPLICED + "[[0, 1x], [1, 1]]}"
    return docs


DOCUMENTS = _documents()
CHUNKS = [1, 2, 7, 64, cdf_module.JSON_CHUNK_CHARS]


def _outcome(loader, path):
    """The bytes a loader gives, or "exit 2" for an error the CLI maps to exit 2."""
    try:
        F = loader(path)
    except (CDFFormatError, json.JSONDecodeError):
        return "exit 2"
    return (F.x_breaks.tobytes(), F.y_breaks.tobytes(), F.cdf.shape, F.cdf.tobytes())


@pytest.fixture(params=CHUNKS, ids=lambda k: f"chunk{k}")
def chunk(request, monkeypatch):
    monkeypatch.setattr(cdf_module, "JSON_CHUNK_CHARS", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_matches_json_load(name, chunk, tmp_path):
    path = tmp_path / "F.json"
    path.write_text(DOCUMENTS[name])
    assert _outcome(load_bi_json, path) == _outcome(load_bi_json_reference, path)


def test_documents_cover_both_outcomes(tmp_path):
    outcomes = []
    for text in DOCUMENTS.values():
        path = tmp_path / "F.json"
        path.write_text(text)
        outcomes.append(_outcome(load_bi_json_reference, path) == "exit 2")
    assert 10 < sum(outcomes) < len(outcomes) - 10


def test_file_cut_at_every_offset(chunk, tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "F.json"
    save_bi_json(BivariateCDF([-1.5, 0.0, 2.0], [0.25, 1e-7 + 1],
                              rng.uniform(0, 1, (3, 2)).round(3) * [1, 1e-7]), path)
    text = path.read_text()
    cut = tmp_path / "cut.json"
    loaded = 0
    for end in range(len(text) + 1):
        cut.write_text(text[:end])
        outcome = _outcome(load_bi_json, cut)
        assert outcome == _outcome(load_bi_json_reference, cut), text[:end]
        loaded += outcome != "exit 2"
    assert loaded == 2  # the whole text, with and without its final newline


def test_saved_files_load_bit_for_bit(chunk, tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "F.json"
    F = BivariateCDF(np.cumsum(rng.uniform(0.1, 1, 9)), np.cumsum(rng.uniform(0.1, 1, 5)),
                     rng.uniform(0, 1, (9, 5)) ** 3)
    save_bi_json(F, path)
    assert _outcome(load_bi_json, path) == _outcome(lambda p: F, path)


def test_load_peaks_near_the_array(tmp_path):
    n = 512
    rng = np.random.default_rng(3)
    path = tmp_path / "F.json"
    save_bi_json(BivariateCDF(np.arange(n), np.arange(n), rng.uniform(0, 1, (n, n))), path)
    tracemalloc.start()
    try:
        F = load_bi_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * F.cdf.nbytes + 4 * 2 ** 20


def test_load_peaks_at_the_array_plus_the_buffer(tmp_path):
    """With the breaks first, as save_bi_json writes them, the rows are held once."""
    n = 512
    rng = np.random.default_rng(3)
    path = tmp_path / "F.json"
    save_bi_json(BivariateCDF(np.arange(n), np.arange(n), rng.uniform(0, 1, (n, n))), path)
    F, peak = _load_peak(path)
    assert peak <= F.cdf.nbytes + 2 ** 20


# Key orders and documents that fill the preallocated array, leave it, or must not make it.
ORDER_DOCUMENTS = {
    "cdf-first": '{"cdf": [[0, 0.5], [0.5, 1]], "x_breaks": [0, 1], "y_breaks": [0, 1]}',
    "cdf-between": '{"x_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]], "y_breaks": [0, 1]}',
    "x-repeated-shorter": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], '
                          '"cdf": [[0, 0.5], [0.5, 1]], "x_breaks": [0, 1]}',
    "x-repeated-longer": SPLICED + '[[0, 0.5], [0.5, 0.5], [0.5, 1]], "x_breaks": [0, 1, 2]}',
    "fewer-rows": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]]}',
    "no-rows": SPLICED + "[]}",
    "more-rows": SPLICED + "[[0, 0.5], [0.5, 1], [0.5, 1]]}",
    "middle-row-short": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], '
                        '"cdf": [[0, 0.5], [0.5], [0.5, 1]]}',
    "middle-row-long": '{"x_breaks": [0, 1, 2], "y_breaks": [0, 1], '
                       '"cdf": [[0, 0.5], [0.5, 0.5, 0.5], [0.5, 1]]}',
    "string-rows": SPLICED + '[["0", "0.5"], ["0.5", "1"]]}',
    "bool-rows": SPLICED + "[[false, false], [true, true]]}",
    "null-rows": SPLICED + "[[0, 0.5], [null, 1]]}",
    "x-string": '{"x_breaks": "01", "y_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]]}',
    "x-number": '{"x_breaks": 2, "y_breaks": [0, 1], "cdf": [[0, 0.5], [0.5, 1]]}',
}


def _exact_outcome(loader, path):
    """The bytes a loader gives, or the message of the CDFFormatError it raises."""
    try:
        F = loader(path)
    except CDFFormatError as exc:
        return str(exc)
    return _outcome(lambda p: F, path)


@pytest.mark.parametrize("name", sorted(ORDER_DOCUMENTS))
def test_key_order_and_row_fit_match_json_load(name, chunk, tmp_path):
    path = tmp_path / "F.json"
    path.write_text(ORDER_DOCUMENTS[name])
    assert _exact_outcome(load_bi_json, path) == _exact_outcome(load_bi_json_reference, path)


def test_breaks_over_the_budget_do_not_preallocate(tmp_path):
    """Breaks of more than MAX_CELLS cells with a one-row cdf load no grid-sized array."""
    n = math.isqrt(cdf_module.MAX_CELLS) + 1
    breaks = json.dumps(list(range(n)))
    path = tmp_path / "F.json"
    path.write_text(f'{{"x_breaks": {breaks}, "y_breaks": {breaks}, "cdf": [[1.0]]}}')
    want = _exact_outcome(load_bi_json_reference, path)
    with pytest.raises(CDFFormatError) as got:
        _load_peak(path)
    assert str(got.value) == want
    assert got.value.peak < 2 ** 20


def _error(path):
    try:
        load_bi_json(path)
    except CDFFormatError as exc:
        return str(exc)
    return None


def test_error_message_does_not_depend_on_the_chunk(chunk, tmp_path, monkeypatch):
    """A syntax error is raised as soon as it cannot be a token cut by the
    buffer end, with the message and offset the whole text gives."""
    path = tmp_path / "F.json"
    texts = list(DOCUMENTS.values())
    for name in ("extra-keys", "escaped-key", "extremes"):
        texts += [DOCUMENTS[name][:end] for end in range(len(DOCUMENTS[name]))]
    for text in texts:
        path.write_text(text)
        monkeypatch.setattr(cdf_module, "JSON_CHUNK_CHARS", 2 ** 16)   # the whole text
        want = _error(path)
        monkeypatch.setattr(cdf_module, "JSON_CHUNK_CHARS", chunk)
        assert _error(path) == want, text


def test_syntax_error_does_not_read_on(tmp_path, monkeypatch):
    """A bad character halfway through a file is reported before the rest is read."""
    n = 512
    rng = np.random.default_rng(4)
    path = tmp_path / "F.json"
    save_bi_json(BivariateCDF(np.arange(n), np.arange(n), rng.uniform(0, 1, (n, n))), path)
    _, valid_peak = _load_peak(path)
    text = path.read_text()
    mid = text.index(", ", len(text) // 2)
    text = text[:mid] + "x" + text[mid:]
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(CDFFormatError) as got:
        _load_peak(path)
    assert str(got.value).endswith(f"{want.value.msg} at char {want.value.pos}")
    assert want.value.pos == mid
    assert got.value.peak <= valid_peak

    class Counted(io.FileIO):
        """The file as load_bi_json opens it, with its reads summed up."""
        bytes_read = 0

        def read(self, size=-1):
            data = super().read(size)
            Counted.bytes_read += len(data)
            return data

    opens = []

    def open_(file, *args, **kwargs):
        opens.append((args, kwargs))
        return Counted(file, "rb")

    monkeypatch.setattr(cdf_module, "open", open_, raising=False)
    with pytest.raises(CDFFormatError) as spied:
        load_bi_json(path)
    assert str(spied.value) == str(got.value)
    assert opens == [(("rb",), {"buffering": 0})]
    assert Counted.bytes_read <= mid + 2 * cdf_module.JSON_CHUNK_CHARS


@pytest.mark.parametrize("reader", ["load_bi_json", "cli-validate"])
def test_the_buffer_holds_a_row_and_one_chunk(tmp_path, monkeypatch, capsys, reader):
    """The reader refills only for a value that its buffer cuts, so the
    buffer never holds more than one chunk past the rest of a row, and the
    file is read once, a chunk per refill."""
    path = tmp_path / "F.json"
    save_bi_json(random_bivariate_cdf(np.random.default_rng(5), 512, 512), path)
    text = path.read_text()
    longest_row = max(map(len, re.findall(r"\[[^][]*\]", text[text.index('"cdf"'):])))
    sizes, real = [], cdf_module._JSONStream._fill

    def fill(self, size):
        real(self, size)
        sizes.append(len(self.buf))

    monkeypatch.setattr(cdf_module._JSONStream, "_fill", fill)
    if reader == "load_bi_json":
        load_bi_json(path)
    else:
        assert main(["validate", str(path), "--kind", "bi"]) == 0
        assert capsys.readouterr().out == "OK\n"
    assert max(sizes) <= cdf_module.JSON_CHUNK_CHARS + longest_row
    assert len(sizes) <= len(text) // cdf_module.JSON_CHUNK_CHARS + 2


def test_crlf_syntax_error_names_the_files_own_offset(tmp_path, capsys):
    """A syntax error in a CRLF file names the offset that json.loads of the
    file's text gives, with "\\r\\n" two characters: from the library, and
    from CLI ``validate`` on the file and on a pipe alike."""
    path, fifo = tmp_path / "F.json", tmp_path / "F.fifo"
    save_bi_json(BivariateCDF([0, 1, 2], [0, 1], [[0.25, 0.5], [0.5, 0.75], [0.75, 1.0]]),
                 path)
    text = path.read_text().replace("], [", "],\r\n[").replace("0.75, 1.0", "0.75 1.0")
    path.write_bytes(text.encode())
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(path.read_bytes().decode())
    assert text.count("\r\n", 0, want.value.pos) == 2
    with pytest.raises(CDFFormatError) as got:
        load_bi_json(path)

    def cli_message(source):
        assert main(["validate", str(source), "--kind", "bi"]) == 2
        err = capsys.readouterr().err
        return err.removeprefix("error: ").removesuffix("\n").replace(str(source), "F")

    messages = {str(got.value).replace(str(path), "F"), cli_message(path),
                through_a_pipe(fifo, path.read_bytes(), lambda: cli_message(fifo))}
    assert messages == {f"bad bivariate CDF file F: {want.value.msg} at char {want.value.pos}"}


def _load_peak(path):
    """load_bi_json(path) and its tracemalloc peak; an error carries it as .peak."""
    tracemalloc.start()
    try:
        return load_bi_json(path), tracemalloc.get_traced_memory()[1]
    except CDFFormatError as exc:
        exc.peak = tracemalloc.get_traced_memory()[1]
        raise
    finally:
        tracemalloc.stop()


class TestMalformedInputExit2:
    """Each loader's bad input exits 2 with one line naming the file."""

    def _run(self, capsys, argv, path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err
        return err

    @pytest.mark.parametrize("kind", ["bi", "uni"])
    def test_json_not_utf8(self, tmp_path, capsys, kind):
        path = tmp_path / "F.json"
        path.write_bytes(b'{"x_breaks": [0], "y\xff": []}')
        assert "not UTF-8" in self._run(capsys, ["validate", str(path), "--kind", kind], path)

    def test_biconv_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "F.json"
        path.write_bytes(b"\xff")
        self._run(capsys, ["biconv", str(path), str(path), "--out", str(tmp_path / "H.json")],
                  path)

    def test_tsv_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        path.write_bytes(b"0\t0\n\xff\t1\n")
        out = tmp_path / "e.json"
        assert "not UTF-8" in self._run(capsys, ["ecdf", str(path), "--out", str(out)], path)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bi", "uni"])
    @pytest.mark.parametrize("prefix", ["", '{"cdf": ', '{"breaks": '])
    def test_nested_too_deeply(self, tmp_path, capsys, kind, prefix):
        path = tmp_path / "F.json"
        path.write_text(prefix + "[" * 200000)
        err = self._run(capsys, ["validate", str(path), "--kind", kind], path)
        # the bivariate loader rejects a top-level array before decoding it
        assert "nested too deeply" in err or (kind, prefix) == ("bi", "")

    @pytest.mark.parametrize("kind", ["bi", "uni"])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, kind):
        big = "1" + "0" * 400
        path = tmp_path / "F.json"
        path.write_text(f'{{"x_breaks": [0], "y_breaks": [0], "cdf": [[{big}]], '
                        f'"breaks": [0], "values": [{big}]}}')
        err = self._run(capsys, ["validate", str(path), "--kind", kind], path)
        assert "too large" in err

    @pytest.mark.parametrize("kind, key", [("bi", "cdf"), ("uni", "values")])
    def test_missing_key_is_named(self, tmp_path, capsys, kind, key):
        path = tmp_path / "F.json"
        path.write_text('{"x_breaks": [0], "y_breaks": [0], "breaks": [0]}')
        err = self._run(capsys, ["validate", str(path), "--kind", kind], path)
        assert err.endswith(f": missing key '{key}'\n")
