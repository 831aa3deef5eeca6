"""Seeded malformed input: byte mutations of saved files through every
subcommand that reads a file exit 0, 1 or 2 with no traceback, and an error
is one stderr line."""

import functools

import numpy as np
import pytest

from bifreemax import BivariateCDF, UnivariateCDF, save_bi_json, save_uni_json
from bifreemax import cli as cli_module
from bifreemax.cli import main
from test_streamed_biconv import library_outcome

#: Bytes an insertion or a replacement puts in: JSON's syntax, digits, and
#: what JSON does not allow.
ALPHABET = b'[]{},:."-+eE0123456789 \ntfnNI\\\x00\xff'
MUTATIONS = 150   # of each of the two files


def mutations(data: bytes, seed: int, count: int):
    """count seeded deletions, insertions and replacements of one byte of data."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(len(data)))
        new = bytes([ALPHABET[rng.integers(len(ALPHABET))]])
        yield [data[:k] + data[k + 1:],
               data[:k] + new + data[k:],
               data[:k] + new + data[k + 1:]][rng.integers(3)]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(81)
    masses = rng.uniform(0.05, 1.0, (6, 5))
    cdf = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    save_bi_json(BivariateCDF(np.cumsum(rng.uniform(0.1, 1, 6)),
                              np.cumsum(rng.uniform(0.1, 1, 5)), cdf / cdf[-1, -1]), d / "bi.json")
    save_uni_json(UnivariateCDF([0.0, 0.5, 2.0], [0.25, 0.5, 1.0]), d / "uni.json")
    return d


def run(capsys, argv):
    """main(argv) as a fresh process would end: its exit code, stdout and stderr,
    with the traceback of any exception that escapes."""
    try:
        code = main(argv)
    except BaseException as exc:   # a traceback: argparse's SystemExit too
        pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("kind", ["bi", "uni"])
def test_mutated_files(saved, tmp_path, monkeypatch, capsys, kind):
    # one parser for every call: building it is most of a small call's time
    monkeypatch.setattr(cli_module, "build_parser", functools.cache(cli_module.build_parser))
    bi, uni = str(saved / "bi.json"), str(saved / "uni.json")
    bad, out = tmp_path / f"bad-{kind}.json", tmp_path / "out"
    calls = 0
    for text in mutations((saved / f"{kind}.json").read_bytes(), 82 + (kind == "uni"), MUTATIONS):
        bad.write_bytes(text)
        m = str(bad)
        for argv in (["validate", m, "--kind", kind],
                     ["uniconv", m, uni, "--out", str(out)],
                     ["biconv", m, bi, "--out", str(out)],
                     ["nfold", m, "2", "--out", str(out)],
                     ["root", m, "2", "--out", str(out)],
                     ["stability", m, "2", "1", "0", "1", "0"],
                     ["plotdata", m, "--out", str(out)]):
            code, stdout, stderr = run(capsys, argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in stdout + stderr
            # validate and root report a failed check on stdout, with no stderr
            domain = code == 1 and argv[0] in ("validate", "root") and stdout
            if code and not domain:
                assert stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, stderr)
            calls += 1
        # as G, the bytes of the library calls, or their error
        out.unlink(missing_ok=True)
        want = library_outcome(bi, bad, tmp_path / "ref", out)
        (tmp_path / "ref").unlink(missing_ok=True)
        code, stdout, stderr = run(capsys, ["biconv", bi, m, "--out", str(out)])
        assert (code, stdout, stderr, out.read_bytes() if out.exists() else None) == want
    assert calls == 7 * MUTATIONS
