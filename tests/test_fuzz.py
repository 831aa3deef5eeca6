"""Seeded malformed input: byte mutations of saved files through every
subcommand that reads a file exit 0, 1 or 2 with no traceback, an error is one
stderr line, and every command that reads a grid gives the outcome of loading
its inputs whole."""

import numpy as np
import pytest

from bifreemax import BivariateCDF, UnivariateCDF, save_bi_json, save_uni_json
from bifreemax.cli import main
from helpers import COMMANDS, argv, inputs, outcome

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


def run(capsys, args, out):
    """main(args) as a fresh process would end: its exit code, stdout, stderr and
    the bytes it left at out, with the traceback of any exception that escapes."""
    out.unlink(missing_ok=True)
    try:
        code = main(args)
    except BaseException as exc:   # a traceback: argparse's SystemExit too
        pytest.fail(f"{args}: {type(exc).__name__}: {exc}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("kind", ["bi", "uni"])
def test_mutated_files(saved, tmp_path, capsys, kind):
    bi, uni = saved / "bi.json", str(saved / "uni.json")
    bad, out, ref = tmp_path / f"bad-{kind}.json", tmp_path / "out", tmp_path / "ref"
    # validate --kind bi is a row of COMMANDS
    other_calls = [["uniconv", str(bad), uni, "--out", str(out)],
                   *([["validate", str(bad), "--kind", "uni"]] if kind == "uni" else [])]
    calls = 0
    for text in mutations((saved / f"{kind}.json").read_bytes(), 82 + (kind == "uni"), MUTATIONS):
        bad.write_bytes(text)
        results = [(args, run(capsys, args, out)) for args in other_calls]
        # every command that reads a grid, against loading its inputs whole
        for command, n in COMMANDS:
            paths = inputs(command, bad, bi)
            want = outcome(command, paths, n, ref, out)
            ref.unlink(missing_ok=True)
            args = argv(command, paths, n, out)
            results.append((args, run(capsys, args, out)))
            assert results[-1][1] == want, (args, text)
        for args, (code, stdout, stderr, _) in results:
            assert code in (0, 1, 2), args
            assert "Traceback" not in stdout + stderr
            # validate and root report a failed check on stdout, with no stderr
            domain = code == 1 and args[0] in ("validate", "root") and stdout
            if code and not domain:
                assert stderr.count("\n") == 1 and stderr.endswith("\n"), (args, stderr)
        calls += len(results)
    assert calls == (len(COMMANDS) + len(other_calls)) * MUTATIONS
