"""Row-blocked grid kernels: the same bytes as the whole-array formulas at
every block size, peak memory of the output plus a few blocks, and one
validation of each public input."""

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
    bifree_max_convolve,
    max_stable_residual,
    merge_grids,
    nfold,
    nth_root,
    psi_ratio,
    save_bi_json,
    validate_bi,
)
from bifreemax import biconv as biconv_module
from bifreemax import cdf as cdf_module
from bifreemax import cli as cli_module
from bifreemax.cdf import write_bi_json
from bifreemax.cli import main
from helpers import (
    convolve_reference,
    evaluate_grid_reference,
    nfold_reference,
    nth_root_reference,
    psi_reference,
    residual_reference,
    sparse_bivariate_cdf,
)


def seeded_pairs(seed, count=25):
    """Pairs of sparse CDFs on offset grids of 3 to 24 rows and columns."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield tuple(sparse_bivariate_cdf(rng, *rng.integers(3, 25, 2),
                                         rng.uniform(0.0, 0.8), rng.uniform(-2.0, 2.0))
                    for _ in range(2))


@pytest.fixture(params=["one row", "ragged"])
def blocks(request, monkeypatch):
    """``blocks(nrows, ncols)`` sets BLOCK_CELLS for a grid of that shape:
    one row per block, or k rows per block with a shorter last block."""
    def set_for(nrows, ncols):
        if request.param == "one row":
            cells = 1
        else:
            cells = ncols * next(k for k in range(2, nrows) if nrows % k)
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
    return set_for


class TestSameBytesAsWholeArray:
    def test_test_data_has_both_sentinels(self):
        psi = np.concatenate([psi_reference(X.cdf).ravel()
                              for pair in seeded_pairs(40) for X in pair])
        assert np.isinf(psi).any() and np.isnan(psi).any()

    def test_convolve(self, blocks):
        for F, G in seeded_pairs(40):
            expected = convolve_reference(F, G)
            blocks(*expected.shape)
            assert bifree_max_convolve(F, G).cdf.tobytes() == expected.tobytes()

    def test_psi_ratio(self, blocks):
        for F, _ in seeded_pairs(41):
            blocks(*F.cdf.shape)
            assert psi_ratio(F).values.tobytes() == psi_reference(F.cdf).tobytes()

    def test_nfold(self, blocks):
        for F, _ in seeded_pairs(42):
            blocks(*F.cdf.shape)
            for n in (2, 3, 10 ** 9):
                assert nfold(F, n).cdf.tobytes() == nfold_reference(F, n).tobytes()

    def test_nth_root_and_its_report(self, blocks, monkeypatch):
        for F, _ in seeded_pairs(43):
            for n in (2, 5):
                expected = nth_root_reference(F, n)
                # the report of the whole grid as one block
                monkeypatch.setattr(cdf_module, "BLOCK_CELLS", expected.size)
                report = validate_bi(BivariateCDF(F.x_breaks, F.y_breaks, expected))
                blocks(*expected.shape)
                res = nth_root(F, n)
                assert res.candidate.cdf.tobytes() == expected.tobytes()
                assert res.violations == report

    def test_max_stable_residual(self, blocks):
        rng = np.random.default_rng(44)
        for F, _ in seeded_pairs(44):
            norm = AffineNormalization(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                                       rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            n = int(rng.integers(1, 4))
            xs = np.union1d(F.x_breaks, (F.x_breaks - norm.b) / norm.a)
            ys = np.union1d(F.y_breaks, (F.y_breaks - norm.d) / norm.c)
            blocks(xs.size, ys.size)
            assert max_stable_residual(F, n, norm) == residual_reference(F, n, norm)

    def test_evaluate_grid(self):
        rng = np.random.default_rng(45)
        for F, _ in seeded_pairs(45):
            # unsorted points, some below the grid on either axis
            xs = rng.uniform(F.x_breaks[0] - 2.0, F.x_breaks[-1] + 1.0, rng.integers(1, 30))
            ys = rng.uniform(F.y_breaks[0] - 2.0, F.y_breaks[-1] + 1.0, rng.integers(1, 30))
            assert F.evaluate_grid(xs, ys).tobytes() == evaluate_grid_reference(F, xs, ys).tobytes()

    def test_validate_bi_reports(self, blocks, monkeypatch):
        rng = np.random.default_rng(46)
        for F, _ in seeded_pairs(46):
            noise = rng.normal(0.0, 0.3, F.cdf.shape) * (rng.random(F.cdf.shape) < 0.5)
            bad = BivariateCDF(F.x_breaks, F.y_breaks, F.cdf + noise)
            monkeypatch.setattr(cdf_module, "BLOCK_CELLS", bad.cdf.size)
            expected = validate_bi(bad)
            blocks(*bad.cdf.shape)
            assert validate_bi(bad) == expected

    def test_cli_biconv_output_and_stdout(self, blocks, monkeypatch, tmp_path, capsys):
        u, v = np.array([0.8, 0.9, 1.0]), np.array([0.7, 0.95, 1.0])
        product = BivariateCDF([0, 1, 2], [0, 1, 2], u[:, None] * v[None, :])
        stdouts = []
        for k, (F, G) in enumerate([(product, product), *seeded_pairs(47, 5)]):
            f, g, out = (tmp_path / f"{name}{k}.json" for name in "fgh")
            save_bi_json(F, f)
            save_bi_json(G, g)
            runs = []
            for blocked in (False, True):
                if blocked:
                    blocks(*convolve_reference(F, G).shape)
                else:
                    monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 2 ** 30)
                assert main(["biconv", str(f), str(g), "--out", str(out)]) == 0
                runs.append((out.read_bytes(), capsys.readouterr().out))
            assert runs[0] == runs[1]
            stdouts.append(runs[0][1])
        assert "psi == 1" in stdouts[0]


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Peak allocation with small blocks: the output plus a fixed number of
    blocks, whatever the grid size (the whole-array kernels allocated
    2-6 times their output)."""

    BLOCK = 4096
    BLOCKS_ALLOWED = 16

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", self.BLOCK)

    @pytest.fixture(scope="class")
    def grids(self):
        rng = np.random.default_rng(48)
        F = sparse_bivariate_cdf(rng, 256, 256, 0.2)
        # breaks interleaved with F's: the union grid is 512 x 512
        G = BivariateCDF(F.x_breaks + 0.05, F.y_breaks + 0.05,
                         sparse_bivariate_cdf(rng, 256, 256, 0.2).cdf)
        return F, G

    def assert_output_plus_blocks(self, peak, output):
        assert peak <= output.nbytes + self.BLOCKS_ALLOWED * 8 * self.BLOCK

    def test_convolve(self, grids):
        H, peak = _peak_bytes(lambda: bifree_max_convolve(*grids))
        assert H.cdf.shape == (512, 512)
        self.assert_output_plus_blocks(peak, H.cdf)

    def test_nfold(self, grids):
        H, peak = _peak_bytes(lambda: nfold(grids[0], 3))
        self.assert_output_plus_blocks(peak, H.cdf)

    def test_nth_root(self, grids):
        res, peak = _peak_bytes(lambda: nth_root(grids[0], 2))
        self.assert_output_plus_blocks(peak, res.candidate.cdf)

    def test_psi_ratio(self, grids):
        psi, peak = _peak_bytes(lambda: psi_ratio(grids[0]))
        self.assert_output_plus_blocks(peak, psi.values)

    def test_evaluate_grid(self, grids):
        F, G = grids
        xs, ys = np.union1d(F.x_breaks, G.x_breaks), np.union1d(F.y_breaks, G.y_breaks)
        vals, peak = _peak_bytes(lambda: G.evaluate_grid(xs, ys))
        self.assert_output_plus_blocks(peak, vals)

    def test_max_stable_residual_within_three_inputs(self, grids):
        F = grids[0]
        norm = AffineNormalization(1.0, 0.05, 1.0, 0.05)   # a 512 x 512 union grid
        _, peak = _peak_bytes(lambda: max_stable_residual(F, 2, norm))
        assert peak <= 3 * F.cdf.nbytes


class TestValidateOnce:
    """Each public call validates each of its inputs once; internal steps
    reuse the validated inputs."""

    @pytest.fixture
    def validated(self, monkeypatch):
        seen = []
        real = cdf_module.validate_bi

        def spy(F, eps=EPS_CDF):
            seen.append(F)
            return real(F, eps)

        for module in (cdf_module, biconv_module, cli_module):
            monkeypatch.setattr(module, "validate_bi", spy)
        return seen

    @pytest.fixture
    def pair(self):
        return next(seeded_pairs(49))

    def test_kernels(self, validated, pair):
        F, G = pair
        norm = AffineNormalization(1.5, 0.1, 0.5, -0.2)
        for call, inputs in [
            (lambda: bifree_max_convolve(F, G), [F, G]),
            (lambda: merge_grids(F, G), [F, G]),
            (lambda: nfold(F, 3), [F]),
            (lambda: psi_ratio(F), [F]),
            (lambda: max_stable_residual(F, 3, norm), [F]),
        ]:
            validated.clear()
            call()
            assert [id(X) for X in validated] == [id(X) for X in inputs]

    def test_nth_root_validates_its_input_and_its_candidate(self, validated, pair):
        res = nth_root(pair[0], 2)
        assert [id(X) for X in validated] == [id(pair[0]), id(res.candidate)]

    def test_cli(self, validated, pair, tmp_path):
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        save_bi_json(pair[0], f)
        save_bi_json(pair[1], g)
        assert main(["biconv", str(f), str(g), "--out", str(tmp_path / "h.json")]) == 0
        assert len(validated) == 2
        validated.clear()
        assert main(["stability", str(f), "3", "1.5", "0.1", "0.5", "-0.2"]) == 0
        assert len(validated) == 1


def _json_bytes(F):
    """What json.dump of F's dict plus a newline writes."""
    return (json.dumps({"x_breaks": F.x_breaks.tolist(), "y_breaks": F.y_breaks.tolist(),
                        "cdf": F.cdf.tolist()}) + "\n").encode()


def _set_blocks(blocks, monkeypatch, nrows, ncols):
    """``blocks`` for a grid of that shape; one row per block below three rows."""
    if nrows > 2:
        blocks(nrows, ncols)
    else:
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 1)


def _edge_grids():
    """Grids whose rows are all +0.0, start with a +0.0 run, with -0.0, or hold
    5e-324 and 1 - 2**-53 after a zero run; and 1x1, 1xn and nx1 grids."""
    tiny, top = 5e-324, 1.0 - 2.0 ** -53
    rows = np.array([[0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.5, 1.0],
                     [-0.0, 0.0, 0.25, 1.0],
                     [0.0, -0.0, 0.0, top],
                     [0.0, tiny, top, 1.0],
                     [0.0, 0.0, 0.0, tiny],
                     [0.1, 0.0, 0.0, 1.0]])
    breaks = np.arange(7.0)
    yield BivariateCDF(breaks, breaks[:4], rows)
    for value in (0.0, -0.0, tiny, 1.0):
        yield BivariateCDF([0.0], [0.0], [[value]])
    for k in range(len(rows)):
        yield BivariateCDF([0.0], breaks[:4], rows[k:k + 1])
        yield BivariateCDF(breaks[:4], [0.0], rows[k:k + 1].T)
    yield BivariateCDF(breaks, [0.0], rows[:, 3:])


class TestStreamedWriter:
    """The row writer: the bytes of json.dump at every blocking, with +0.0 runs
    written as text."""

    def test_edge_rows(self, blocks, monkeypatch, tmp_path):
        for k, F in enumerate(_edge_grids()):
            _set_blocks(blocks, monkeypatch, *F.cdf.shape)
            out = tmp_path / f"F{k}.json"
            save_bi_json(F, out)
            assert out.read_bytes() == _json_bytes(F), F.cdf

    def test_kernel_outputs(self, blocks, monkeypatch, tmp_path):
        out = tmp_path / "H.json"
        for F, G in seeded_pairs(50, 10):
            H = bifree_max_convolve(F, G)
            assert (H.cdf == 0.0).any()
            _set_blocks(blocks, monkeypatch, *H.cdf.shape)
            save_bi_json(H, out)
            assert out.read_bytes() == _json_bytes(H)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_block_is_checked(self, tmp_path, bad):
        cdf = np.zeros((4, 3))
        cdf[2, 1] = bad
        with open(tmp_path / "F.json", "w") as fh, pytest.raises(CDFError, match="finite"):
            write_bi_json(fh, np.arange(4.0), np.arange(3.0), (cdf[i:i + 1] for i in range(4)))

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 2)])
    def test_block_shapes_are_checked(self, tmp_path, shape):
        with open(tmp_path / "F.json", "w") as fh, pytest.raises(CDFError, match="shape"):
            write_bi_json(fh, np.arange(4.0), np.arange(3.0), [np.zeros(shape)])


def _biconv_stdout(F, G, H, out, tol=EPS_CDF):
    """What ``biconv`` printed when it held H: the marginal check on H's last
    column and the psi range of the whole array."""
    last = H.y_breaks[-1:]
    h1 = np.maximum(0.0, F.evaluate_grid(H.x_breaks, last)[:, 0]
                    + G.evaluate_grid(H.x_breaks, last)[:, 0] - 1.0)
    ok = np.array_equal(H.cdf[:, -1], h1)
    text = (f"wrote {out}: grid {H.x_breaks.size}x{H.y_breaks.size}, "
            f"total mass {float(H.cdf[-1, -1])!r}, marginal check {'OK' if ok else 'FAILED'}\n")
    psi = psi_reference(H.cdf)
    finite = psi[np.isfinite(psi)]
    if finite.size and max(finite.max() - 1.0, 1.0 - finite.min()) <= tol:
        text += "psi == 1 (product output)\n"
    return text


def _stream_cases():
    """Pairs for biconv: products, point masses, 1xn and nx1 grids, random pairs."""
    u, v = np.array([0.8, 0.9, 1.0]), np.array([0.7, 0.95, 1.0])
    product = BivariateCDF([0, 1, 2], [0, 1, 2], u[:, None] * v[None, :])
    point = BivariateCDF([0.5], [0.5], [[1.0]])
    row = BivariateCDF([0.0], [0.0, 1.0, 2.0], [[0.25, 0.5, 1.0]])
    col = BivariateCDF([0.0, 1.5, 2.0], [0.0], [[0.25], [0.75], [1.0]])
    yield from [(product, product), (point, point), (point, product), (row, row),
                (col, col), (row, col)]
    yield from seeded_pairs(51, 8)


class TestStreamedCli:
    """biconv and nfold stream their output: the same file and stdout as
    writing the library result."""

    def test_biconv(self, blocks, monkeypatch, tmp_path, capsys):
        f, g, out = (tmp_path / f"{name}.json" for name in "fgh")
        stdouts = []
        for F, G in _stream_cases():
            H = bifree_max_convolve(F, G)
            save_bi_json(F, f)
            save_bi_json(G, g)
            _set_blocks(blocks, monkeypatch, *H.cdf.shape)
            assert main(["biconv", str(f), str(g), "--out", str(out)]) == 0
            assert out.read_bytes() == _json_bytes(H)
            stdouts.append(capsys.readouterr().out)
            assert stdouts[-1] == _biconv_stdout(F, G, H, out)
        assert "psi == 1" in stdouts[0] and "psi == 1" not in stdouts[-1]

    def test_nfold(self, blocks, monkeypatch, tmp_path, capsys):
        f, out = tmp_path / "f.json", tmp_path / "h.json"
        for F in {id(F): F for pair in _stream_cases() for F in pair}.values():
            save_bi_json(F, f)
            for n in (1, 2, 3):
                H = nfold(F, n)
                _set_blocks(blocks, monkeypatch, *H.cdf.shape)
                assert main(["nfold", str(f), str(n), "--out", str(out)]) == 0
                assert out.read_bytes() == _json_bytes(H)
                assert capsys.readouterr().out == (
                    f"wrote {out}: {n}-fold power, total mass {float(H.cdf[-1, -1])!r}\n")


class TestStreamedCliErrors:
    """An error while the output streams leaves --out as it was and no
    temporary file, and is reported like an error before the output opens."""

    @pytest.fixture
    def fail_at(self, monkeypatch, tmp_path):
        """fail_at(k, kind) makes the k-th row block raise a CDFError, or be
        nan; it records the files in tmp_path at that moment."""
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 1)   # one row per block
        real = biconv_module._decode_block
        seen = {}

        def set_for(k, kind="raise"):
            calls = []

            def decode(*args):
                calls.append(None)
                if len(calls) != k:
                    return real(*args)
                seen["files"] = sorted(p.name for p in tmp_path.iterdir())
                if kind == "raise":
                    raise CDFError("injected failure")
                return np.full_like(real(*args), np.nan)

            monkeypatch.setattr(biconv_module, "_decode_block", decode)
            return seen
        return set_for

    @pytest.fixture
    def inputs(self, tmp_path):
        F, G = next(seeded_pairs(52))
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        save_bi_json(F, f)
        save_bi_json(G, g)
        return {"biconv": [str(f), str(g)], "nfold": [str(f), "2"]}

    @pytest.mark.parametrize("command", ["biconv", "nfold"])
    @pytest.mark.parametrize("existing", [False, True], ids=["no-out", "old-out"])
    def test_failure_midway(self, fail_at, inputs, tmp_path, capsys, command, existing):
        out = tmp_path / "h.json"
        if existing:
            out.write_bytes(b"old bytes\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        reports = []
        # block 1 is the last row, computed before the output opens
        for k, kind in [(1, "raise"), (4, "raise"), (4, "nan")]:
            seen = fail_at(k, kind)
            assert main([command, *inputs[command], "--out", str(out)]) == 1
            reports.append(capsys.readouterr())
            assert reports[-1].out == ""
            # midway, the output goes to one temporary file
            opened = [name for name in seen["files"] if name not in before]
            assert len(opened) == (k > 1) and all(name.endswith(".tmp") for name in opened)
            assert sorted(p.name for p in tmp_path.iterdir()) == before
            if existing:
                assert out.read_bytes() == b"old bytes\n"
            else:
                assert not out.exists()
        assert reports[0].err == reports[1].err == "error: injected failure\n"
        assert reports[2].err == "error: cdf values must be finite\n"


def test_streamed_output_to_a_device(tmp_path):
    f = tmp_path / "f.json"
    save_bi_json(next(seeded_pairs(54))[0], f)
    before = sorted(tmp_path.iterdir())
    assert main(["nfold", str(f), "2", "--out", os.devnull]) == 0
    assert main(["biconv", str(f), str(f), "--out", os.devnull]) == 0
    assert sorted(tmp_path.iterdir()) == before


class TestStreamedCliMemory:
    """With the output streamed, the CLI never holds it."""

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
        d = tmp_path_factory.mktemp("streamed")
        save_bi_json(F, d / "f.json")
        save_bi_json(G, d / "g.json")
        return d, F

    def test_biconv_peaks_below_its_output(self, files):
        d, _ = files
        code, peak = _peak_bytes(lambda: main(["biconv", str(d / "f.json"), str(d / "g.json"),
                                               "--out", str(d / "h.json")]))
        assert code == 0
        # the whole output, 1024 x 1024 float64, would be 8.4 MB on top of the inputs
        assert peak < 1024 * 1024 * 8

    def test_nfold_holds_its_input_and_not_its_output(self, files, monkeypatch):
        d, F = files
        real = cli_module.load_bi_json

        def load_then_reset_peak(path):
            loaded = real(path)
            tracemalloc.reset_peak()
            return loaded

        monkeypatch.setattr(cli_module, "load_bi_json", load_then_reset_peak)
        code, peak = _peak_bytes(lambda: main(["nfold", str(d / "f.json"), "3",
                                               "--out", str(d / "h.json")]))
        assert code == 0
        # peak after the load: the input plus blocks, not plus the output
        assert peak < F.cdf.nbytes + F.cdf.nbytes // 2
