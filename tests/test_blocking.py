"""Row-blocked grid kernels: the same bytes as the whole-array formulas at
every block size, peak memory of the output plus a few blocks, and one
validation of each public input.  CLI output files, streamed or not, are
written whole or left as they were."""

import builtins
import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from bifreemax import (
    EPS_CDF,
    AffineNormalization,
    BivariateCDF,
    CDFError,
    UnivariateCDF,
    bifree_max_convolve,
    max_stable_residual,
    merge_grids,
    nfold,
    nth_root,
    psi_ratio,
    save_bi_json,
    save_uni_json,
    validate_bi,
    validate_uni,
)
from bifreemax import biconv as biconv_module
from bifreemax import cdf as cdf_module
from bifreemax import cli as cli_module
from bifreemax import gridio
from bifreemax.biconv import _nfold_rows, _power_rows
from bifreemax.cdf import MAX_LISTED, GridRows
from bifreemax.cli import main
from helpers import (
    biconv_stdout,
    boundary_bivariate_cdf,
    boundary_univariate_values,
    convolve_reference,
    evaluate_grid_reference,
    nfold_reference,
    nth_root_reference,
    peak,
    psi_reference,
    random_bivariate_cdf,
    residual_reference,
    seeded_pairs,
    sparse_bivariate_cdf,
    stream_cases,
    validate_bi_reference,
    validate_uni_reference,
)


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
            for n in (1, 2, 5):
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
            # a computed row source of the same grid: also empty and all-below points
            rows = GridRows(F.x_breaks, F.y_breaks, lambda r, c=F.cdf: c[r].copy())
            below = F.x_breaks[0] - rng.uniform(0.1, 1.0, rng.integers(1, 4))
            for px, py in [(xs, ys), (xs[:0], ys), (xs, ys[:0]), (below, ys),
                           (np.concatenate([below, F.x_breaks[::-1]]),
                            np.concatenate([[-0.0, 0.0], F.y_breaks]))]:
                expected = evaluate_grid_reference(F, px, py)
                got = rows.evaluate_grid(px, py)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

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
        H, top = peak(lambda: bifree_max_convolve(*grids))
        assert H.cdf.shape == (512, 512)
        self.assert_output_plus_blocks(top, H.cdf)

    def test_nfold(self, grids):
        H, top = peak(lambda: nfold(grids[0], 3))
        self.assert_output_plus_blocks(top, H.cdf)

    def test_nth_root(self, grids):
        res, top = peak(lambda: nth_root(grids[0], 2))
        self.assert_output_plus_blocks(top, res.candidate.cdf)

    def test_psi_ratio(self, grids):
        psi, top = peak(lambda: psi_ratio(grids[0]))
        self.assert_output_plus_blocks(top, psi.values)

    def test_evaluate_grid(self, grids):
        F, G = grids
        xs, ys = np.union1d(F.x_breaks, G.x_breaks), np.union1d(F.y_breaks, G.y_breaks)
        vals, top = peak(lambda: G.evaluate_grid(xs, ys))
        self.assert_output_plus_blocks(top, vals)

    def test_max_stable_residual_within_three_inputs(self, grids):
        F = grids[0]
        norm = AffineNormalization(1.0, 0.05, 1.0, 0.05)   # a 512 x 512 union grid
        _, top = peak(lambda: max_stable_residual(F, 2, norm))
        assert top <= 3 * F.cdf.nbytes

    def test_max_stable_residual_holds_only_blocks(self, grids):
        F = grids[0]
        norm = AffineNormalization(1.0, 0.05, 1.0, 0.05)   # a 512 x 512 union grid

        def residual():
            return max_stable_residual(F, 2, norm)

        _, top = peak(residual, warm_up=residual)
        # F is held before the trace starts; the whole 2-fold power alone
        # would be F.cdf.nbytes, the size of BLOCKS_ALLOWED blocks
        self.assert_output_plus_blocks(top, np.empty(0))

    def test_max_stable_residual_builds_no_power(self, grids, monkeypatch):
        F = grids[0]
        norm = AffineNormalization(1.5, 0.05, 0.75, -0.05)

        def forbidden(*args):
            raise AssertionError("the whole n-fold power was built")

        monkeypatch.setattr(GridRows, "to_cdf", forbidden)
        monkeypatch.setattr(biconv_module, "nfold", forbidden)
        for n in (1, 2, 3):
            assert max_stable_residual(F, n, norm) == residual_reference(F, n, norm)


class TestScratchReuse:
    """Kernels and validate_bi compute every row block into one scratch set:
    memory does not grow with the number of violations, and a read larger
    than a block grows the scratch without leaking stale rows."""

    BLOCK = 4096

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", self.BLOCK)

    @pytest.fixture(scope="class")
    def grids(self):
        """A valid 256 x 256 grid F, not 2-divisible: its square-root candidate
        violates the rectangle inequality in 89 % of its cells; and a
        2-divisible grid of the same size."""
        rng = np.random.default_rng(61)
        F = sparse_bivariate_cdf(rng, 256, 256, 0.95)
        return F, nfold(random_bivariate_cdf(rng, 256, 256, 0.6), 2)

    def test_validate_bi_peak_does_not_grow_with_violations(self, grids):
        F = grids[0]
        root = BivariateCDF(F.x_breaks, F.y_breaks, nth_root_reference(F, 2))
        c = root.cdf
        assert np.mean(c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1] < -EPS_CDF) >= 0.3
        clean, clean_peak = peak(lambda: validate_bi(F), warm_up=lambda: validate_bi(F))
        bad, bad_peak = peak(lambda: validate_bi(root), warm_up=lambda: validate_bi(root))
        assert clean == [] and len(bad) > MAX_LISTED
        assert abs(bad_peak - clean_peak) < 8 * self.BLOCK

    def test_root_peak_does_not_grow_with_violations(self, grids):
        F, divisible = grids
        def root_check(G):
            return lambda: validate_bi(_power_rows(G.x_breaks, G.y_breaks, (G,), 1, 2))

        ok, ok_peak = peak(root_check(divisible), warm_up=root_check(divisible))
        bad, bad_peak = peak(root_check(F), warm_up=root_check(F))
        assert ok == [] and len(bad) > MAX_LISTED
        assert abs(bad_peak - ok_peak) < 8 * self.BLOCK

    @pytest.mark.parametrize("n", [3, None, "root"], ids=["nfold", "convolve", "root"])
    def test_read_larger_than_a_block(self, grids, n):
        F = grids[0]
        if n is None:   # on the union grid, so the inputs are gathered
            G = BivariateCDF(F.x_breaks + 0.05, F.y_breaks + 0.05, grids[1].cdf)
            xs, ys = cdf_module._union_grid(F, G, "bifree_max_convolve")
            H, expected = _power_rows(xs, ys, (F, G)), convolve_reference(F, G)
        elif n == "root":
            H, expected = _power_rows(F.x_breaks, F.y_breaks, (F,), 1, 2), nth_root_reference(F, 2)
        else:
            H, expected = _nfold_rows(F, n), nfold_reference(F, n)
        assert expected.size > 4 * self.BLOCK
        whole = H.evaluate_grid(H.x_breaks, H.y_breaks)
        assert whole.tobytes() == expected.tobytes()
        blocks = list(cdf_module.row_blocks(*expected.shape))
        for rows in blocks + blocks[::-1]:
            assert H.block(rows).tobytes() == expected[rows].tobytes()
        again = H.evaluate_grid(H.x_breaks, H.y_breaks)
        assert H.block(blocks[0]).tobytes() == expected[blocks[0]].tobytes()
        # evaluate_grid's result is a copy: later reads leave it as it was
        assert whole.tobytes() == again.tobytes() == expected.tobytes()


class TestOneDecode:
    """Convolution, power and root all decode their ratio field through
    biconv._decode_block, once per row block of their output."""

    @pytest.mark.parametrize("cells", [1, 50, 10 ** 6])
    def test_once_per_row_block(self, monkeypatch, cells):
        F, G = next(seeded_pairs(53))
        real = biconv_module._decode_block
        calls = []

        def decode(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(biconv_module, "_decode_block", decode)
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
        for call in (lambda: bifree_max_convolve(F, G), lambda: nfold(F, 3),
                     lambda: nth_root(F, 2).candidate, lambda: nth_root(F, 1).candidate):
            calls.clear()
            H = call()
            assert len(calls) == len(list(cdf_module.row_blocks(*H.cdf.shape)))


class TestReportsAsBounds:
    """validate_bi and validate_uni give the lines of the whole-array masks
    and worst amounts, and read each kind's row blocks once."""

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3])
    @pytest.mark.parametrize("cells", [1, 2 ** 30], ids=["one row", "whole grid"])
    def test_same_lines_as_the_reference_near_every_bound(self, monkeypatch, eps, cells):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(57)
        summaries = 0
        for _ in range(150):
            F = boundary_bivariate_cdf(rng, eps)
            v = boundary_univariate_values(rng, eps)
            U = UnivariateCDF(np.arange(float(v.size)), v)
            bi, uni = validate_bi(F, eps), validate_uni(U, eps)
            assert bi == validate_bi_reference(F, eps)
            assert uni == validate_uni_reference(U, eps)
            summaries += sum(line.startswith("... and ") for line in bi + uni)
        assert summaries >= 150   # the worst amounts are compared too


class TestOnePassValidation:
    """validate_bi reads any row source once: the last row, then each row
    block with the row before it, checking every kind on that one read."""

    @staticmethod
    def sources(F):
        """F, and a GridRows that computes F's rows as they are read."""
        return F, GridRows(F.x_breaks, F.y_breaks, lambda r, c=F.cdf: c[r].copy())

    @staticmethod
    def grids(seed):
        """Boundary grids at eps = 1e-9 and seeded pairs with noise on half their cells."""
        rng = np.random.default_rng(seed)
        for _ in range(60):
            yield boundary_bivariate_cdf(rng, EPS_CDF)
        for F, G in seeded_pairs(seed, 10):
            for X in (F, G):
                noise = rng.normal(0.0, 0.3, X.cdf.shape) * (rng.random(X.cdf.shape) < 0.5)
                yield BivariateCDF(X.x_breaks, X.y_breaks, X.cdf + noise)

    @pytest.mark.parametrize("rows", [1, 2, None, 2 ** 30],
                             ids=["one row", "two rows", "default", "whole grid"])
    def test_same_lines_as_the_reference(self, monkeypatch, rows):
        summaries = 0
        for F in self.grids(58):
            if rows is not None:
                monkeypatch.setattr(cdf_module, "BLOCK_CELLS", rows * F.y_breaks.size)
            expected = validate_bi_reference(F)
            for X in self.sources(F):
                assert validate_bi(X) == expected
            summaries += sum(line.startswith("... and ") for line in expected)
        assert summaries >= 20   # the worst amounts are compared too

    def test_one_pass_for_every_kind(self, monkeypatch):
        passes = []
        real = cdf_module.row_blocks

        def spy(nrows, ncols):
            passes.append(None)
            return real(nrows, ncols)

        monkeypatch.setattr(cdf_module, "row_blocks", spy)
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 64)
        rng = np.random.default_rng(12)
        c = rng.uniform(-0.5, 1.5, (40, 30))
        v = rng.uniform(-0.5, 1.5, 200)
        for validate, F, kinds in [
                (validate_bi, BivariateCDF(np.arange(40.0), np.arange(30.0), c), 6),
                (validate_uni, UnivariateCDF(np.arange(200.0), v), 2)]:
            passes.clear()
            report = validate(F)
            assert sum(line.startswith("... and ") for line in report) == kinds
            assert len(passes) == 1

    @pytest.mark.parametrize("cells", [1, 64, 10 ** 6])
    def test_one_read_per_block_and_the_last_row(self, monkeypatch, tmp_path, cells):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
        c = np.random.default_rng(13).uniform(-0.5, 1.5, (40, 30))
        F, rows = self.sources(BivariateCDF(np.arange(40.0), np.arange(30.0), c))
        reads = []
        real_block = BivariateCDF.block

        def spy(self, r):
            reads.append((r.start, r.stop))
            return real_block(self, r)

        def counted(X):
            return GridRows(X.x_breaks, X.y_breaks,
                            lambda r: reads.append((r.start, r.stop)) or X.block(r))

        path = tmp_path / "F.json"
        save_bi_json(F, path)
        monkeypatch.setattr(BivariateCDF, "block", spy)
        blocks = [(max(r.start - 1, 0), r.stop) for r in cdf_module.row_blocks(40, 30)]
        for X in (F, counted(rows)):
            reads.clear()
            validate_bi(X)
            assert reads == [(39, 40), *blocks]
        # a saved file, read by the CLI through a _RowStream; root's candidate
        # is read the same way, and reads its input on the same pass.  Which
        # rows a read asks for shows nowhere outside the stream: the file is
        # read forward in chunks whatever they are
        streamed = []
        real_stream = gridio._RowStream.block
        monkeypatch.setattr(gridio._RowStream, "block",
                            lambda self, r: streamed.append((r.start, r.stop))
                            or real_stream(self, r))
        real_power = cli_module._power_rows
        monkeypatch.setattr(cli_module, "_power_rows", lambda *a: counted(real_power(*a)))
        for argv, candidate in [(["validate", str(path), "--kind", "bi"], []),
                                (["root", str(path), "2", "--out", str(tmp_path / "R.json")],
                                 [(39, 40), *blocks])]:
            streamed.clear()
            reads.clear()
            assert main(argv) == 1
            assert streamed == [(39, 40), *blocks]
            assert reads == candidate

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_block_is_checked(self, monkeypatch, bad):
        """A GridRows gets the finiteness check to_cdf() makes, with its message."""
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 1)   # one row per block
        cdf = np.zeros((4, 3))
        cdf[2, 1] = bad
        rows = GridRows(np.arange(4.0), np.arange(3.0), lambda r: cdf[r])
        for call in (rows.to_cdf, lambda: validate_bi(rows)):
            with pytest.raises(CDFError, match="cdf values must be finite"):
                call()

    @pytest.mark.parametrize("shape", [(1, 3), (3, 3), (5, 3), (4, 2)])
    def test_array_checks_each_block_shape(self, shape):
        """A block of the wrong shape raises CDFError; (1, 3) is not broadcast."""
        rows = GridRows(np.arange(4.0), np.arange(3.0), lambda r: np.full(shape, 0.5))
        with pytest.raises(CDFError, match="shape"):
            rows.to_cdf()


class TestValidateOnce:
    """Each public call validates each of its inputs once; internal steps
    reuse the validated inputs."""

    @pytest.fixture
    def validated(self, monkeypatch):
        # validate_bi and _BiValidator.finish both report through _BiValidator.report
        seen = []
        real = cdf_module._BiValidator.report

        def spy(validator):
            seen.append(validator.F)
            return real(validator)

        monkeypatch.setattr(cdf_module._BiValidator, "report", spy)
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

    def test_cli(self, pair, tmp_path, monkeypatch):
        # biconv validates F and G, and stability F, on their one-pass reads:
        # each reports through the validator it feeds
        reports = []
        real = cdf_module._BiValidator.report

        def spy(validator):
            reports.append(validator)
            return real(validator)

        monkeypatch.setattr(cdf_module._BiValidator, "report", spy)
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        save_bi_json(pair[0], f)
        save_bi_json(pair[1], g)
        assert main(["biconv", str(f), str(g), "--out", str(tmp_path / "h.json")]) == 0
        assert len(reports) == 2
        reports.clear()
        assert main(["stability", str(f), "3", "1.5", "0.1", "0.5", "-0.2"]) == 0
        assert len(reports) == 1


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
    def test_each_block_is_checked(self, monkeypatch, tmp_path, bad):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", 1)   # one row per block
        cdf = np.zeros((4, 3))
        cdf[2, 1] = bad
        with pytest.raises(CDFError, match="finite"):
            save_bi_json(GridRows(np.arange(4.0), np.arange(3.0), lambda r: cdf[r]),
                         tmp_path / "F.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 2)])
    def test_block_shapes_are_checked(self, tmp_path, shape):
        with pytest.raises(CDFError, match="shape"):
            save_bi_json(GridRows(np.arange(4.0), np.arange(3.0), lambda r: np.zeros(shape)),
                         tmp_path / "F.json")
        assert list(tmp_path.iterdir()) == []


class TestStreamedCli:
    """biconv and nfold stream their output: the same file and stdout as
    writing the library result."""

    def test_biconv(self, blocks, monkeypatch, tmp_path, capsys):
        f, g, out = (tmp_path / f"{name}.json" for name in "fgh")
        stdouts = []
        for F, G in stream_cases():
            H = bifree_max_convolve(F, G)
            save_bi_json(F, f)
            save_bi_json(G, g)
            _set_blocks(blocks, monkeypatch, *H.cdf.shape)
            assert main(["biconv", str(f), str(g), "--out", str(out)]) == 0
            assert out.read_bytes() == _json_bytes(H)
            stdouts.append(capsys.readouterr().out)
            assert stdouts[-1] == biconv_stdout(F, G, H, out)
        assert "psi == 1" in stdouts[0] and "psi == 1" not in stdouts[-1]

    def test_biconv_marginal_check_reads_the_inputs(self, monkeypatch, tmp_path, capsys):
        # a kernel whose last column is off by 10 tol fails the check, which
        # compares it with the inputs' free max, not with the kernel's columns
        f, g, out = (tmp_path / f"{name}.json" for name in "fgh")
        F, G = next(seeded_pairs(53))
        save_bi_json(F, f)
        save_bi_json(G, g)
        argv = ["biconv", str(f), str(g), "--out", str(out), "--tol", "1e-6"]
        assert main(argv) == 0
        assert "marginal check OK" in capsys.readouterr().out
        real = biconv_module._decode_block

        def decode(*args):
            block = real(*args)
            block[:, -1] += 1e-5
            return block

        monkeypatch.setattr(biconv_module, "_decode_block", decode)
        assert main(argv) == 0
        assert "marginal check FAILED" in capsys.readouterr().out

    def test_nfold(self, blocks, monkeypatch, tmp_path, capsys):
        f, out = tmp_path / "f.json", tmp_path / "h.json"
        for F in {id(F): F for pair in stream_cases() for F in pair}.values():
            save_bi_json(F, f)
            for n in (1, 2, 3):
                H = nfold(F, n)
                _set_blocks(blocks, monkeypatch, *H.cdf.shape)
                assert main(["nfold", str(f), str(n), "--out", str(out)]) == 0
                assert out.read_bytes() == _json_bytes(H)
                assert capsys.readouterr().out == (
                    f"wrote {out}: {n}-fold power, total mass {float(H.cdf[-1, -1])!r}\n")


#: Each case of a subcommand that writes --out, with its exit code; "root"
#: has a valid candidate and "root-report" writes a divisibility report.
WRITERS = {"biconv": 0, "nfold": 0, "uniconv": 0, "root": 0, "root-report": 1,
           "ecdf": 0, "plotdata": 0}


@pytest.fixture
def writer_argv(tmp_path):
    """The argv of each case of WRITERS but its --out, on inputs in tmp_path / "in"."""
    d = tmp_path / "in"
    d.mkdir()
    F, G = next(seeded_pairs(55))
    save_bi_json(F, d / "f.json")
    save_bi_json(G, d / "g.json")
    # marginals above 1/2 make the square root of the 2-fold power valid
    save_bi_json(nfold(random_bivariate_cdf(np.random.default_rng(56), corner_mass=0.6), 2),
                 d / "div.json")
    save_uni_json(UnivariateCDF([0.0, 1.0, 2.0], [0.6, 0.8, 1.0]), d / "u.json")
    save_uni_json(UnivariateCDF([0.5, 2.0], [0.7, 1.0]), d / "v.json")
    (d / "s.tsv").write_text("0\t0\n1\t2\n2\t1\n")
    not_divisible = Path(__file__).parent / "fixtures" / "not_two_divisible_3x3.json"
    f, g = str(d / "f.json"), str(d / "g.json")
    return {"biconv": ["biconv", f, g], "nfold": ["nfold", f, "2"],
            "uniconv": ["uniconv", str(d / "u.json"), str(d / "v.json")],
            "root": ["root", str(d / "div.json"), "2"],
            "root-report": ["root", str(not_divisible), "2"],
            "ecdf": ["ecdf", str(d / "s.tsv")], "plotdata": ["plotdata", f]}


def _fail_writes_midway(monkeypatch):
    """Make every file opened for writing fail its first write, as a full disk
    does, after half the text reaches the file; returns the opened paths."""
    opened = []
    real_open = builtins.open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        opened.append(Path(file))
        return FullDisk(fh)

    monkeypatch.setattr(builtins, "open", open_)
    return opened


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
        f, g, h = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "f2.json"
        save_bi_json(F, f)
        save_bi_json(G, g)
        save_bi_json(nfold(F, 2), h)   # a valid 2-fold power: root writes its candidate
        return {"biconv": [str(f), str(g)], "nfold": [str(f), "2"], "root": [str(h), "2"]}

    @pytest.mark.parametrize("command", ["biconv", "nfold", "root"])
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

    @pytest.mark.parametrize("case", WRITERS)
    @pytest.mark.parametrize("existing", [False, True], ids=["no-out", "old-out"])
    def test_write_failure_midway(self, writer_argv, monkeypatch, tmp_path, capsys,
                                  case, existing):
        out = tmp_path / "out"
        if existing:
            out.write_bytes(b"old bytes\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        opened = _fail_writes_midway(monkeypatch)
        assert main([*writer_argv[case], "--out", str(out)]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        # the output went to one temporary file, now gone
        assert len(opened) == 1 and opened[0].parent == tmp_path.resolve()
        assert opened[0].name.startswith("out.") and opened[0].name.endswith(".tmp")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if existing:
            assert out.read_bytes() == b"old bytes\n"
        else:
            assert not out.exists()


def test_streamed_output_to_a_device(tmp_path):
    f = tmp_path / "f.json"
    save_bi_json(next(seeded_pairs(54))[0], f)
    before = sorted(tmp_path.iterdir())
    assert main(["nfold", str(f), "2", "--out", os.devnull]) == 0
    assert main(["biconv", str(f), str(f), "--out", os.devnull]) == 0
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", [c for c in WRITERS if c not in ("biconv", "nfold")])
def test_every_output_to_a_device(writer_argv, tmp_path, case):
    before = sorted(tmp_path.rglob("*"))
    assert main([*writer_argv[case], "--out", os.devnull]) == WRITERS[case]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", WRITERS)
def test_symlinked_output_keeps_its_link(writer_argv, tmp_path, case):
    plain, link = tmp_path / "plain", tmp_path / "link"
    assert main([*writer_argv[case], "--out", str(plain)]) == WRITERS[case]
    target = tmp_path / "in" / "target"
    target.write_bytes(b"old bytes\n")
    link.symlink_to(target)
    before = sorted(tmp_path.rglob("*"))
    assert main([*writer_argv[case], "--out", str(link)]) == WRITERS[case]
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", WRITERS)
def test_missing_output_directory_is_named(writer_argv, tmp_path, capsys, case):
    out = tmp_path / "missing" / "out"
    assert main([*writer_argv[case], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


class TestStreamedCliMemory:
    """A CLI call never holds its output, and a call that reads its grids in
    one pass holds none of them.  Each distinct call is warmed up and traced
    once, and every bound on it reads that one measurement."""

    #: a quarter of the default, so that a changed default reaches the bounds
    BLOCK = cdf_module.BLOCK_CELLS // 4
    #: (the files' directory, argv) -> (exit code, peak) of each call traced
    measured = {}

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cdf_module, "BLOCK_CELLS", self.BLOCK)

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """The saved grids, by file name, and the bytes of each one's array."""
        rng = np.random.default_rng(53)
        F = sparse_bivariate_cdf(rng, 512, 512, 0.2)
        grids = {"f.json": F,
                 # breaks interleaved with F's: the union grid is 1024 x 1024
                 "g.json": BivariateCDF(F.x_breaks + 0.05, F.y_breaks + 0.05,
                                        sparse_bivariate_cdf(rng, 512, 512, 0.2).cdf),
                 # marginals above 1/2 make the square root of the 2-fold power valid
                 "div.json": nfold(random_bivariate_cdf(rng, 512, 512, corner_mass=0.6), 2),
                 "wide.json": sparse_bivariate_cdf(rng, 1024, 512, 0.0)}
        d = tmp_path_factory.mktemp("streamed")
        for name, X in grids.items():
            save_bi_json(X, d / name)
        return d, {name: X.cdf.nbytes for name, X in grids.items()}

    def measure(self, files, argv, exit_code, capsys):
        """The peak allocation of a call of argv on the saved files after a
        warm-up call, after its exit code and, for root, the file it wrote
        are checked."""
        d, _ = files
        key = (d, *argv)
        if key not in self.measured:
            call = [str(d / a) if a.endswith((".json", ".tsv")) else a for a in argv]
            self.measured[key] = peak(lambda: main(call), warm_up=lambda: main(call))
        code, top = self.measured[key]
        assert code == exit_code, capsys.readouterr()
        if argv[0] == "root":   # the candidate or the report was written
            assert ("divisibility_failure" in (d / argv[-1]).read_text()) == bool(exit_code)
        return top

    def test_biconv_peaks_below_its_output(self, files, capsys):
        top = self.measure(files, ["biconv", "f.json", "g.json", "--out", "h.json"], 0, capsys)
        # the whole output, 1024 x 1024 float64, would be 8.4 MB on top of the inputs
        assert top < 1024 * 1024 * 8

    @pytest.mark.parametrize("argv, exit_code, share", [
        (["validate", "f.json", "--kind", "bi"], 0, 0.5),
        (["nfold", "f.json", "3", "--out", "h.json"], 0, 0.5),
        (["root", "div.json", "2", "--out", "root.json"], 0, 0.5),
        (["root", "f.json", "2", "--out", "report.json"], 1, 0.5),
        (["plotdata", "f.json", "--out", "plot.tsv"], 0, 0.5),
        (["biconv", "f.json", "g.json", "--out", "h.json"], 0, 0.5),
        (["stability", "wide.json", "2", "1", "0", "1", "0"], 0, 0.25),
    ], ids=["validate", "nfold", "root-candidate", "root-report", "plotdata", "biconv",
            "stability"])
    def test_streamed_call_holds_no_grid(self, files, argv, exit_code, share, capsys):
        """A call peaks at the loader's buffers and blocks: below half of its
        first input's array, and it holds no output; root never holds its
        candidate.  stability holds the rows between the grid's own row x and
        the power's rows near a*x + b: at the identity normalization those of
        one read, below a quarter of the array."""
        assert self.measure(files, argv, exit_code, capsys) < share * files[1][argv[1]]

    @pytest.mark.parametrize("argv, exit_code", [
        (["validate", "f.json", "--kind", "bi"], 0),
        (["stability", "f.json", "2", "2", "0.5", "2", "0.5"], 0),
        (["root", "div.json", "2", "--out", "root.json"], 0),
        (["root", "f.json", "2", "--out", "report.json"], 1),
    ], ids=["validate", "stability", "root-candidate", "root-report"])
    def test_call_holds_its_input_once(self, files, argv, exit_code, capsys):
        """A call peaks at its input plus the loader's buffer and blocks, not
        at the input twice: stability at (2, 0.5) holds most of the grid, the
        rows between row x and the power's rows near 2x + 0.5, once."""
        assert self.measure(files, argv, exit_code, capsys) < 1.5 * files[1][argv[1]]

    def test_ecdf_holds_no_table(self, tmp_path):
        """ecdf writes its table a row block at a time and never holds it."""
        pts = np.random.default_rng(54).normal(size=(600, 2))
        tsv = tmp_path / "s.tsv"
        tsv.write_text("".join(f"{x!r}\t{y!r}\n" for x, y in pts.tolist()))
        call = ["ecdf", str(tsv), "--out", str(tmp_path / "F.json")]
        code, top = peak(lambda: main(call), warm_up=lambda: main(call))
        assert code == 0
        assert top < 0.25 * 600 * 600 * 8
