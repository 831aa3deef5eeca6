"""Row-blocked grid kernels: the same bytes as the whole-array formulas at
every block size, peak memory of the output plus a few blocks, and one
validation of each public input."""

import tracemalloc

import numpy as np
import pytest

from bifreemax import (
    EPS_CDF,
    AffineNormalization,
    BivariateCDF,
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
