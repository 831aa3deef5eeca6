import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bifreemax
from bifreemax import BivariateCDF, UnivariateCDF, load_bi_json, save_bi_json, save_uni_json
from bifreemax import cdf as cdf_module
from bifreemax.cdf import MAX_LISTED
from bifreemax.cli import main
from helpers import group_violations, random_bivariate_cdf

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def valid_bi(tmp_path):
    path = tmp_path / "F.json"
    save_bi_json(BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]]), path)
    return str(path)


@pytest.fixture
def product_bi(tmp_path):
    u = np.array([0.8, 1.0])
    v = np.array([0.9, 1.0])
    path = tmp_path / "P.json"
    save_bi_json(BivariateCDF([0, 1], [0, 1], u[:, None] * v[None, :]), path)
    return str(path)


class TestValidate:
    def test_valid_file(self, valid_bi, capsys):
        assert main(["validate", valid_bi, "--kind", "bi"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_rectangle_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_bi_json(BivariateCDF([0, 1], [0, 1], [[0.5, 0.9], [0.9, 1.0]]), path)
        assert main(["validate", str(path), "--kind", "bi"]) == 1
        out = capsys.readouterr().out
        assert "rectangle" in out and "(0,0)" in out

    def test_uni(self, tmp_path):
        path = tmp_path / "u.json"
        save_uni_json(UnivariateCDF([0, 1], [0.4, 1.0]), path)
        assert main(["validate", str(path), "--kind", "uni"]) == 0

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"x_breaks": [0, 1], "y_br')
        assert main(["validate", str(path), "--kind", "bi"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json"), "--kind", "bi"]) == 2

    def test_corrupted_grid_report_is_bounded(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        F = random_bivariate_cdf(rng, max_size=128, min_size=128)
        cdf = F.cdf.copy()
        cells = rng.choice(cdf.size, size=cdf.size // 10, replace=False)
        cdf.flat[cells] += rng.choice([-1.0, 1.0], cells.size) * rng.uniform(0.01, 0.5, cells.size)
        path = tmp_path / "bad.json"
        save_bi_json(BivariateCDF(F.x_breaks, F.y_breaks, cdf), path)
        assert main(["validate", str(path), "--kind", "bi"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "OK" not in lines
        groups = group_violations(lines)
        assert len(groups) >= 4
        for locations, summary in groups.values():
            assert len(locations) + (summary is not None) <= MAX_LISTED + 1


class TestUniconv:
    def test_max_through_files(self, tmp_path):
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        out = tmp_path / "h.json"
        save_uni_json(UnivariateCDF([0, 5], [0.7, 1.0]), f)
        save_uni_json(UnivariateCDF([0, 5], [0.6, 1.0]), g)
        assert main(["uniconv", str(f), str(g), "--op", "max", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["values"][0] == pytest.approx(0.3)

    def test_min_through_files(self, tmp_path):
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        out = tmp_path / "h.json"
        save_uni_json(UnivariateCDF([0, 5], [0.2, 1.0]), f)
        save_uni_json(UnivariateCDF([0, 5], [0.3, 1.0]), g)
        assert main(["uniconv", str(f), str(g), "--op", "min", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["values"][0] == pytest.approx(0.5)


class TestBiconv:
    def test_products(self, product_bi, tmp_path, capsys):
        out = tmp_path / "h.json"
        assert main(["biconv", product_bi, product_bi, "--out", str(out)]) == 0
        assert "psi == 1" in capsys.readouterr().out

    def test_projection_indicators(self, tmp_path):
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        out = tmp_path / "h.json"
        save_bi_json(BivariateCDF([0, 1], [0, 1], [[0.5, 0.6], [0.7, 1.0]]), f)
        save_bi_json(BivariateCDF([0, 1], [0, 1], [[0.45, 0.8], [0.5, 1.0]]), g)
        assert main(["biconv", str(f), str(g), "--out", str(out)]) == 0
        H = load_bi_json(out)
        assert H.cdf[0, 0] == pytest.approx(0.1097561, abs=5e-8)

    def test_identity_point_mass(self, valid_bi, tmp_path):
        e = tmp_path / "e.json"
        out = tmp_path / "h.json"
        save_bi_json(BivariateCDF([-9.0], [-9.0], [[1.0]]), e)
        assert main(["biconv", str(e), valid_bi, "--out", str(out)]) == 0
        H = load_bi_json(out)
        F = load_bi_json(valid_bi)
        assert abs(H.evaluate(0, 0) - F.evaluate(0, 0)) < 1e-15

    def test_invalid_input_exit_1(self, valid_bi, tmp_path):
        bad = tmp_path / "bad.json"
        save_bi_json(BivariateCDF([0, 1], [0, 1], [[0.5, 0.9], [0.9, 1.0]]), bad)
        assert main(["biconv", str(bad), valid_bi, "--out", str(tmp_path / "h.json")]) == 1


class TestNfoldRoot:
    def test_nfold_one_is_identity(self, valid_bi, tmp_path):
        out = tmp_path / "h.json"
        assert main(["nfold", valid_bi, "1", "--out", str(out)]) == 0
        assert load_bi_json(out).cdf.tolist() == load_bi_json(valid_bi).cdf.tolist()

    def test_root_of_nfold_round_trip(self, tmp_path):
        f = tmp_path / "f.json"
        cubed = tmp_path / "f3.json"
        back = tmp_path / "froot.json"
        save_bi_json(BivariateCDF([0, 1], [0, 1], [[0.85, 0.9], [0.88, 1.0]]), f)
        assert main(["nfold", str(f), "3", "--out", str(cubed)]) == 0
        assert main(["root", str(cubed), "3", "--out", str(back)]) == 0
        F = load_bi_json(f)
        R = load_bi_json(back)
        assert np.max(np.abs(F.cdf - R.cdf)) < 1e-9

    def test_root_failure_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        fixture = str(FIXTURES / "not_two_divisible_3x3.json")
        assert main(["root", fixture, "2", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert any("rectangle" in v for v in report["divisibility_failure"])

    def test_root_failure_report_size_does_not_grow_with_the_grid(self, tmp_path, capsys):
        reports, stdouts = [], []
        for n in (32, 128):
            f, out = tmp_path / f"f{n}.json", tmp_path / f"r{n}.json"
            save_bi_json(random_bivariate_cdf(np.random.default_rng(5), n, n), f)
            assert main(["root", str(f), "2", "--out", str(out)]) == 1
            report = json.loads(out.read_text())["divisibility_failure"]
            reports.append({kind: len(locations) + (summary is not None)
                            for kind, (locations, summary) in group_violations(report).items()})
            stdouts.append(capsys.readouterr().out.splitlines())
        assert reports[0] == reports[1]
        assert len(reports[0]) >= 3
        assert set(reports[0].values()) == {MAX_LISTED + 1}
        assert len(stdouts[0]) == len(stdouts[1]) == 1 + sum(reports[0].values())


class TestStability:
    def test_identity_case(self, valid_bi, capsys):
        assert main(["stability", valid_bi, "1", "1", "0", "1", "0"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_point_mass(self, tmp_path, capsys):
        f = tmp_path / "pm.json"
        save_bi_json(BivariateCDF([0.0], [0.0], [[1.0]]), f)
        assert main(["stability", str(f), "4", "1", "0", "1", "0"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_product_positive_residual(self, product_bi, capsys):
        assert main(["stability", product_bi, "2", "1", "0", "1", "0"]) == 0
        res = float(capsys.readouterr().out)
        # brute force: marginals (0.8, 0.9) -> 2-fold (0.6, 0.8)
        expected = abs(0.6 * 0.8 - 0.8 * 0.9)
        assert res == pytest.approx(expected, abs=1e-9)


class TestOracle:
    def test_all_ones(self, capsys):
        assert main(["oracle", "1", "1", "1", "1", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("1.0") >= 3

    def test_reference_pair(self, capsys):
        assert main(["oracle", "0.6", "0.7", "0.5", "0.8", "0.5", "0.45"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[:3]:
            assert float(line.split()[-1]) == pytest.approx(0.1097561, abs=1e-6)

    def test_degenerate_clause(self, capsys):
        assert main(["oracle", "0.3", "0.5", "0.2", "0.4", "0.5", "0.2"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[:3]:
            assert float(line.split()[-1]) == 0.0

    def test_invalid_triple_names_bound(self, capsys):
        assert main(["oracle", "0.6", "0.7", "0.65", "0.8", "0.5", "0.45"]) == 1
        assert "Frechet" in capsys.readouterr().err


class TestEcdfPlotdata:
    def test_single_sample(self, tmp_path):
        samples = tmp_path / "s.tsv"
        out = tmp_path / "e.json"
        samples.write_text("# a comment\n0.0\t0.0\n")
        assert main(["ecdf", str(samples), "--out", str(out)]) == 0
        assert load_bi_json(out).cdf.tolist() == [[1.0]]

    def test_product_grid(self, tmp_path):
        samples = tmp_path / "s.tsv"
        out = tmp_path / "e.json"
        samples.write_text("0\t0\n0\t1\n1\t0\n1\t1\n")
        assert main(["ecdf", str(samples), "--out", str(out)]) == 0
        F = load_bi_json(out)
        assert F.cdf.tolist() == [[0.25, 0.5], [0.5, 1.0]]

    def test_over_cell_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        samples = tmp_path / "s.tsv"
        samples.write_text("0\t0\n1\t1\n2\t2\n")
        monkeypatch.setattr(cdf_module, "MAX_CELLS", 8)
        assert main(["ecdf", str(samples), "--out", str(tmp_path / "e.json")]) == 1
        assert "9 cells, 72 bytes" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_sample_exit_2(self, tmp_path, capsys, token):
        samples = tmp_path / "s.tsv"
        samples.write_text(f"0\t0\n1\t{token}\n")
        assert main(["ecdf", str(samples), "--out", str(tmp_path / "e.json")]) == 2
        assert f"{samples}:2: samples must be finite" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    def test_empty_samples_exit_1(self, tmp_path):
        samples = tmp_path / "s.tsv"
        samples.write_text("# nothing here\n")
        assert main(["ecdf", str(samples), "--out", str(tmp_path / "e.json")]) == 1

    def test_plotdata_row_count(self, valid_bi, tmp_path):
        out = tmp_path / "plot.tsv"
        assert main(["plotdata", valid_bi, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4
        assert all(len(r.split("\t")) == 3 for r in rows)


class TestSerializationRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        from helpers import random_bivariate_cdf
        for i in range(10):
            F = random_bivariate_cdf(rng)
            path = tmp_path / f"F{i}.json"
            save_bi_json(F, path)
            G = load_bi_json(path)
            assert np.array_equal(F.cdf, G.cdf)
            assert np.array_equal(F.x_breaks, G.x_breaks)
            assert np.array_equal(F.y_breaks, G.y_breaks)


class TestJsonWriterBytes:
    EDGE = [5e-324, 1e-300, -0.0, 1.0 - 2.0 ** -53, 0.1, 1.0]

    @staticmethod
    def _json_dump_bytes(obj, path):
        with open(path, "w") as fh:
            json.dump(obj, fh)
            fh.write("\n")
        return path.read_bytes()

    def _grids(self):
        # the writer does not validate, so any finite values will do
        rng = np.random.default_rng(64)
        edge = np.array(self.EDGE)
        breaks = np.sort(edge)
        yield BivariateCDF([0.0], [1.0], [[1.0]])
        yield BivariateCDF([0.0], breaks, edge[None, :])
        yield BivariateCDF(breaks, [0.0], edge[:, None])
        yield BivariateCDF(breaks, breaks, np.outer(edge, edge[::-1]))
        yield BivariateCDF(np.cumsum(rng.uniform(0.1, 1.0, 64)),
                           np.cumsum(rng.uniform(0.1, 1.0, 64)),
                           rng.uniform(size=(64, 64)))

    def test_bi_bytes_equal_json_dump(self, tmp_path):
        for k, F in enumerate(self._grids()):
            out = tmp_path / f"F{k}.json"
            save_bi_json(F, out)
            want = self._json_dump_bytes(
                {"x_breaks": F.x_breaks.tolist(), "y_breaks": F.y_breaks.tolist(),
                 "cdf": F.cdf.tolist()}, tmp_path / f"want{k}.json")
            assert out.read_bytes() == want

    def test_uni_bytes_equal_json_dump(self, tmp_path):
        for k, values in enumerate(([1.0], self.EDGE)):
            F = UnivariateCDF(np.arange(len(values), dtype=float), values)
            out = tmp_path / f"F{k}.json"
            save_uni_json(F, out)
            want = self._json_dump_bytes(
                {"breaks": F.breaks.tolist(), "values": F.values.tolist()},
                tmp_path / f"want{k}.json")
            assert out.read_bytes() == want


class TestPlainNumbers:
    def test_no_numpy_reprs_in_output(self, valid_bi, product_bi, tmp_path, capsys):
        uni = tmp_path / "u.json"
        save_uni_json(UnivariateCDF([0, 5], [0.7, 1.0]), uni)
        plot = tmp_path / "plot.tsv"
        for argv in (["uniconv", str(uni), str(uni), "--out", str(tmp_path / "h.json")],
                     ["biconv", valid_bi, product_bi, "--out", str(tmp_path / "b.json")],
                     ["nfold", valid_bi, "2", "--out", str(tmp_path / "n.json")],
                     ["plotdata", valid_bi, "--out", str(plot)]):
            assert main(argv) == 0
        out = capsys.readouterr().out + plot.read_text()
        assert "np." not in out and "total mass 1.0" in out
        rows = [line.split("\t") for line in plot.read_text().splitlines()]
        assert rows[1] == ["0.0", "1.0", "0.6"]


def fresh_python(code, **env_changes):
    """Run ``code`` in a fresh interpreter that imports bifreemax from this tree."""
    src = str(Path(bifreemax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_numpy_and_stdlib_only():
    out = fresh_python("import bifreemax.cli, sys; print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))")
    assert out.strip() == "[]"


def test_cli_pins_openblas_to_one_thread_before_numpy_loads():
    code = ("import os, sys, bifreemax; print('numpy' in sys.modules); "
            "import bifreemax.cli; print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert fresh_python(code, OPENBLAS_NUM_THREADS=None).split() == ["False", "1"]
    assert fresh_python(code, OPENBLAS_NUM_THREADS="4").split() == ["False", "4"]


def test_package_names_load_on_first_use():
    assert sorted(bifreemax.__all__) == sorted(set(bifreemax.__all__))
    for name in bifreemax.__all__:
        assert getattr(bifreemax, name) is not None
        assert name in dir(bifreemax)
    assert bifreemax.load_bi_json is load_bi_json
    with pytest.raises(AttributeError):
        bifreemax.no_such_name
