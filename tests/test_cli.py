import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import bifreemax
from bifreemax import (
    BivariateCDF,
    UnivariateCDF,
    load_bi_json,
    save_bi_json,
    save_uni_json,
    validate_bi,
)
from bifreemax import cdf as cdf_module
from bifreemax import oracle as oracle_module
from bifreemax.cdf import MAX_LISTED
from bifreemax.cli import build_parser, main
from helpers import fresh_python, fresh_run, group_violations, random_bivariate_cdf

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

    def test_non_number_in_a_full_row_exit_2(self, tmp_path, capsys):
        """A row of y_breaks' length that holds a string is a format error naming the file."""
        path = tmp_path / "F.json"
        path.write_text('{"x_breaks": [0, 1], "y_breaks": [0, 1], '
                        '"cdf": [[0.3, "a"], [0.5, 1.0]]}')
        with pytest.raises(cdf_module.CDFFormatError) as loaded:
            load_bi_json(path)
        assert main(["validate", str(path), "--kind", "bi"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {loaded.value}\n"
        assert captured.err.startswith(f"error: bad bivariate CDF file {path}: ")

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

    def test_marginal_check_at_a_total_mass_just_below_one(self, tmp_path, capsys):
        # at a mass of 1 - delta the last column can differ from (F1 + G1 - 1)_+
        # in the last place, far inside --tol
        rng = np.random.default_rng(62)
        f, g, out = (str(tmp_path / f"{name}.json") for name in "fgh")
        for _ in range(50):
            F, G = random_bivariate_cdf(rng), random_bivariate_cdf(rng)
            F = BivariateCDF(F.x_breaks, F.y_breaks, F.cdf * (1.0 - rng.uniform(0.0, 1e-9)))
            assert validate_bi(F) == [] and validate_bi(G) == []
            save_bi_json(F, f)
            save_bi_json(G, g)
            assert main(["biconv", f, g, "--out", out]) == 0
            assert "marginal check OK" in capsys.readouterr().out


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

    def test_one_root_with_mass_in_a_zero_marginal_row(self, tmp_path, capsys):
        f, out = tmp_path / "f.json", tmp_path / "r.json"
        save_bi_json(BivariateCDF([0, 1], [0, 1], [[1e-10, 0.0], [0.5, 1.0]]), f)
        assert main(["root", str(f), "1", "--out", str(out)]) == 0
        assert load_bi_json(out).cdf.tolist() == [[0.0, 0.0], [0.5, 1.0]]
        assert capsys.readouterr().out == f"wrote {out}: valid 1-th root candidate\n"

    def test_root_with_a_cell_below_zero(self, tmp_path, capsys):
        # cell (0, 0) is within eps below 0 in a row whose marginal is 0
        f, out = tmp_path / "b.json", tmp_path / "r.json"
        save_bi_json(BivariateCDF([0, 1], [0, 1], [[-1e-10, 0.0], [0.5, 1.0]]), f)
        assert main(["root", str(f), "2", "--out", str(out)]) == 0
        assert load_bi_json(out).cdf.tolist() == [[0.375, 0.5], [0.75, 1.0]]
        assert capsys.readouterr().out == f"wrote {out}: valid 2-th root candidate\n"

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


    @pytest.mark.parametrize("command", [["nfold", "--out", "h.json"],
                                         ["root", "--out", "h.json"],
                                         ["stability", "1", "0", "1", "0"]],
                             ids=["nfold", "root", "stability"])
    def test_count_a_float_cannot_hold_exit_1(self, valid_bi, tmp_path, monkeypatch, capsys,
                                              command):
        monkeypatch.chdir(tmp_path)
        name, *rest = command
        assert main([name, valid_bi, str(10 ** 400), *rest]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: n must be a positive integer")
        assert not (tmp_path / "h.json").exists()


class TestStability:
    @pytest.mark.parametrize("norm", [["1", "nan", "1", "0"], ["1", "0", "inf", "0"],
                                      ["1e-320", "0", "1", "0"], ["2", "1e20", "1", "0"],
                                      ["1", "0", "1", "1e308"], ["1", "0", "1", "-inf"]],
                             ids=["b-nan", "c-inf", "tiny-a", "huge-b", "huge-d", "d-minus-inf"])
    def test_normalization_that_breaks_the_grid(self, tmp_path, capsys, norm):
        f = tmp_path / "F.json"
        save_bi_json(BivariateCDF([0.5, 1.0, 2.0], [0.25, 1.0],
                                  [[0.2, 0.3], [0.4, 0.6], [0.5, 1.0]]), f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy warning would raise here
            assert main(["stability", str(f), "2", *norm]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "a, b, c" in captured.err

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

    @pytest.mark.parametrize("shift, plain", [("-1e-3", "-0.001"), ("-1E-3", "-0.001"),
                                              ("-.5e0", "-0.5")])
    def test_negative_shift_with_an_exponent(self, product_bi, capsys, shift, plain):
        assert main(["stability", product_bi, "2", "1", plain, "1", plain]) == 0
        expected = capsys.readouterr()
        assert main(["stability", product_bi, "2", "1", shift, "1", shift]) == 0
        assert capsys.readouterr() == expected

    def test_negative_scale_with_an_exponent(self, product_bi, capsys):
        assert main(["stability", product_bi, "2", "-1e0", "0", "1", "0"]) == 1
        assert capsys.readouterr().err == "error: scales a and c must be positive\n"

    def test_tol_after_negative_positionals(self):
        args = build_parser().parse_args(
            ["stability", "F.json", "2", "1", "-2e-1", "1", "-1e-3", "--tol", "1e-3"])
        assert (args.b, args.d, args.tol) == (-0.2, -0.001, 1e-3)

    def test_unknown_option_still_rejected(self, product_bi, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stability", product_bi, "2", "1", "0", "1", "-x"])
        assert exc.value.code == 2
        assert "required: d" in capsys.readouterr().err

    def test_negative_non_number_names_the_argument(self, product_bi, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stability", product_bi, "2", "1", "0", "1", "-1x"])
        assert exc.value.code == 2
        assert "argument d: invalid float value: '-1x'" in capsys.readouterr().err


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

    def test_nan_joint_trace_names_r(self, capsys):
        assert main(["oracle", "0.6", "0.7", "nan", "0.8", "0.5", "0.45"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: r = nan ") and captured.err.count("\n") == 1

    def test_negative_trace_with_an_exponent(self, capsys):
        assert main(["oracle", "-1e-3", "0.7", "0.5", "0.8", "0.5", "0.45"]) == 1
        assert capsys.readouterr().err == "error: p must lie in [0, 1], got -0.001\n"

    def test_spread_above_tolerance_exit_1(self, capsys):
        """The routes differ by rounding: with --tol 0 that spread fails, after
        all four lines are printed."""
        assert main(["oracle", "0.6", "0.7", "0.5", "0.8", "0.5", "0.45", "--tol", "0"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 4 and float(lines[-1].split()[-1]) > 0.0
        assert captured.err == "spread above tolerance 0.0\n"

    def test_unstable_limit_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle_module, "EPS_LIM", 0.0)
        assert main(["oracle", "0.6", "0.7", "0.5", "0.8", "0.5", "0.45"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: wedge moment ladder not stable within 0.0; "
                                       "evaluation trace: [")
        assert captured.err.count("\n") == 1


#: argv of each subcommand that takes --tol; argparse checks it before any file is read.
TOL_ARGV = {"validate": ["validate", "F.json", "--kind", "bi"],
            "uniconv": ["uniconv", "F.json", "G.json", "--out", "H.json"],
            "biconv": ["biconv", "F.json", "G.json", "--out", "H.json"],
            "nfold": ["nfold", "F.json", "2", "--out", "H.json"],
            "root": ["root", "F.json", "2", "--out", "H.json"],
            "stability": ["stability", "F.json", "2", "1", "0", "1", "0"],
            "oracle": ["oracle", "0.6", "0.7", "0.5", "0.8", "0.5", "0.45"],
            "plotdata": ["plotdata", "F.json", "--out", "H.tsv"]}


def test_tol_subcommands_are_all_listed():
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert {name for name, p in commands.items()
            if "--tol" in p._option_string_actions} == set(TOL_ARGV)


@pytest.mark.parametrize("command", TOL_ARGV)
def test_tol_takes_finite_non_negative_numbers(command):
    for tol, value in [("0", 0.0), ("-0.0", 0.0), ("1e-300", 1e-300), ("0.5", 0.5)]:
        assert build_parser().parse_args([*TOL_ARGV[command], f"--tol={tol}"]).tol == value


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "x"])
@pytest.mark.parametrize("command", TOL_ARGV)
def test_tol_must_be_finite_and_non_negative(tmp_path, monkeypatch, capsys, command, tol):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*TOL_ARGV[command], f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in err
    assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("line, reason", [
        ("0 0", "expected 'x<TAB>y'"),
        ("0\t1\t2", "expected 'x<TAB>y'"),
        ("0\tx", "could not convert string to float: 'x'"),
    ], ids=["no-tab", "three-fields", "not-a-number"])
    def test_malformed_sample_line_exit_2(self, tmp_path, capsys, line, reason):
        samples = tmp_path / "s.tsv"
        samples.write_text(f"# x y\n0\t0\n{line}\n")
        assert main(["ecdf", str(samples), "--out", str(tmp_path / "e.json")]) == 2
        assert capsys.readouterr().err == f"error: {samples}:3: {reason}\n"
        assert not (tmp_path / "e.json").exists()

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


def test_the_process_exits_with_the_code_of_main(tmp_path):
    """``python -m bifreemax.cli`` exits 0 on a valid grid, 1 with its
    violations on an invalid one and 2 with an error on a malformed one."""
    path = tmp_path / "F.json"
    outcomes = []
    for cdf in ("[[0.3, 0.6], [0.5, 1.0]]", "[[0.7, 0.6], [0.5, 1.0]]", "[[0.3, 0.6], [0.5]]"):
        path.write_text('{"x_breaks": [0, 1], "y_breaks": [0, 1], "cdf": ' + cdf + "}")
        done = fresh_run(["-m", "bifreemax.cli", "validate", str(path), "--kind", "bi"])
        outcomes.append((done.returncode, done.stdout.split("\n")[0], done.stderr[:7]))
    assert outcomes == [(0, "OK", ""), (1, "monotonicity violation along x at (1,0)", ""),
                        (2, "", "error: ")]


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


def test_submodule_loads_through_the_package(monkeypatch):
    """A submodule that is not yet an attribute of the package is imported on first use."""
    monkeypatch.delattr(bifreemax, "cdf")
    assert bifreemax.cdf is cdf_module
