"""Tests of the benchmark itself, at smoke size.  No timing is asserted."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import verify

HERE = Path(__file__).resolve().parent


def bench(*args, cwd=run.ROOT):
    p = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                       cwd=cwd, capture_output=True, text=True, timeout=170)
    return p


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    # a traced run replays in-process the calls of a 30 s run, every kind of
    # call in every workload, and repeats them at most MAX_TRACE_UNITS times
    seconds = "30" if trace == "1" else "1"
    p = bench("--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", trace,
              "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    rows = {l.split()[0]: l.split()[1:] for l in p.stdout.splitlines() if l.startswith("  ")}
    for name, unit in names.items():
        assert rows[name][-1] == unit
    assert '"src_lines"' in p.stdout
    if trace == "0":
        assert "fail_ratio" in p.stdout
    elif workload == "small-cli":
        assert all(m["value"] > 0 for k, m in result["metrics"].items()
                   if k.endswith(".busy_s")), "small-cli runs every layer"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "small-cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0
    assert "{" not in p.stdout


def test_setup_is_a_function_of_the_seed(tmp_path):
    def files(seed, name):
        inputs.setup("ingest-diagnose", seed, tmp_path / name, "smoke")
        return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

    first = files(5, "a")
    assert first == files(5, "b")
    assert first != files(6, "c")


@pytest.fixture
def small(tmp_path):
    heavy, block = inputs.setup("small-cli", 1, tmp_path / "in", "smoke")
    return tmp_path / "in", {op.label: op for op in heavy + block}


def cli_call(d, op, out, capsys, monkeypatch):
    from bifreemax.cli import main

    monkeypatch.chdir(d)
    rc = main(op.argv(out))
    return rc, capsys.readouterr().out


def test_checks_catch_a_wrong_biconv_marginal(small, capsys, monkeypatch):
    d, ops = small
    out = d / "h.json"
    rc, stdout = cli_call(d, ops["biconv"], out, capsys, monkeypatch)
    assert verify.check(ops["biconv"], rc, d, out, stdout) is None
    data = json.loads(out.read_text())
    data["cdf"][-1][-2] = max(0.0, data["cdf"][-1][-2] - 1e-3)
    out.write_text(json.dumps(data))
    assert verify.check(ops["biconv"], rc, d, out, stdout) is not None
    assert verify.check(ops["biconv"], 1, d, out, stdout).startswith("exit code")


def test_checks_catch_a_wrong_oracle_value(small, capsys, monkeypatch):
    d, ops = small
    op = ops["oracle"]
    rc, stdout = cli_call(d, op, d / "unused", capsys, monkeypatch)
    assert verify.check(op, rc, d, None, stdout) is None
    closed = stdout.splitlines()[0].split()[-1]
    wrong = stdout.replace(closed, repr(float(closed) + 1e-9), 1)
    assert verify.check(op, rc, d, None, wrong) is not None


def test_checks_catch_a_root_that_does_not_recover_the_input(small, capsys, monkeypatch):
    d, ops = small
    op = ops["root-divisible"]
    out = d / "r.json"
    rc, stdout = cli_call(d, op, out, capsys, monkeypatch)
    assert verify.check(op, rc, d, out, stdout) is None
    shutil.copy(d / ops["validate"].meta["path"], out)
    assert verify.check(op, rc, d, out, stdout) is not None


def test_tail_leaves_ten_calls_beyond_it():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
