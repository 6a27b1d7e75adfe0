"""The scripts under ``scripts/`` run end to end at a tiny size."""

import csv
import importlib.util
from pathlib import Path

import pytest

from survcart.simlab import TreeRecoveryDesign, generate_tree_data, replicate_rng

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rows", [
    # one row per censoring rate, per power scenario, or per config
    ("run_size_table", ["--reps", "2"], ["10%", "25%", "40%", "60%"]),
    ("run_power_table", ["--reps", "2"], ["#1", "#2", "#3", "#4"]),
    ("run_tree_recovery", ["--reps", "2", "--weibull"],
     ["config exponential/exponential", "config exponential/na",
      "config weibull/exponential", "config weibull/na"]),
])
def test_script_main_prints_its_table(capsys, name, argv, rows):
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    for row in rows:
        assert sum(line.lstrip().startswith(row) for line in lines) == 1
    assert lines[-1].startswith("elapsed ")


@pytest.mark.parametrize("chunk_rows", [3, 100_000])
def test_write_design_csv_writes_the_design_rows(tmp_path, monkeypatch,
                                                 chunk_rows):
    # three-row chunks split the eight rows 3 + 3 + 2 and write the
    # same file as one chunk; ids run on across the chunks
    script = load_script("write_design_csv")
    monkeypatch.setattr(script, "CHUNK_ROWS", chunk_rows)
    out = tmp_path / "design.csv"
    argv = [str(out), "--n-per-subgroup", "2", "--time-scale", "1e300", "--id"]
    assert script.main(argv) == 0
    data, _ = generate_tree_data(TreeRecoveryDesign(n_per_subgroup=2),
                                 replicate_rng(1, 0))
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["id", "time", "status", "X1", "X2", "X3", "X4", "X5", "X6"]
    assert [row[0] for row in rows] == [str(i) for i in range(1, 9)]
    assert [float(row[1]) for row in rows] == (data.times * 1e300).tolist()
    assert [row[2] for row in rows] == [str(int(e)) for e in data.events]
    for column, name in enumerate(header[3:], start=3):
        assert [row[column] for row in rows] == [
            str(v) for v in data.covariate(name).tolist()]
    plain = tmp_path / "plain.csv"
    assert script.main([str(plain), "--n-per-subgroup", "2"]) == 0
    with open(plain, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header[:2] == ["time", "status"] and len(rows) == 8
    assert [float(row[0]) for row in rows] == data.times.tolist()
