"""The table scripts under ``scripts/`` run end to end at two replicates."""

import importlib.util
from pathlib import Path

import pytest

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
