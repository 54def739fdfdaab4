"""The `python -m repro` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_names_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(EXPERIMENTS)


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Benchmarks of PC-RT and Mach" in out
    assert "19.1" in out


def test_contention_with_trials(capsys):
    assert main(["contention", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "unoptimized" in out


def test_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_module_invocation_end_to_end():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "table1"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "Table 1" in result.stdout
