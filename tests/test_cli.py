"""The `python -m repro` command-line interface."""

import hashlib
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


# sha256 of what ``python -m repro all`` prints: every table and figure,
# the static analysis (Table 2, §4.1, Table 3) and the TM-only series of
# Figures 2-3 included.  A refactor may not move a printed number.
PINNED_ALL = "b6e55120757b45dfd71984dda1efd8208ff3434fec14270253de3f53da6eeb67"


def test_all_output_is_pinned():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "all"],
        capture_output=True, timeout=300)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == PINNED_ALL
