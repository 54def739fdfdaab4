"""python -m repro.obs: exit codes, report output, trace export."""

import hashlib
import json

import pytest

from repro.obs.__main__ import build_parser, main


def test_stock_scenario_passes_and_prints_table(capsys):
    assert main(["update-1sub", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "critical-path breakdown" in out
    assert "static prediction" in out
    assert "self-checks:" in out and "FAIL" not in out
    assert "bottleneck:" in out


def test_default_scenario_is_stock_update(capsys):
    args = build_parser().parse_args([])
    assert args.scenario == "update-1sub"
    assert args.keep == "spans"


def test_local_scenarios_pass(capsys):
    assert main(["local-update", "--trials", "3"]) == 0
    assert main(["local-read", "--trials", "3"]) == 0


def test_count_only_mode(capsys):
    assert main(["update-1sub", "--trials", "3", "--keep", "counts"]) == 0
    out = capsys.readouterr().out
    assert "count-only" in out
    assert "log.force" in out
    assert "spans balanced: ok" in out
    # Count mode prints no attribution table.
    assert "critical-path breakdown" not in out


def test_trace_export(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["update-1sub", "--trials", "2",
                 "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert doc["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"X", "M"} <= phases
    assert "wrote" in capsys.readouterr().out


def test_figure4_names_logger_bottleneck(capsys):
    assert main(["figure4"]) == 0
    out = capsys.readouterr().out
    assert "bottleneck: a.logdisk" in out
    assert "logger saturated: ok" in out


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["no-such-scenario"])
    assert err.value.code == 2


# sha256 of what ``python -m repro.obs`` prints, and of the trace file it
# writes.  The instrument may be restructured; its output may not move.
PINNED_STDOUT = {
    ("update-1sub", "--trials", "5"):
        "2b19ca786f6122671b555bfdf27ae5bf53f4d7f0da4eae811bc44b47d28f0fc2",
    ("update-1sub", "--trials", "3"):
        "2242c8bf0250d1a170d711ac55ed90a0ad0cd1b17af7cd9fe702500735e20d86",
    ("local-update", "--trials", "5"):
        "97dc581e7944deeb7d003aac1af31c633122f641c769dbadfcb8ee419e21f2ef",
    ("local-update", "--trials", "3"):
        "0de7047315d4a031480192caafd7394b594fcbdb2f7f260aa1c3cfda56f0a995",
    ("local-read", "--trials", "5"):
        "fd90a30eab11ad1a5f508dbc84893b955a8de3ee692352e0e1ddcd821588fc4a",
    ("local-read", "--trials", "3"):
        "f1a7d55baa636c8396aa05758e5104e650b29cbd0c45d9aaba5c7639943ee30c",
    ("nb-update-1sub", "--trials", "5"):
        "2d526408f46418b63f3c12220ab242f6d80e212a98afc84a5a60685ccc6c123b",
    ("nb-update-1sub", "--trials", "3"):
        "f7daaac1f877eedf2ed9617fa2ebbeebcc3c6b9d52acad00ab63aa2f734df9b9",
    ("paxos-update-1sub", "--trials", "5"):
        "e3ab93dc896c046253e4d244f3cb578227b0b2055ce1a6aeaf38b4c0e6009b62",
    ("paxos-update-1sub", "--trials", "3"):
        "2475b6817230ad0a32765e793619d14a1f482d75310530fe284fd550268a2ca7",
    ("update-1sub", "--keep", "counts"):
        "79eb037eef449a815e8e8731bfd5a339282788e500b7131e072882ab177f6d3f",
    ("figure4",):
        "02ed385e5695c5f9d4cd8d11aa2536b69b76c326b5f0d3a61c6b1121e3ecdf51",
}
PINNED_TRACE = \
    "74ffaa68dbab7e0324e608ff726a21536b3caa6095c9058c702d90fbeb8ea3be"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_output_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == PINNED_STDOUT[argv], out


def test_trace_file_is_pinned(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["update-1sub", "--trace", str(trace)]) == 0
    assert _sha256(trace.read_bytes()) == PINNED_TRACE
