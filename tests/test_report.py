"""Unit tests for table/figure rendering."""

from repro.analysis.primitives import PrimitiveRow, table1_rows
from repro.analysis.static_analysis import local_completion
from repro.analysis.stats import summarize
from repro.bench.figures import MulticastComparison, RpcBreakdown
from repro.bench.report import (
    render_multicast,
    render_primitive_table,
    render_rpc_breakdown,
    render_static_path,
    render_table,
)


def test_render_table_aligns_columns():
    text = render_table("T", ["A", "LONG HEADER"],
                        [("x", "1"), ("longer-cell", "2")])
    lines = text.splitlines()
    assert lines[0] == "T"
    header, rule, row1, row2 = lines[2:6]
    assert header.index("LONG HEADER") == row1.index("1")
    assert len(set(len(l.rstrip()) for l in (header,))) == 1


def test_render_table_stringifies_cells():
    text = render_table("T", ["N"], [(42,)])
    assert "42" in text


def test_render_primitive_table():
    text = render_primitive_table("Table 1", table1_rows())
    assert "Procedure call" in text
    assert "us" in text and "ms" in text


def test_primitive_row_formatting():
    assert "us" in PrimitiveRow("x", 12.0, "us").formatted()
    assert "ms" in PrimitiveRow("x", 1.5, "ms").formatted()


def test_render_rpc_breakdown_includes_measured_row():
    result = RpcBreakdown(measured_mean_ms=29.0, measured_n=100,
                          components=[PrimitiveRow("Total Camelot RPC",
                                                   28.5, "ms")])
    text = render_rpc_breakdown(result)
    assert "Measured (mean of 100 RPCs)" in text
    assert "29.0" in text


def test_render_multicast_reports_reduction():
    comparison = MulticastComparison(
        unicast=summarize([100.0, 120.0, 80.0]),
        multicast=summarize([99.0, 101.0, 100.0]))
    text = render_multicast(comparison)
    assert "stddev reduction" in text
    assert comparison.variance_reduction > 0.9


def test_multicast_reduction_of_a_spread_free_unicast_is_zero():
    flat = summarize([100.0, 100.0, 100.0])
    assert flat.stdev == 0.0
    assert MulticastComparison(
        unicast=flat, multicast=summarize([90.0, 110.0])
    ).variance_reduction == 0.0


def test_render_static_path_is_one_line_per_row():
    path = local_completion("write")
    assert render_static_path(path).splitlines() == path.rows()
