"""Unit tests for the benchmark reporting helpers."""

import pytest

from repro.bench.reporting import (
    format_cell,
    format_seconds,
    print_table,
    render_table,
    rows_from_dicts,
)


class TestFormatters:
    def test_format_seconds_ranges(self):
        assert format_seconds(0) == "0"
        assert format_seconds(5e-7) == "0.5us"
        assert format_seconds(2.5e-3) == "2.50ms"
        assert format_seconds(1.5) == "1.500s"

    def test_format_cell(self):
        assert format_cell(1.23456) == "1.23"
        assert format_cell(42) == "42"
        assert format_cell("x") == "x"


class TestRenderTable:
    def test_alignment(self):
        text = render_table("T", ["a", "long header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows aligned

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="row width"):
            render_table("T", ["a", "b"], [[1]])

    def test_empty_rows(self):
        text = render_table("T", ["a"], [])
        assert "a" in text

    def test_print_table(self, capsys):
        print_table("T", ["col"], [["val"]])
        out = capsys.readouterr().out
        assert "== T ==" in out
        assert "val" in out


class TestRowsFromDicts:
    def test_projection(self):
        rows = rows_from_dicts(
            [{"a": 1, "b": 2}, {"a": 3}], keys=["a", "b"]
        )
        assert rows == [[1, 2], [3, ""]]
