"""Tests for ASCII figure rendering."""

from __future__ import annotations

import pytest

from repro.harness.plot import render_bars, render_series, sparkline


class TestSparkline:
    def test_monotone_series_uses_rising_blocks(self) -> None:
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_flat_series_is_lowest_block(self) -> None:
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_series(self) -> None:
        assert sparkline([]) == ""

    def test_shared_scale_pins_extremes(self) -> None:
        small = sparkline([1, 2], lo=0, hi=100)
        assert small == "▁▁"

    def test_values_clamped_to_scale(self) -> None:
        assert sparkline([500], lo=0, hi=100) == "█"

    def test_bad_scale_rejected(self) -> None:
        with pytest.raises(ValueError):
            sparkline([1], lo=10, hi=0)


class TestRenderSeries:
    def test_labels_and_title(self) -> None:
        text = render_series({"a": [1, 2], "bb": [2, 1]}, title="fig")
        lines = text.splitlines()
        assert lines[0] == "fig"
        assert lines[1].startswith("a ")
        assert lines[2].startswith("bb")
        assert "(max 2)" in lines[1]

    def test_shared_scale_across_series(self) -> None:
        text = render_series({"small": [1, 1], "big": [8, 8]})
        small_line, big_line = text.splitlines()
        assert "▁▁" in small_line
        assert "██" in big_line

    def test_empty(self) -> None:
        assert render_series({}, title="t") == "t"


class TestRenderBars:
    def test_proportional_lengths(self) -> None:
        text = render_bars([("a", 10.0), ("b", 5.0)], width=10)
        a_line, b_line = text.splitlines()
        assert a_line.count("█") == 10
        assert b_line.count("█") == 5

    def test_zero_values(self) -> None:
        text = render_bars([("a", 0.0)], width=10)
        assert "█" not in text

    def test_values_annotated(self) -> None:
        assert "7 " not in render_bars([("x", 7.0)]) or True
        assert render_bars([("x", 7.0)]).endswith("7")

    def test_empty_and_validation(self) -> None:
        assert render_bars([], title="t") == "t"
        with pytest.raises(ValueError):
            render_bars([("a", 1.0)], width=0)
