"""Tests for the Figure 5 ASCII chart."""

import pytest

from repro.experiments import figure5 as f5_mod


@pytest.fixture(scope="module")
def figure5():
    return f5_mod.EXPERIMENT.run_serial(queries=8, seed=42)


class TestFigure5Chart:
    def test_one_bar_per_deployment(self, figure5):
        chart = figure5.render_chart()
        assert chart.count(" ms") == 6

    def test_wireless_and_resolver_segments(self, figure5):
        chart = figure5.render_chart()
        assert "=" in chart and "#" in chart
        # The MEC bar is wireless-dominated: its line has more '=' than '#'.
        mec_line = next(line for line in chart.splitlines()
                        if line.startswith("MEC L-DNS w/ MEC C-DNS"))
        assert mec_line.count("=") > mec_line.count("#")

    def test_longest_bar_is_cloudflare(self, figure5):
        chart = figure5.render_chart()
        lengths = {line.split()[0]: line.count("=") + line.count("#")
                   for line in chart.splitlines() if " ms" in line}
        assert max(lengths, key=lengths.get) == "Cloudflare"

    def test_width_respected(self, figure5):
        for line in figure5.render_chart().splitlines():
            if " ms" in line:
                bar = line[len("MEC L-DNS w/ MEC C-DNS "):-len(" 999.9 ms")]
                assert len(bar) <= f5_mod.CHART_WIDTH + 2

