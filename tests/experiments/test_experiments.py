"""Tests for the paper-artifact experiment modules.

These run the experiments at reduced trial counts (shape checks are
margin-based, so they still hold) and verify both the structured results
and the rendered output.
"""

import pytest

from repro.experiments import ecs as ecs_mod
from repro.experiments import figure2 as f2_mod
from repro.experiments import figure3 as f3_mod
from repro.experiments import figure5 as f5_mod
from repro.experiments import table1, table2
from repro.experiments.report import format_bar, format_table


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [("1", "2")])

    def test_format_table_title(self):
        text = format_table(["a"], [("1",)], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_bar(self):
        assert format_bar(0.5, width=10) == "#####....."
        assert format_bar(0.0, width=4) == "...."
        assert format_bar(1.5, width=4) == "####"  # clamped


class TestTable1:
    def test_five_rows_with_paper_domains(self):
        result = table1.EXPERIMENT.run_serial()
        assert len(result.rows) == 5
        assert {row.site: row.domain for row in result.rows} == {
            "Airbnb": "a0.muscache.com",
            "Booking.com": "q-cf.bstatic.com",
            "TripAdvisor": "static.tacdn.com",
            "Agoda": "cdn0.agoda.net",
            "Expedia": "a.cdn.intentmedia.net",
        }

    def test_render(self):
        text = table1.EXPERIMENT.run_serial().render()
        assert "Airbnb" in text
        assert "cdn0.agoda.net" in text


class TestTable2:
    def test_seven_roles(self):
        result = table2.EXPERIMENT.run_serial()
        assert len(result.rows) == 7
        assert {row.entity for row in result.rows} == {
            "Cellular Providers", "CDN Providers", "DNS Provider",
            "Web Provider", "Cloud Provider", "CDN Brokers", "MEC Provider",
        }

    def test_multi_role_entities_consistent(self):
        result = table2.EXPERIMENT.run_serial()
        assert "Verizon" in result.multi_role
        assert "Cellular Providers" in result.multi_role["Verizon"]

    def test_render_includes_module_mapping(self):
        text = table2.EXPERIMENT.run_serial().render()
        assert "repro.cdn.broker" in text
        assert "Verizon" in text


@pytest.fixture(scope="module")
def figure2_result():
    return f2_mod.EXPERIMENT.run_serial(trials=14, seed=5)


class TestFigure2:
    def test_fifteen_bars(self, figure2_result):
        assert len(figure2_result.rows) == 15  # 5 domains x 3 networks

    def test_shape_claims_hold(self, figure2_result):
        assert f2_mod.EXPERIMENT.check_shape(figure2_result) == []

    def test_minimum_twelve_tests(self, figure2_result):
        assert all(row.stats.count >= 12 for row in figure2_result.rows)

    def test_render(self, figure2_result):
        text = figure2_result.render()
        assert "cellular-mobile" in text
        assert "Figure 2" in text

    def test_bars_accessor(self, figure2_result):
        bars = figure2_result.bars()
        assert ("Airbnb", "wired-campus") in bars


@pytest.fixture(scope="module")
def figure3_result():
    return f3_mod.EXPERIMENT.run_serial(trials=30, seed=5)


class TestFigure3:
    def test_shape_claims_hold(self, figure3_result):
        assert f3_mod.EXPERIMENT.check_shape(figure3_result) == []

    def test_answers_only_from_deployment_pools(self, figure3_result):
        assert all(row.unmatched == 0 for row in figure3_result.rows)

    def test_multi_provider_domains_spread(self, figure3_result):
        distribution = figure3_result.distribution_for(
            "TripAdvisor", "cellular-mobile")
        providers = {label.split(" (")[0] for label in distribution}
        assert len(providers) >= 2

    def test_render(self, figure3_result):
        text = figure3_result.render()
        assert "Akamai (23.55.124.0/24)" in text
        assert "%" in text


@pytest.fixture(scope="module")
def figure5_result():
    return f5_mod.EXPERIMENT.run_serial(queries=20, seed=42)


class TestFigure5:
    def test_six_bars_in_paper_order(self, figure5_result):
        assert [row.key for row in figure5_result.rows] == list(
            f5_mod.DEPLOYMENT_KEYS)

    def test_shape_claims_hold(self, figure5_result):
        assert f5_mod.EXPERIMENT.check_shape(figure5_result) == []

    def test_shape_claims_hold_at_every_seed(self):
        # Calibration must not hold only at the seed EXPERIMENTS.md used.
        mec_means = []
        for seed in (1, 7, 42, 1234, 98765):
            result = f5_mod.EXPERIMENT.run_serial(queries=15, seed=seed)
            assert f5_mod.EXPERIMENT.check_shape(result) == [], f"seed {seed}"
            mec_means.append(result.means()["mec-ldns-mec-cdns"])
        # The headline bar moves by well under 15% across seeds.
        assert max(mec_means) - min(mec_means) < \
            0.15 * sum(mec_means) / len(mec_means)

    def test_means_near_paper_values(self, figure5_result):
        # Calibration check: within 20% of every published mean.
        for row in figure5_result.rows:
            assert row.latency.mean == pytest.approx(row.paper_mean, rel=0.2)

    def test_render_shows_paper_column(self, figure5_result):
        text = figure5_result.render()
        assert "paper ms" in text
        assert "MEC L-DNS w/ MEC C-DNS" in text

    def test_row_lookup(self, figure5_result):
        assert figure5_result.row("lan-ldns").label == "LAN L-DNS"
        with pytest.raises(KeyError):
            figure5_result.row("nope")


class TestEcs:
    def test_ratios_and_correctness(self):
        result = ecs_mod.EXPERIMENT.run_serial(queries=15, seed=42)
        assert ecs_mod.EXPERIMENT.check_shape(result) == []
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.always_correct_cache

    def test_render(self):
        result = ecs_mod.EXPERIMENT.run_serial(queries=10, seed=1)
        text = result.render()
        assert "ratio" in text
        assert "correct cache" in text
