"""Tests for the analysis layer: context memoization, report tables,
and a smoke pass over a couple of figure runners on tiny inputs."""

import pytest

from repro.analysis import ExperimentContext, format_series, format_table, geomean
from repro.analysis.experiments import run_fig1, run_fig4, run_fig9, run_fig16
from repro.config import scaled_config


@pytest.fixture(scope="module")
def tiny_ctx():
    return ExperimentContext(
        config=scaled_config(num_sms=2, window_cycles=800),
        scale=0.15,
        apps=("S2", "LI"),
    )


class TestGeomean:
    def test_simple(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_identity(self):
        assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0


class TestFormatting:
    def test_table_contains_rows_and_columns(self):
        text = format_table("T", {"a": {"x": 1.0, "y": 2.0}}, columns=("x", "y"))
        assert "== T ==" in text
        assert "a" in text and "1.000" in text and "2.000" in text

    def test_table_empty(self):
        assert "(no data)" in format_table("T", {})

    def test_table_missing_cell_is_nan(self):
        text = format_table("T", {"a": {"x": 1.0}}, columns=("x", "z"))
        assert "nan" in text

    def test_series(self):
        text = format_series("S", {"k": 1.5, "n": 3})
        assert "1.500" in text and "3" in text


class TestContext:
    def test_baseline_memoized(self, tiny_ctx):
        first = tiny_ctx.run("S2", "baseline")
        second = tiny_ctx.run("S2", "baseline")
        assert first is second

    def test_kernel_memoized(self, tiny_ctx):
        assert tiny_ctx.kernel("S2") is tiny_ctx.kernel("S2")

    def test_linebacker_distinct_from_baseline(self, tiny_ctx):
        assert tiny_ctx.run("S2", "linebacker") is not tiny_ctx.run("S2", "baseline")

    def test_ablation_configs_memoized_separately(self, tiny_ctx):
        vc = tiny_ctx.run("S2", "victim_caching")
        svc = tiny_ctx.run("S2", "selective_victim_caching")
        assert vc is not svc


    def test_default_overrides_drop_where_the_architecture_refuses(self):
        """`run --timeseries --backend vector` folds both into every
        spec an architecture can honour and into no other, so a figure
        sweep neither fails nor moves the keys of the rest."""
        ctx = ExperimentContext(
            apps=("S2",), default_overrides={"timeseries": True, "backend": "vector"}
        )
        assert ctx.spec("S2", "baseline").overrides == {
            "timeseries": True, "backend": "vector",
        }
        assert ctx.spec("S2", "best_swl").overrides == {"backend": "vector"}
        assert ctx.spec("S2", "ccws", track_loads=True).overrides == {
            "timeseries": True, "backend": "vector", "track_loads": True,
        }
        # Explicit overrides are never dropped: they are refused.
        with pytest.raises(ValueError, match="'best_swl'.*'timeseries'"):
            ctx.spec("S2", "best_swl", timeseries=True)


class TestFigureRunnersSmoke:
    def test_fig1_shape(self, tiny_ctx):
        data = run_fig1(tiny_ctx)
        assert set(data) == {"S2", "LI"}
        for row in data.values():
            assert 0.0 <= row["total"] <= 1.0
            assert row["total"] == pytest.approx(
                row["cold"] + row["capacity_conflict"]
            )

    def test_fig4_shape(self, tiny_ctx):
        data = run_fig4(tiny_ctx)
        for row in data.values():
            assert row["sur_kb"] >= 0
            assert row["dur_kb"] >= 0
            assert row["swl_limit"] >= 1

    def test_fig9_reports_monitoring_periods(self, tiny_ctx):
        data = run_fig9(tiny_ctx)
        assert all(row["monitoring_periods"] >= 0 for row in data.values())

    def test_fig16_normalized_positive(self, tiny_ctx):
        data = run_fig16(tiny_ctx)
        for app in ("S2", "LI"):
            assert data[app]["cerf"] >= 0
            assert data[app]["linebacker"] >= 0
