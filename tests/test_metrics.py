"""Tests for the declarative metrics core (``repro.metrics``).

Three layers: the registry's generated ``__slots__`` storage classes,
the windowed timeseries containers, and the end-to-end path a recorded
series travels — simulator → snapshot → wire protocol → result cache —
which must be bit-identical at every hop. Plus the overhead contract:
with timeseries off, results are fingerprint-identical to a recording
run, so recording can never perturb simulation semantics.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.core.linebacker import linebacker_factory
from repro.gpu import run_kernel
from repro.gpu.stats import SM_STATS, SMStats
from repro.metrics import (
    DEFAULT_WINDOW_CAPACITY,
    Metric,
    MetricSet,
    TIMESERIES_VERSION,
    WindowRecorder,
    WindowSeries,
    fingerprint_metric_names,
    metric_set,
    metric_sets,
)
from repro.options import RunOptions
from repro.runner.cache import MISS, ResultCache
from repro.runner.wire import decode_result, encode_result
from repro.workloads.suite import kernel_for

sys.path.insert(0, str(Path(__file__).parent))
from golden import result_fingerprint  # noqa: E402


# ---------------------------------------------------------------------------
# Registry: declarations generate the storage classes.
# ---------------------------------------------------------------------------
class TestMetricSet:
    def test_generated_class_has_defaults_and_kwargs_init(self):
        ms = MetricSet(
            "TmGenerated", owner="tests",
            metrics=(Metric("alpha"), Metric("beta")),
        )
        cls = ms.build()
        obj = cls(alpha=3)
        assert obj.alpha == 3
        assert obj.beta == 0

    def test_generated_class_is_slotted(self):
        cls = MetricSet(
            "TmSlotted", owner="tests", metrics=(Metric("alpha"),)
        ).build()
        obj = cls()
        with pytest.raises(AttributeError):
            obj.typo_field = 1

    def test_subclass_keeps_dataclass_machinery(self):
        """The production idiom: ``class X(SET.build()): __slots__ = ()``
        must pickle by reference and support ``dataclasses.replace``."""
        s = SMStats(instructions=500, cycles=250)
        assert dataclasses.is_dataclass(s)
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert type(clone) is SMStats
        bumped = dataclasses.replace(s, instructions=501)
        assert bumped.instructions == 501
        assert bumped.cycles == 250
        assert repr(s).startswith("SMStats(")

    def test_counter_names_exclude_gauges(self):
        assert "cycles" not in SM_STATS.counter_names()
        assert "instructions" in SM_STATS.counter_names()
        assert "cycles" in SM_STATS.names()

    def test_fingerprint_names(self):
        assert set(SM_STATS.fingerprint_names()) >= {
            "instructions", "cycles", "victim_hits"
        }
        assert "victim_hits" in fingerprint_metric_names()

    def test_registry_lookup(self):
        assert metric_set("SMStats") is SM_STATS
        assert SM_STATS in metric_sets()

    def test_identical_redeclaration_is_a_noop(self):
        spec = dict(
            class_name="TmRedeclared", owner="tests",
            metrics=(Metric("alpha"),),
        )
        MetricSet(**spec)
        MetricSet(**spec)  # same data: no conflict

    def test_conflicting_redeclaration_raises(self):
        MetricSet("TmConflict", owner="tests", metrics=(Metric("alpha"),))
        with pytest.raises(ValueError, match="conflicting"):
            MetricSet("TmConflict", owner="tests", metrics=(Metric("beta"),))

    @pytest.mark.parametrize(
        "metric,match",
        [
            (Metric("not an ident"), "not a valid attribute"),
            (Metric("class"), "not a valid attribute"),
            (Metric("_hidden"), "underscore"),
            (Metric("alpha", kind="histogram"), "unknown kind"),
        ],
    )
    def test_bad_metric_declarations_raise(self, metric, match):
        with pytest.raises(ValueError, match=match):
            MetricSet("TmBad", owner="tests", metrics=(metric,))

    def test_duplicate_metric_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            MetricSet(
                "TmDup", owner="tests",
                metrics=(Metric("alpha"), Metric("alpha")),
            )


# ---------------------------------------------------------------------------
# WindowSeries: the bounded ring and its payload form.
# ---------------------------------------------------------------------------
class TestWindowSeries:
    def test_ring_sheds_oldest_and_counts_dropped(self):
        series = WindowSeries(100, capacity=3)
        for i in range(5):
            series.append({"cycle": (i + 1) * 100})
        assert len(series) == 3
        assert [row["cycle"] for row in series] == [300, 400, 500]
        assert series.dropped == 2

    def test_payload_round_trip(self):
        series = WindowSeries(2000, capacity=8)
        series.append({"cycle": 2000, "ipc": 1.5, "vp_hits": [1, 2]})
        clone = WindowSeries.from_payload(series.to_payload())
        assert clone == series
        assert clone.version == TIMESERIES_VERSION
        assert list(clone)[0]["vp_hits"] == [1, 2]

    def test_payload_rows_are_copies(self):
        series = WindowSeries(100)
        series.append({"cycle": 100})
        payload = series.to_payload()
        payload["rows"][0]["cycle"] = 999
        assert list(series)[0]["cycle"] == 100

    def test_eq_and_unhashable(self):
        a, b = WindowSeries(100), WindowSeries(100)
        assert a == b
        b.append({"cycle": 100})
        assert a != b
        assert a != "not a series"
        with pytest.raises(TypeError):
            hash(a)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSeries(0)
        with pytest.raises(ValueError):
            WindowSeries(100, capacity=0)

    def test_default_capacity(self):
        assert WindowSeries(100).capacity == DEFAULT_WINDOW_CAPACITY


class TestWindowRecorder:
    def test_deltas_fold_cumulative_counters(self):
        rec = WindowRecorder(100, ("instructions", "loads"))
        stats = SMStats(instructions=150, loads=10)
        rec.capture(100, stats, active=4, inactive=2)
        stats.instructions, stats.loads = 390, 15
        rec.capture(200, stats, active=3, inactive=3)
        rows = list(rec.series)
        assert [r["instructions"] for r in rows] == [150, 240]
        assert [r["loads"] for r in rows] == [10, 5]
        assert [r["ipc"] for r in rows] == [1.5, 2.4]
        assert rows[1]["active"] == 3 and rows[1]["inactive"] == 3

    def test_extra_keys_merge_into_the_row(self):
        rec = WindowRecorder(100, ())
        rec.capture(100, SMStats(), 0, 0, extra={"vps": 7, "state": "x"})
        row = list(rec.series)[0]
        assert row["vps"] == 7 and row["state"] == "x"
        assert row["ipc"] == 0.0  # no instructions counter folded


# ---------------------------------------------------------------------------
# End to end: simulator -> snapshot -> wire -> cache, bit-identical.
# ---------------------------------------------------------------------------
def _tiny_run(timeseries: bool):
    config = scaled_config(num_sms=2)
    return run_kernel(
        config,
        kernel_for("GE", scale=0.1),
        extension_factory=linebacker_factory(config.linebacker),
        options=RunOptions(timeseries=timeseries),
    )


class TestTimeseriesEndToEnd:
    @pytest.fixture(scope="class")
    def recorded(self):
        return _tiny_run(timeseries=True)

    def test_rows_carry_engine_and_extension_state(self, recorded):
        series = recorded.timeseries
        assert len(series) == 2  # one per SM
        rows = list(series[0])
        assert rows, "expected at least one closed window"
        window = series[0].window_cycles
        assert rows[0]["cycle"] == window
        for row in rows:
            assert row["cycle"] % window == 0
            # engine counters + occupancy + extension contributions
            for key in ("ipc", "instructions", "active", "inactive",
                        "vps", "state", "phase", "vp_hits"):
                assert key in row

    def test_off_by_default(self):
        assert _tiny_run(timeseries=False).timeseries is None

    def test_recording_is_fingerprint_neutral(self, recorded):
        """The overhead contract: recording must not perturb the sim."""
        plain = _tiny_run(timeseries=False)
        assert result_fingerprint(plain) == result_fingerprint(recorded)

    def test_fingerprint_folds_in_every_declared_metric(self, recorded):
        """``fingerprint=True`` is a promise about ``tests/golden.py``:
        moving that counter moves the fingerprint the goldens pin."""
        result = copy.deepcopy(recorded)
        holders = {
            "SMStats": result.sm_stats[0],
            "TrafficStats": result.traffic,
            "RegisterFileStats": result.rf_stats[0],
        }
        # ``SMStats.cycles`` is each SM's copy of the device clock, and
        # that clock is what the fingerprint reads.
        assert all(s.cycles == result.cycles for s in result.sm_stats)
        pinned = result_fingerprint(result)
        for declared in metric_sets():
            for name in declared.fingerprint_names():
                holder = result if name == "cycles" else holders[declared.class_name]
                setattr(holder, name, getattr(holder, name) + 1)
                assert result_fingerprint(result) != pinned, name
                setattr(holder, name, getattr(holder, name) - 1)

    def test_wire_and_cache_round_trip_bit_identical(self, recorded, tmp_path):
        payload_before = [s.to_payload() for s in recorded.timeseries]

        wired = decode_result(encode_result("k" * 8, recorded, 0.5)).payload
        assert [s.to_payload() for s in wired.timeseries] == payload_before

        cache = ResultCache(tmp_path / "cache")
        cache.put("deadbeef", wired)
        restored = cache.get("deadbeef")
        assert restored is not MISS
        assert [s.to_payload() for s in restored.timeseries] == payload_before
        assert restored.timeseries[0] == recorded.timeseries[0]
