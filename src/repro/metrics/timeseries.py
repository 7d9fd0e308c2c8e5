"""Opt-in per-window timeseries recording.

Linebacker's mechanisms are defined over ``window_cycles`` monitoring
windows (load-monitor selection, IPC-variation throttling, VP
activation), so the natural time resolution for dynamics is one row
per window. :class:`WindowRecorder` folds a counter set's cumulative
values into per-window deltas at each boundary; :class:`WindowSeries`
is the bounded ring the rows land in, and the object that travels
through snapshots, the wire protocol, and the result cache.

Recording is opt-in (``RunOptions(timeseries=True)``); when it is
off the SM holds no recorder and the per-tick cost is a single
local-bool test.
"""

from __future__ import annotations

from collections import deque

#: Bump when the row schema or payload layout changes shape.
TIMESERIES_VERSION = 1

#: Ring capacity: at the default 50 000-cycle window this covers 200M
#: cycles of history before old windows are shed, while bounding the
#: payload a cached/wired result can carry.
DEFAULT_WINDOW_CAPACITY = 4096


class WindowSeries:
    """A bounded ring of per-window metric rows.

    Each row is a plain ``dict`` (JSON-friendly: str keys, numeric or
    list values) whose ``"cycle"`` key is the window's *end* boundary.
    When the ring is full the oldest row is shed and ``dropped`` is
    incremented, so consumers can tell a truncated series from a
    complete one.
    """

    __slots__ = ("version", "window_cycles", "capacity", "rows", "dropped")

    def __init__(
        self,
        window_cycles: int,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
    ) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.version = TIMESERIES_VERSION
        self.window_cycles = window_cycles
        self.capacity = capacity
        self.rows: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, row: dict) -> None:
        if len(self.rows) == self.capacity:
            self.dropped += 1
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowSeries(window_cycles={self.window_cycles}, "
            f"rows={len(self.rows)}, dropped={self.dropped})"
        )

    def to_payload(self) -> dict:
        """A JSON-serialisable dict capturing the full series state."""
        return {
            "version": self.version,
            "window_cycles": self.window_cycles,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "rows": [dict(row) for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WindowSeries":
        series = cls(payload["window_cycles"], payload["capacity"])
        series.version = payload["version"]
        series.dropped = payload["dropped"]
        for row in payload["rows"]:
            series.rows.append(dict(row))
        return series

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowSeries):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    def __hash__(self):  # mutable container
        raise TypeError("WindowSeries is unhashable")


class WindowRecorder:
    """Folds cumulative counters into per-window delta rows.

    ``counters`` names the monotonic fields of ``stats`` to difference
    at each boundary (a :class:`~repro.metrics.registry.MetricSet`'s
    ``counter_names()``). Rows additionally carry the window-end
    cycle, per-window IPC, the CTA occupancy split, and whatever the
    attached extension's ``timeseries_sample`` hook contributes.
    """

    __slots__ = ("series", "counters", "_prev")

    def __init__(
        self,
        window_cycles: int,
        counters: tuple,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
    ) -> None:
        self.series = WindowSeries(window_cycles, capacity)
        self.counters = counters
        self._prev = {name: 0 for name in counters}

    def capture(
        self,
        boundary: int,
        stats,
        active: int,
        inactive: int,
        extra: "dict | None" = None,
    ) -> None:
        prev = self._prev
        row: dict = {
            "cycle": boundary,
            "ipc": 0.0,
            "active": active,
            "inactive": inactive,
        }
        for name in self.counters:
            current = getattr(stats, name)
            row[name] = current - prev[name]
            prev[name] = current
        if "instructions" in row:
            row["ipc"] = row["instructions"] / self.series.window_cycles
        if extra:
            row.update(extra)
        self.series.append(row)
