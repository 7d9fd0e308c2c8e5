"""Declarative metrics core.

The simulator's statistics used to be hand-rolled ``@dataclass(slots=True)``
counter bags scattered across ``gpu/``, ``memory/`` and ``core/``, with
the golden-fingerprint coverage list maintained by hand in a lint pass.
This package replaces that with a single declarative registry:

* :class:`~repro.metrics.registry.Metric` — one named counter or gauge
  with an owner-facing description and a ``fingerprint`` bit that says
  whether the golden-equivalence gate pins it.
* :class:`~repro.metrics.registry.MetricSet` — a named group of
  metrics that *generates* the ``__slots__``-based counter class the
  hot path mutates (``SMStats``, ``TrafficStats``, ...), so the
  declaration and the storage can never drift apart.
* :class:`~repro.metrics.timeseries.WindowSeries` /
  :class:`~repro.metrics.timeseries.WindowRecorder` — the opt-in
  per-window timeseries layer: a ring of window snapshots keyed on the
  simulator's existing ``window_cycles`` boundary, with counter deltas
  derived from the registry.

``tests/test_metrics.py`` takes its fingerprint coverage list from the
``MetricSet`` declarations, and ``python -m repro trace`` exposes the
recorded windows from the CLI.
"""

from repro.metrics.registry import (
    Metric,
    MetricSet,
    fingerprint_metric_names,
    metric_set,
    metric_sets,
)
from repro.metrics.timeseries import (
    DEFAULT_WINDOW_CAPACITY,
    TIMESERIES_VERSION,
    WindowRecorder,
    WindowSeries,
)

__all__ = [
    "DEFAULT_WINDOW_CAPACITY",
    "Metric",
    "MetricSet",
    "TIMESERIES_VERSION",
    "WindowRecorder",
    "WindowSeries",
    "fingerprint_metric_names",
    "metric_set",
    "metric_sets",
]
