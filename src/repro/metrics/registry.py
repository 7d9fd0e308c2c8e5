"""Declarative metric registry.

Every statistics bag in the simulator is declared once, as data: a
:class:`MetricSet` names the counters, says which component owns them,
and marks the subset the golden-fingerprint gate pins. The set then
*generates* the ``__slots__``-based storage class the hot path mutates
(via :meth:`MetricSet.build`), so the declaration can never drift from
the fields that actually exist.

Two consumers read the registry instead of hand-maintained lists:

* ``tests/test_metrics.py``, which asks every set for its
  fingerprint-participating counters and checks that moving one moves
  ``tests/golden.py::result_fingerprint``;
* the :class:`~repro.metrics.timeseries.WindowRecorder`, which asks a
  set for its delta-able counter names when folding end-of-window
  snapshots.

Kinds
-----
``counter``
    Monotonic accumulator (instructions, hits, ...). Timeseries rows
    report per-window deltas.
``gauge``
    Point-in-time value (``cycles``). Excluded from delta folding.
"""

from __future__ import annotations

import dataclasses
import keyword
from dataclasses import dataclass, field

_KINDS = ("counter", "gauge")

#: class_name -> MetricSet, populated as owning modules import.
METRIC_SETS: dict[str, "MetricSet"] = {}


@dataclass(frozen=True, slots=True)
class Metric:
    """One named statistic inside a :class:`MetricSet`."""

    name: str
    kind: str = "counter"
    description: str = ""
    #: True when ``tests/golden.py::result_fingerprint`` pins this
    #: metric — ``tests/test_metrics.py`` enforces that every such
    #: metric is actually folded in there.
    fingerprint: bool = False


@dataclass(frozen=True, slots=True)
class MetricSet:
    """A named group of metrics owned by one component.

    Instantiating a set registers it in :data:`METRIC_SETS`;
    re-executing an identical declaration (module reload) is a no-op,
    while a *conflicting* redeclaration under the same class name
    raises.
    """

    class_name: str
    owner: str
    metrics: tuple[Metric, ...] = field(default=())

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for metric in self.metrics:
            if not metric.name.isidentifier() or keyword.iskeyword(metric.name):
                raise ValueError(
                    f"{self.class_name}: metric name {metric.name!r} is not "
                    "a valid attribute name"
                )
            if metric.name.startswith("_"):
                raise ValueError(
                    f"{self.class_name}: metric name {metric.name!r} must "
                    "not be underscore-prefixed"
                )
            if metric.name in seen:
                raise ValueError(
                    f"{self.class_name}: duplicate metric {metric.name!r}"
                )
            if metric.kind not in _KINDS:
                raise ValueError(
                    f"{self.class_name}.{metric.name}: unknown kind "
                    f"{metric.kind!r} (expected one of {_KINDS})"
                )
            seen.add(metric.name)
        existing = METRIC_SETS.get(self.class_name)
        if existing is not None and existing != self:
            raise ValueError(
                f"conflicting MetricSet redeclaration for {self.class_name!r}"
            )
        METRIC_SETS[self.class_name] = self

    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.metrics)

    def counter_names(self) -> tuple[str, ...]:
        """Names eligible for per-window delta folding."""
        return tuple(m.name for m in self.metrics if m.kind == "counter")

    def fingerprint_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.metrics if m.fingerprint)

    def build(self):
        """Generate the ``__slots__``-based storage base class.

        The result is a slotted dataclass with every metric as an
        ``int = 0`` field, in declaration order. Owning modules
        subclass it (adding ``__slots__ = ()`` plus derived
        properties) under the public ``class_name`` so pickling by
        reference keeps working.
        """
        return dataclasses.make_dataclass(
            f"_{self.class_name}Base",
            [
                (m.name, int, dataclasses.field(default=0))
                for m in self.metrics
            ],
            slots=True,
        )


def metric_set(class_name: str) -> "MetricSet":
    """Look up a registered set by its public class name."""
    return METRIC_SETS[class_name]


def metric_sets() -> tuple["MetricSet", ...]:
    """All registered sets, in registration order."""
    return tuple(METRIC_SETS.values())


def fingerprint_metric_names() -> tuple[str, ...]:
    """Every fingerprint-participating metric across all sets."""
    names: list[str] = []
    for ms in METRIC_SETS.values():
        names.extend(ms.fingerprint_names())
    return tuple(names)
