"""Extension hooks for SM memory-path policies.

The baseline SM knows nothing about Linebacker, PCAL or CERF. Each of
those techniques plugs into the SM through this interface:

* Linebacker implements victim lookup/insert, per-load monitoring and
  CTA throttling (``repro.core.linebacker``).
* PCAL implements ``should_bypass`` plus token-count tuning
  (``repro.baselines.pcal``).
* CERF implements unselective register-file caching
  (``repro.baselines.cerf``).

All hooks default to no-ops so the baseline runs with a plain
:class:`SMExtension`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.memory.cache import CacheLine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.vector.machine import VectorSM as SM
    from repro.engine.vector.machine import WarpView as Warp

# Event kinds of ``sm.schedule_event(ready_cycle, kind, payload)``. Int
# constants compare faster than strings in the per-event dispatch and
# keep heap entries small. An extension schedules ``EV_CALLBACK``; the
# other two are the engine's own.
EV_FILL = 0      # payload: line_addr whose off-chip fetch completed
EV_WAKE = 1      # payload: the warp to deliver a memory response to
EV_CALLBACK = 2  # payload: callable(cycle), e.g. backup/restore steps


#: Capability flag -> the hook it gates. :meth:`SMExtension.resolve_flags`
#: reads this table; ``tests/test_capability_flags.py`` holds it to the class.
CAPABILITY_FLAGS = {
    "wants_ticks": "on_tick",
    "wants_load_outcomes": "on_load_outcome",
    "has_victim_cache": "lookup_victim",
    "may_bypass": "should_bypass",
    "wants_store_events": "on_store",
    "controls_fill": "allocate_fill",
    "wants_evictions": "on_l1_eviction",
    "wants_timeseries": "timeseries_sample",
}


class SMExtension:
    """No-op policy: the baseline GPU.

    Capability flags
    ----------------
    The SM's load path is the hottest code in the simulator; calling
    four no-op hooks per load line costs more than the rest of the line
    handling. Each extension therefore advertises cheap capability
    flags the SM reads once per instruction:

    * ``wants_ticks`` — ``on_tick`` does something.
    * ``wants_load_outcomes`` — ``on_load_outcome`` does something.
    * ``has_victim_cache`` — ``lookup_victim`` can return a hit.
    * ``may_bypass`` — ``should_bypass`` can return True.
    * ``wants_store_events`` — ``on_store`` does something.
    * ``controls_fill`` — ``allocate_fill`` can return False.
    * ``wants_evictions`` — ``on_l1_eviction`` does something.
    * ``wants_timeseries`` — ``timeseries_sample`` contributes rows.

    The class defaults are ``None`` = "auto": :meth:`resolve_flags`
    turns them into real bools by checking whether the subclass
    overrides the corresponding hook (:data:`CAPABILITY_FLAGS`), so
    existing extensions (and ad-hoc test doubles) keep exactly their
    old behaviour without declaring anything. A subclass may pin a flag
    explicitly (class attribute, or instance attribute set in
    ``__init__`` / ``attach``) when the override is conditionally inert
    — e.g. Linebacker with ``enable_victim_cache=False``.

    The engine calls ``attach`` and then ``resolve_flags`` once, and
    afterwards reads the eight bools straight off the instance. The
    ungated hooks (``attach``, ``on_cta_launched``, ``on_cta_finished``,
    ``try_reactivate_cta``, ``finalize``) fire off the hot path.

    Shared state
    ------------
    ``sm.memory`` (``backup_registers`` / ``restore_registers``) is the
    one thing an extension can reach that other SMs share. Use it only
    from ``on_tick``, from an ``EV_CALLBACK`` and from the CTA
    lifecycle hooks — the calls the vector engine orders across SMs —
    and read it (``traffic``) from ``timeseries_sample``, which is
    ordered too. The load, store and fill hooks must keep to the SM's
    own state.

    Tick grid
    ---------
    ``on_tick`` is not a per-tick hook: both engines call it only on
    the first SM tick at or past each multiple of
    :meth:`shared_tick_period`, and on every tick when that is
    ``None``. A windowed extension therefore sees each window boundary
    exactly once, on the tick that crosses it; one that must act on
    every tick returns ``None``.
    """

    wants_ticks: "bool | None" = None
    wants_load_outcomes: "bool | None" = None
    has_victim_cache: "bool | None" = None
    may_bypass: "bool | None" = None
    wants_store_events: "bool | None" = None
    controls_fill: "bool | None" = None
    wants_evictions: "bool | None" = None
    wants_timeseries: "bool | None" = None

    def attach(self, sm: "SM") -> None:
        """Called once when the SM is constructed."""
        self.sm = sm
        self.resolve_flags()

    def resolve_flags(self) -> None:
        """Leave a real bool on the instance for every capability flag:
        a pinned value as is, ``None`` as "the hook is overridden".
        Idempotent — the engine calls it again after ``attach``, which
        covers an ``attach`` override that pinned a flag after (or
        never called) ``super().attach``."""
        cls = type(self)
        for flag, hook in CAPABILITY_FLAGS.items():
            value = getattr(self, flag)
            if value is None:
                value = getattr(cls, hook) is not getattr(SMExtension, hook)
            setattr(self, flag, bool(value))

    # -- per-cycle / windowing -------------------------------------------
    def on_tick(self, cycle: int) -> None:
        """Called on the first SM tick at or past each multiple of
        :meth:`shared_tick_period` — every tick when it is ``None`` —
        after responses, before issue. ``sm.stats.instructions`` is
        current, and ``sm.memory`` may be used."""

    def shared_tick_period(self) -> "int | None":
        """The grid :meth:`on_tick` fires on: only the first tick at or
        past each multiple of this many cycles calls it, and that call
        may reach ``sm.memory`` (the vector engine syncs the SM with
        its siblings first and lets it run ahead in between). The
        default is the grid every windowed extension here closes its
        window on — the one place registers are backed up or restored
        — its own ``config.window_cycles``; ``None`` (no such config)
        means every tick."""
        return getattr(getattr(self, "config", None), "window_cycles", None)

    def timeseries_sample(self, cycle: int) -> dict:
        """Extra key/value pairs merged into the SM's timeseries row at
        the window boundary ending at ``cycle``. Only called when the
        run records timeseries (``RunOptions(timeseries=True)``)."""
        return {}

    # -- memory path -------------------------------------------------------
    def should_bypass(self, warp: "Warp", line_addr: int, cycle: int) -> bool:
        """PCAL hook: route this load around the L1 (no allocate)."""
        return False

    def lookup_victim(self, line_addr: int, hpc: int, cycle: int) -> Optional[int]:
        """After an L1 miss: return the extra latency of a victim-cache
        hit (VTT search + register read), or None on victim miss."""
        return None

    def on_l1_eviction(self, line_addr: int, line: CacheLine, cycle: int) -> None:
        """An L1 line was replaced; Linebacker may preserve it."""

    def on_load_outcome(
        self,
        pc: int,
        hpc: int,
        line_addr: int,
        hit: bool,
        cycle: int,
        warp: "Warp | None" = None,
    ) -> None:
        """Per-load monitoring: ``hit`` covers L1 *or* victim-tag hits.
        ``warp`` is the issuer (CCWS keys lost-locality on it)."""

    def on_store(self, line_addr: int, cycle: int) -> None:
        """A store was executed; victim copies must be invalidated."""

    def allocate_fill(self, line_addr: int) -> bool:
        """Whether a returning miss should be allocated in L1."""
        return True

    # -- CTA lifecycle -----------------------------------------------------
    def on_cta_launched(self, slot: int, cycle: int) -> None:
        """A CTA was placed in ``slot`` and its registers allocated."""

    def on_cta_finished(self, slot: int, cycle: int) -> None:
        """The CTA in ``slot`` retired all warps (registers still held)."""

    def try_reactivate_cta(self, cycle: int) -> bool:
        """Give the policy a chance to re-schedule a throttled CTA
        before the SM launches a fresh one. Returns True when a CTA
        was (or is being) reactivated."""
        return False

    # -- end of simulation ---------------------------------------------------
    def finalize(self, cycle: int) -> None:
        """Called once when the SM drains."""
