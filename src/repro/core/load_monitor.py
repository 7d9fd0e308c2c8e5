"""Load Monitor (LM) — per-static-load locality classification.

The LM is a 32-entry table indexed by a 5-bit hashed PC (HPC). Each
entry stores the full PC of the first load to claim it, hit and miss
counters for the current monitoring window, and a 2-bit valid field.
Hits count accesses that found their line in either the L1 cache or
the Victim Tag Table; misses are the rest.

Classification follows the paper's two-consecutive-window protocol
(Sections 3.2 and 4):

* At the end of each window, entries whose hit ratio exceeds the
  threshold (20%) are marked high-locality; the valid field shifts so
  bit 1 remembers the previous window's verdict and bit 0 holds the
  current one.
* Loads are *selected* only when the non-empty set of high-locality
  loads is identical across two consecutive windows. If the second
  window's set is a proper subset (or otherwise differs), nothing is
  selected and monitoring continues.
* If the first two windows produce no high-locality load at all,
  Linebacker is disabled — the application is deemed cache-insensitive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gpu.isa import hashed_pc


class MonitorState(enum.Enum):
    MONITORING = "monitoring"
    SELECTED = "selected"    # high-locality loads chosen; LM frozen
    DISABLED = "disabled"    # application judged cache-insensitive


@dataclass
class LMEntry:
    """One Load Monitor row: PC, hit/miss counters, 2-bit valid field."""

    pc: int = -1
    hits: int = 0
    misses: int = 0
    valid: int = 0  # 2-bit: bit0 = current window, bit1 = previous

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0


@dataclass(frozen=True, slots=True)
class MonitorSummary:
    """What a result keeps of a :class:`LoadMonitor`: the protocol's
    outcome and the table's access total, not its 32 entries."""

    state: MonitorState
    windows_elapsed: int
    selected_hpcs: frozenset[int]
    #: Summed over the entries: the current window's counters.
    hits: int
    misses: int

    def is_selected(self, hpc: int) -> bool:
        return self.state is MonitorState.SELECTED and hpc in self.selected_hpcs


class LoadMonitor:
    """The LM table plus the window-to-window selection protocol."""

    def __init__(
        self,
        num_entries: int = 32,
        hpc_bits: int = 5,
        hit_ratio_threshold: float = 0.20,
        min_accesses: int = 8,
    ) -> None:
        if num_entries != (1 << hpc_bits):
            raise ValueError("LM entry count must match the HPC index width")
        self.hpc_bits = hpc_bits
        self.threshold = hit_ratio_threshold
        self.min_accesses = min_accesses
        self.entries = [LMEntry() for _ in range(num_entries)]
        self.state = MonitorState.MONITORING
        self.selected_hpcs: frozenset[int] = frozenset()
        self.windows_elapsed = 0
        self._previous_set: frozenset[int] = frozenset()

    # -- access-time behaviour ---------------------------------------------
    def record_access(self, pc: int, hit: bool) -> None:
        """Count one load access (called on every load while monitoring)."""
        if self.state is not MonitorState.MONITORING:
            return
        entry = self.entries[hashed_pc(pc, self.hpc_bits)]
        if entry.pc < 0:
            entry.pc = pc
        if hit:
            entry.hits += 1
        else:
            entry.misses += 1

    def discard_window(self) -> None:
        """Drop the current window's counters without advancing the
        protocol — used while the L1 is still warming up, when every
        access is a cold miss and classification would be meaningless."""
        for entry in self.entries:
            entry.reset_counters()

    # -- window boundary -----------------------------------------------------
    def close_window(self) -> MonitorState:
        """End the current monitoring window and apply the protocol."""
        if self.state is not MonitorState.MONITORING:
            return self.state
        self.windows_elapsed += 1

        current = frozenset(
            idx
            for idx, e in enumerate(self.entries)
            if e.accesses >= self.min_accesses and e.hit_ratio() >= self.threshold
        )
        # Shift the 2-bit valid fields: previous <- current verdict.
        for idx, entry in enumerate(self.entries):
            verdict = 1 if idx in current else 0
            entry.valid = ((entry.valid << 1) | verdict) & 0b11
            entry.reset_counters()

        if self.windows_elapsed >= 2:
            if current and current == self._previous_set:
                self.selected_hpcs = current
                self.state = MonitorState.SELECTED
            elif not current and not self._previous_set:
                # No high-locality load in two consecutive windows:
                # the kernel is cache-insensitive, disable Linebacker.
                self.state = MonitorState.DISABLED
        self._previous_set = current
        return self.state

    # -- queries --------------------------------------------------------------
    def is_selected(self, hpc: int) -> bool:
        return self.state is MonitorState.SELECTED and hpc in self.selected_hpcs

    @property
    def monitoring(self) -> bool:
        return self.state is MonitorState.MONITORING

    def summary(self) -> MonitorSummary:
        return MonitorSummary(
            state=self.state,
            windows_elapsed=self.windows_elapsed,
            selected_hpcs=self.selected_hpcs,
            hits=sum(e.hits for e in self.entries),
            misses=sum(e.misses for e in self.entries),
        )

    def storage_bits(self) -> int:
        """Storage cost in bits (paper Section 4.2: 392 bytes total)."""
        # Per entry: 2-bit valid + three 4-byte registers (PC, hits, misses).
        return len(self.entries) * (2 + 3 * 32)
