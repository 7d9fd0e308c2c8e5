"""Reference Victim Tag Table: the dense tag array, test-side only.

This is the model ``repro.core.victim_tag_table`` shipped before it
became sparse — one ``VTTEntry`` object per (partition, set, way),
nested-loop search, explicit ``lru`` timestamps — kept verbatim as the
oracle for ``tests/test_victim_tag_table.py::TestAgainstDenseReference``.
It is written straight from the paper's description (sequential search
of active partitions, invalid-first then LRU victim, Equation (2)) and
shares no code with the implementation except the ``VTTStats`` counter
class. ``sync_with_free_registers`` still takes the historical
per-register predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.victim_tag_table import VTTStats


@dataclass(slots=True)
class VTTEntry:
    """One tag-array entry: valid, tag, LRU timestamp (invalid entries
    are reused in priority when a new victim line arrives)."""

    valid: bool = False
    tag: int = -1
    lru: int = 0


class VTTPartition:
    """One VP: a ``num_sets`` x ``ways`` tag array over a fixed RN range."""

    def __init__(self, index: int, num_sets: int, ways: int, base_rn: int) -> None:
        self.index = index
        self.num_sets = num_sets
        self.ways = ways
        self.base_rn = base_rn
        self.entries = [[VTTEntry() for _ in range(ways)] for _ in range(num_sets)]
        self.active = False
        #: Per-partition hit count — the timeseries layer reports it so
        #: dynamics traces show *which* VPs serve the victim hits.
        self.hits = 0

    @property
    def num_entries(self) -> int:
        return self.num_sets * self.ways

    def register_number(self, set_idx: int, way: int) -> int:
        """Paper Equation (2)."""
        return self.base_rn + set_idx * self.ways + way

    @property
    def register_range(self) -> range:
        return range(self.base_rn, self.base_rn + self.num_entries)

    def invalidate_all(self) -> None:
        for ways in self.entries:
            for entry in ways:
                entry.valid = False
                entry.tag = -1


class VictimTagTable:
    """All partitions plus lookup/insert/invalidate across them."""

    def __init__(
        self,
        num_sets: int,
        ways: int = 4,
        max_partitions: int = 8,
        register_offset: int = 512,
        vp_access_latency: int = 3,
        total_registers: int = 2048,
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.vp_access_latency = vp_access_latency
        self.register_offset = register_offset
        self.stats = VTTStats()
        self._clock = 0
        self.partitions: list[VTTPartition] = []
        entries_per_vp = num_sets * ways
        for n in range(max_partitions):
            base = register_offset + n * entries_per_vp
            if base + entries_per_vp > total_registers:
                break
            self.partitions.append(VTTPartition(n, num_sets, ways, base))

    # -- partition (de)activation ------------------------------------------
    def active_partitions(self) -> list[VTTPartition]:
        return [p for p in self.partitions if p.active]

    def activate(self, index: int) -> None:
        vp = self.partitions[index]
        if not vp.active:
            vp.active = True
            vp.invalidate_all()
            self.stats.partition_activations += 1

    def deactivate(self, index: int) -> None:
        vp = self.partitions[index]
        if vp.active:
            vp.active = False
            vp.invalidate_all()
            self.stats.partition_deactivations += 1

    def sync_with_free_registers(self, is_register_free) -> None:
        """(De)activate partitions so that active ones cover only idle
        registers. ``is_register_free(rn) -> bool``."""
        for vp in self.partitions:
            free = all(is_register_free(rn) for rn in vp.register_range)
            if free and not vp.active:
                self.activate(vp.index)
            elif not free and vp.active:
                self.deactivate(vp.index)

    # -- set mapping -----------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        """Same set index as the L1 cache (the paper reuses it)."""
        return line_addr % self.num_sets

    def _tag(self, line_addr: int) -> int:
        return line_addr // self.num_sets

    # -- cache operations -------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[tuple[int, int]]:
        """Search active partitions sequentially.

        Returns ``(register_number, search_latency)`` on hit, or None.
        The latency is ``vp_access_latency`` per partition searched,
        reflecting the sequential probe order of Section 4.
        """
        self.stats.lookups += 1
        set_idx = self.set_index(line_addr)
        tag = self._tag(line_addr)
        searched = 0
        self._clock += 1
        for vp in self.partitions:
            if not vp.active:
                continue
            searched += 1
            for way, entry in enumerate(vp.entries[set_idx]):
                if entry.valid and entry.tag == tag:
                    entry.lru = self._clock
                    self.stats.hits += 1
                    vp.hits += 1
                    return vp.register_number(set_idx, way), searched * self.vp_access_latency
        return None

    def insert(self, line_addr: int) -> Optional[int]:
        """Insert a victim line tag; returns the register number to
        write the line data to, or None when no partition is active.

        Victim selection order within the set: an invalid entry first
        (store-invalidated entries are reclaimed in priority, per the
        paper's store-handling policy), else the LRU entry across all
        active partitions.
        """
        active = self.active_partitions()
        if not active:
            return None
        set_idx = self.set_index(line_addr)
        tag = self._tag(line_addr)
        self._clock += 1

        # Already present? Refresh it.
        for vp in active:
            for way, entry in enumerate(vp.entries[set_idx]):
                if entry.valid and entry.tag == tag:
                    entry.lru = self._clock
                    return vp.register_number(set_idx, way)

        victim_vp: Optional[VTTPartition] = None
        victim_way = -1
        best_lru: Optional[int] = None
        for vp in active:
            for way, entry in enumerate(vp.entries[set_idx]):
                if not entry.valid:
                    victim_vp, victim_way = vp, way
                    best_lru = None
                    break
                if best_lru is None and victim_vp is not None:
                    continue
                if best_lru is None or entry.lru < best_lru:
                    victim_vp, victim_way, best_lru = vp, way, entry.lru
            if victim_vp is not None and best_lru is None:
                break

        assert victim_vp is not None
        entry = victim_vp.entries[set_idx][victim_way]
        entry.valid = True
        entry.tag = tag
        entry.lru = self._clock
        self.stats.inserts += 1
        return victim_vp.register_number(set_idx, victim_way)

    def invalidate(self, line_addr: int) -> Optional[int]:
        """Store hit in the victim space: invalidate the entry and
        return the register number it occupied (or None)."""
        set_idx = self.set_index(line_addr)
        tag = self._tag(line_addr)
        for vp in self.active_partitions():
            for way, entry in enumerate(vp.entries[set_idx]):
                if entry.valid and entry.tag == tag:
                    entry.valid = False
                    entry.tag = -1
                    self.stats.store_invalidations += 1
                    return vp.register_number(set_idx, way)
        return None

    # -- capacity/introspection ---------------------------------------------
    def active_capacity_lines(self) -> int:
        return sum(vp.num_entries for vp in self.active_partitions())

    def valid_entries(self) -> int:
        return sum(
            1
            for vp in self.active_partitions()
            for ways in vp.entries
            for e in ways
            if e.valid
        )

    def storage_bits(self) -> int:
        """Tag storage cost: 1 valid + 18 tag + 5 meta bits per entry
        (paper Section 4.2: 4608 bytes for 1536 entries)."""
        total_entries = sum(vp.num_entries for vp in self.partitions)
        return total_entries * (1 + 18 + 5)
