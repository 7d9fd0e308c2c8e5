"""Victim Tag Table (VTT) and its partitions (VPs).

The VTT keeps the tags of victim lines preserved in idle register file
space. It has the same number of sets as the L1 cache (48 in the
baseline), organized as up to 8 partitions of 4 ways each (the paper's
preferred design). Each partition corresponds to a 24 KB chunk of idle
register space: 48 sets x 4 ways x 128 B = 24 KB.

A hit at (partition N, set X, way Y) maps to a register number through
the paper's Equation (2):

    RN = Offset + N * entries_per_partition + X * ways + Y

Partitions activate only when every register they map to is idle, and
searching them is sequential (3 cycles per partition, Table 3), which
is the latency/associativity trade-off Figure 10 explores.

The model stores only what is valid: per set one ``tag -> slot`` dict
with ``slot = N * ways + Y``, kept in LRU order the way
``memory/cache.py`` keeps the L1 (a hit or refresh deletes and
re-inserts, so the first key is the least recently used), plus one
occupancy bitmask per set and one mask of the slots in active
partitions. DESIGN.md section 5h has the slot arithmetic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.metrics import Metric, MetricSet

VTT_STATS = MetricSet(
    "VTTStats",
    owner="core.victim_tag_table",
    metrics=(
        Metric("lookups", description="tag searches across active VPs"),
        Metric("hits", description="tag matches"),
        Metric("inserts", description="victim tags inserted"),
        Metric("store_invalidations", description="entries killed by stores"),
        Metric("partition_activations", description="VPs switched on"),
        Metric("partition_deactivations", description="VPs switched off"),
    ),
)

_VTTStatsBase = VTT_STATS.build()


class VTTStats(_VTTStatsBase):
    __slots__ = ()


@dataclass(slots=True)
class VTTPartition:
    """One VP: ``num_sets`` x ``ways`` slots over a fixed RN range."""

    index: int
    num_sets: int
    ways: int
    base_rn: int
    active: bool = False
    #: Per-partition hit count — the timeseries layer reports it so
    #: dynamics traces show *which* VPs serve the victim hits.
    hits: int = 0

    @property
    def num_entries(self) -> int:
        return self.num_sets * self.ways

    def register_number(self, set_idx: int, way: int) -> int:
        """Paper Equation (2)."""
        return self.base_rn + set_idx * self.ways + way

    @property
    def register_range(self) -> range:
        return range(self.base_rn, self.base_rn + self.num_entries)


@dataclass(frozen=True, slots=True)
class VTTSummary:
    """What a result keeps of a :class:`VictimTagTable`: its counters
    and its occupancy, not its partitions and tags."""

    stats: VTTStats
    partitions: int
    active_partitions: int
    active_capacity_lines: int
    valid_lines: int


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
        self.partitions: list[VTTPartition] = []
        entries_per_vp = num_sets * ways
        for n in range(max_partitions):
            base = register_offset + n * entries_per_vp
            if base + entries_per_vp > total_registers:
                break
            self.partitions.append(VTTPartition(n, num_sets, ways, base))
        #: Per set: tag -> slot, least recently used first.
        self._sets: list[dict[int, int]] = [{} for _ in range(num_sets)]
        #: Per set: bit ``slot`` is set while that slot holds a tag.
        self._occupied = [0] * num_sets
        #: Bit ``slot`` is set while the slot's partition is active.
        self._active_mask = 0
        #: Per partition: cycles to reach it in the sequential search.
        self._search_latency = [0] * len(self.partitions)
        #: Per slot: its register number in set 0 (Equation (2) at X = 0).
        self._slot_rn = [
            vp.register_number(0, way) for vp in self.partitions for way in range(ways)
        ]

    # -- partition (de)activation ------------------------------------------
    def active_partitions(self) -> list[VTTPartition]:
        return [p for p in self.partitions if p.active]

    def activate(self, index: int) -> None:
        vp = self.partitions[index]
        if not vp.active:
            vp.active = True
            self._active_mask |= self._partition_mask(index)
            self._rebuild_search_latency()
            self.stats.partition_activations += 1

    def deactivate(self, index: int) -> None:
        vp = self.partitions[index]
        if vp.active:
            vp.active = False
            mask = self._partition_mask(index)
            self._active_mask &= ~mask
            for set_idx, tags in enumerate(self._sets):
                if self._occupied[set_idx] & mask:
                    for tag in [t for t, slot in tags.items() if mask >> slot & 1]:
                        del tags[tag]
                    self._occupied[set_idx] &= ~mask
            self._rebuild_search_latency()
            self.stats.partition_deactivations += 1

    def _partition_mask(self, index: int) -> int:
        return ((1 << self.ways) - 1) << (index * self.ways)

    def _rebuild_search_latency(self) -> None:
        searched = 0
        for vp in self.partitions:
            searched += vp.active
            self._search_latency[vp.index] = searched * self.vp_access_latency

    def sync_with_free_registers(self, is_range_free: Callable[[range], bool]) -> None:
        """(De)activate partitions so that active ones cover only idle
        registers. ``is_range_free(register_range) -> bool`` is asked
        once per partition."""
        for vp in self.partitions:
            free = is_range_free(vp.register_range)
            if free and not vp.active:
                self.activate(vp.index)
            elif not free and vp.active:
                self.deactivate(vp.index)

    def invalidate_all(self) -> None:
        """Drop every tag; partition activity is unchanged."""
        for tags in self._sets:
            tags.clear()
        self._occupied = [0] * self.num_sets

    # -- set mapping -----------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        """Same set index as the L1 cache (the paper reuses it)."""
        return line_addr % self.num_sets

    def _register_number(self, set_idx: int, slot: int) -> int:
        """Paper Equation (2), with ``slot = N * ways + Y``."""
        return self._slot_rn[slot] + set_idx * self.ways

    # -- cache operations -------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[tuple[int, int]]:
        """Search active partitions sequentially.

        Returns ``(register_number, search_latency)`` on hit, or None.
        The latency is ``vp_access_latency`` per partition searched,
        reflecting the sequential probe order of Section 4.
        """
        stats = self.stats
        stats.lookups += 1
        set_idx = line_addr % self.num_sets
        tags = self._sets[set_idx]
        tag = line_addr // self.num_sets
        slot = tags.get(tag)
        if slot is None:
            return None
        del tags[tag]
        tags[tag] = slot
        stats.hits += 1
        partition = slot // self.ways
        self.partitions[partition].hits += 1
        return self._register_number(set_idx, slot), self._search_latency[partition]

    def insert(self, line_addr: int) -> Optional[int]:
        """Insert a victim line tag; returns the register number to
        write the line data to, or None when no partition is active.

        Victim selection order within the set: an invalid entry first
        (store-invalidated entries are reclaimed in priority, per the
        paper's store-handling policy), else the LRU entry across all
        active partitions.
        """
        active_mask = self._active_mask
        if not active_mask:
            return None
        set_idx = line_addr % self.num_sets
        tags = self._sets[set_idx]
        tag = line_addr // self.num_sets
        slot = tags.pop(tag, None)
        if slot is None:
            free = active_mask & ~self._occupied[set_idx]
            if free:
                # Lowest free bit = first invalid entry in (partition, way) order.
                slot = (free & -free).bit_length() - 1
                self._occupied[set_idx] |= 1 << slot
            else:
                slot = tags.pop(next(iter(tags)))
            self.stats.inserts += 1
        tags[tag] = slot
        return self._register_number(set_idx, slot)

    def invalidate(self, line_addr: int) -> Optional[int]:
        """Store hit in the victim space: invalidate the entry and
        return the register number it occupied (or None)."""
        set_idx = line_addr % self.num_sets
        slot = self._sets[set_idx].pop(line_addr // self.num_sets, None)
        if slot is None:
            return None
        self._occupied[set_idx] &= ~(1 << slot)
        self.stats.store_invalidations += 1
        return self._register_number(set_idx, slot)

    # -- capacity/introspection ---------------------------------------------
    def active_capacity_lines(self) -> int:
        return sum(vp.num_entries for vp in self.partitions if vp.active)

    def valid_entries(self) -> int:
        return sum(len(tags) for tags in self._sets)

    def valid_lines(self) -> Iterator[tuple[int, int, int, int]]:
        """``(line_addr, partition, set, way)`` of every valid entry."""
        for set_idx, tags in enumerate(self._sets):
            for tag, slot in tags.items():
                partition, way = divmod(slot, self.ways)
                yield tag * self.num_sets + set_idx, partition, set_idx, way

    def occupancy_masks(self) -> list[int]:
        """Per set: the bitmask of slots (``N * ways + Y``) holding a tag."""
        return list(self._occupied)

    def summary(self) -> VTTSummary:
        return VTTSummary(
            stats=copy.copy(self.stats),
            partitions=len(self.partitions),
            active_partitions=len(self.active_partitions()),
            active_capacity_lines=self.active_capacity_lines(),
            valid_lines=self.valid_entries(),
        )

    def storage_bits(self) -> int:
        """Tag storage cost: 1 valid + 18 tag + 5 meta bits per entry
        (paper Section 4.2: 4608 bytes for 1536 entries)."""
        total_entries = sum(vp.num_entries for vp in self.partitions)
        return total_entries * (1 + 18 + 5)
