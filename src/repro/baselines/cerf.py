"""CERF: Cache-Emulated Register File (Jing et al., MICRO 2016).

CERF unifies the register file and the L1 data cache into one on-chip
local memory (304 KB in the paper's comparison: 256 KB RF + 48 KB L1)
and lets rarely-reused register file space hold cache lines.

Our model captures the three behaviours the paper's evaluation leans
on when comparing against Linebacker:

* CERF caches *every* evicted line (no per-load selectivity), so
  streaming data pollutes the register-file cache space — the reason
  Linebacker wins on BI/BC/BG/BR (Sections 5.2-5.3).
* CERF can use not only statically unused registers but also the
  rarely-accessed tail of each CTA's live register allocation — a
  bigger pool than selective victim caching over SUR alone, which is
  why CERF beats PCAL.
* Because cached lines share banks with live warp operands, CERF
  suffers noticeably more register-file bank conflicts (Figure 16);
  the extra conflicts emerge from the larger volume of register-file
  cache writes and an extra contention probe per cached-line access
  into the operand bank range.

CERF does no CTA throttling and no register backup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import LinebackerConfig
from repro.core.linebacker import LinebackerExtension
from repro.core.load_monitor import MonitorState

#: Fraction of each CTA's live register allocation that CERF treats as
#: rarely accessed and therefore usable as cache space.
RARELY_USED_FRACTION = 0.25


class CERFExtension(LinebackerExtension):
    """CERF as an SM extension: unselective register-file caching."""

    def __init__(self, config: Optional[LinebackerConfig] = None) -> None:
        base = config or LinebackerConfig()
        cerf_config = replace(
            base,
            enable_victim_cache=True,
            enable_selective=False,
            enable_throttling=False,
        )
        super().__init__(config=cerf_config)

    def attach(self, sm) -> None:
        super().attach(sm)
        # CERF has no monitoring phase: caching in register space is
        # active from the first cycle over whatever space is usable.
        self.load_monitor.state = MonitorState.SELECTED
        self.load_monitor.selected_hpcs = frozenset(range(self.config.lm_entries))
        self._sync_partitions()

    def _sync_partitions(self) -> None:
        """Partitions may cover free registers *or* the rarely-used
        tail of a CTA allocation (the unified-memory property)."""
        rf = self.sm.register_file
        regs_per_cta = max(1, self.sm.kernel.warp_registers_per_cta)
        live_prefix = int(regs_per_cta * (1.0 - RARELY_USED_FRACTION))
        bases = {
            cta.slot: cta.register_range.start
            for cta in self.sm.ctas.values()
            if cta.register_range is not None
        }

        def usable(rn: int) -> bool:
            owner = rf.owner_of(rn)
            if owner is None:
                return True
            base = bases.get(owner)
            if base is None:
                return False
            return (rn - base) >= live_prefix

        self.vtt.sync_with_free_registers(lambda rng: all(map(usable, rng)))

    def lookup_victim(self, line_addr: int, hpc: int, cycle: int) -> Optional[int]:
        hit = self.vtt.lookup(line_addr)
        if hit is None:
            return None
        register_number, search_latency = hit
        value = self.sm.register_file.read(register_number, cycle)
        if value != line_addr:
            # The register was reclaimed by live operand data (the
            # unified design races cache lines against registers);
            # treat as a miss and drop the stale tag.
            self.vtt.invalidate(line_addr)
            return None
        self.stats.victim_hits += 1
        # Extra contention probe: a cached-line access in the unified
        # space collides with operand traffic in the same banks.
        self.sm.register_file.account_operand_traffic(1, register_number, cycle)
        arbitration = 2
        return self.sm.config.l1_hit_latency + search_latency + arbitration

    def on_l1_eviction(self, line_addr: int, line, cycle: int) -> None:
        register_number = self.vtt.insert(line_addr)
        if register_number is None:
            return
        rf = self.sm.register_file
        rf.write(register_number, line_addr, cycle)
        # Unified-space contention: the line write also arbitrates
        # against operand reads of the owning CTA's bank group.
        rf.account_operand_traffic(1, register_number + 1, cycle)
        self.stats.victim_inserts += 1


@dataclass(frozen=True)
class CERFFactory:
    """Picklable ExtensionFactory (constructible from a JobSpec)."""

    config: Optional[LinebackerConfig] = None

    def __call__(self) -> CERFExtension:
        return CERFExtension(self.config)


@dataclass(frozen=True)
class PCALCERFFactory:
    """Figure 15's PCAL+CERF: PCAL's bypass throttler grafted onto a
    CERF register-file cache. A module-level factory (not a closure)
    so the combination is picklable for the parallel runner."""

    config: Optional[LinebackerConfig] = None

    def __call__(self) -> CERFExtension:
        from repro.core.linebacker import BypassThrottler

        base = self.config or LinebackerConfig()
        ext = CERFExtension(base)
        ext.enable_bypass = True
        ext.bypass = BypassThrottler(base.ipc_upper_bound, base.ipc_lower_bound)
        return ext


def cerf_factory(config: Optional[LinebackerConfig] = None) -> CERFFactory:
    return CERFFactory(config)
