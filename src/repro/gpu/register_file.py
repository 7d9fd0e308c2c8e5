"""Banked register file of one SM.

The 256 KB register file holds 2048 warp-wide registers (128 bytes
each — exactly one L1 cache line, the size match Linebacker exploits).
The model covers the three behaviours the paper evaluates:

* **allocation** — contiguous ranges of physical warp registers are
  assigned to CTAs at launch and freed at completion/backup, which
  determines how much register space is statically (SUR) and
  dynamically (DUR) unused;
* **contents** — each register stores an opaque token so backup/restore
  and victim-line reads can be checked for value correctness;
* **bank conflicts** — registers are interleaved across banks; accesses
  within the same cycle to the same bank beyond its port count are
  conflicts (paper Figure 16 compares CERF's and Linebacker's conflict
  counts).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.config import WARP_REGISTER_BYTES
from repro.metrics import Metric, MetricSet

REGISTER_FILE_STATS = MetricSet(
    "RegisterFileStats",
    owner="gpu.register_file",
    metrics=(
        Metric("reads", description="register reads"),
        Metric("writes", description="register writes"),
        Metric("bank_conflicts", description="same-cycle bank over-subscriptions", fingerprint=True),
    ),
)

_RegisterFileStatsBase = REGISTER_FILE_STATS.build()


class RegisterFileStats(_RegisterFileStatsBase):
    __slots__ = ()


def register_tokens(slot: int, regs: range) -> list[int]:
    """Deterministic launch-time contents of the registers ``regs`` of
    the CTA in ``slot``, so backup/restore round-trips are checkable
    end to end."""
    high = slot << 20
    return [high ^ (reg * 2654435761 & 0xFFFFF) for reg in regs]


class RegisterFile:
    """Physical warp-register storage with bank-conflict accounting."""

    def __init__(self, size_bytes: int, num_banks: int = 16, ports_per_bank: int = 1) -> None:
        if size_bytes % WARP_REGISTER_BYTES != 0:
            raise ValueError("register file size must be a multiple of 128 B")
        self.num_registers = size_bytes // WARP_REGISTER_BYTES
        self.num_banks = num_banks
        self.ports_per_bank = ports_per_bank
        self._values: list[Optional[int]] = [None] * self.num_registers
        self._owner: list[Optional[int]] = [None] * self.num_registers  # CTA slot or None
        self._free_base = 0
        self.stats = RegisterFileStats()
        # Per-cycle bank usage for conflict detection, as epoch arrays:
        # ``_window`` is the mutable ``[usage cycle, epoch]`` pair and a
        # bank's count is live only while its epoch matches, so opening
        # a new cycle's window is two stores, not a reset. All three are
        # mutated in place and never rebound — the vector engine's SM
        # coroutine inlines this accounting over the same lists, so its
        # operand traffic and an extension's ``read`` / ``write`` /
        # ``account_operand_traffic`` at one cycle share one window.
        self._window: list[int] = [-1, 0]
        self._bank_epoch = [-1] * num_banks
        self._bank_count = [0] * num_banks

    # -- allocation --------------------------------------------------------
    def allocate(self, num_regs: int, owner: int) -> Optional[range]:
        """Allocate ``num_regs`` contiguous registers to ``owner``.

        Uses first-fit over free runs. Returns the allocated range or
        None when no contiguous run is available.
        """
        run_start = None
        run_len = 0
        for idx in range(self.num_registers):
            if self._owner[idx] is None:
                if run_start is None:
                    run_start = idx
                run_len += 1
                if run_len == num_regs:
                    rng = range(run_start, run_start + num_regs)
                    for r in rng:
                        self._owner[r] = owner
                    return rng
            else:
                run_start = None
                run_len = 0
        return None

    def free(self, regs: Iterable[int]) -> None:
        for r in regs:
            self._owner[r] = None
            self._values[r] = None

    def owner_of(self, reg: int) -> Optional[int]:
        return self._owner[reg]

    def is_range_free(self, regs: range) -> bool:
        """True when no register of the contiguous ``regs`` is owned."""
        return self._owner[regs.start:regs.stop].count(None) == len(regs)

    def allocated_count(self) -> int:
        return sum(1 for o in self._owner if o is not None)

    def unused_registers(self) -> int:
        return self.num_registers - self.allocated_count()

    def unused_bytes(self) -> int:
        return self.unused_registers() * WARP_REGISTER_BYTES

    # -- data access ---------------------------------------------------------
    def read(self, reg: int, cycle: int = 0) -> Optional[int]:
        self.stats.bank_conflicts += self._bank_accesses(reg, 1, cycle)
        self.stats.reads += 1
        return self._values[reg]

    def write(self, reg: int, value: Optional[int], cycle: int = 0) -> None:
        self.stats.bank_conflicts += self._bank_accesses(reg, 1, cycle)
        self.stats.writes += 1
        self._values[reg] = value

    def write_range(self, regs: range, values: list, cycle: int = 0) -> None:
        """:meth:`write` for each register of ``regs`` in order (a CTA
        launch initializing its whole allocation in one window)."""
        self.stats.bank_conflicts += self._bank_accesses(regs.start, len(regs), cycle)
        self.stats.writes += len(regs)
        self._values[regs.start:regs.stop] = values

    def peek(self, reg: int) -> Optional[int]:
        """Read without port/bank accounting (testing/introspection)."""
        return self._values[reg]

    # -- bank-conflict model ---------------------------------------------
    def bank_of(self, reg: int) -> int:
        return reg % self.num_banks

    def _bank_accesses(self, first_reg: int, count: int, cycle: int) -> int:
        """Claim one port on the bank of each of ``count`` consecutive
        registers within ``cycle``'s window; returns the conflicts."""
        window = self._window
        epoch = window[1]
        if cycle != window[0]:
            window[0] = cycle
            window[1] = epoch = epoch + 1
        bank_epoch = self._bank_epoch
        bank_count = self._bank_count
        num_banks = self.num_banks
        ports = self.ports_per_bank
        conflicts = 0
        for reg in range(first_reg, first_reg + count):
            bank = reg % num_banks
            if bank_epoch[bank] != epoch:
                bank_epoch[bank] = epoch
                bank_count[bank] = 1
            else:
                used = bank_count[bank]
                if used >= ports:
                    conflicts += 1
                bank_count[bank] = used + 1
        return conflicts

    def account_operand_traffic(self, num_operands: int, base_reg: int, cycle: int) -> int:
        """Account bank accesses for an instruction's register operands.

        Returns the number of conflicts this instruction generated.
        Operand registers are modeled as consecutive registers starting
        at ``base_reg`` (the warp's allocation base), which reproduces
        realistic bank spreading for interleaved allocation.
        """
        conflicts = self._bank_accesses(base_reg, num_operands, cycle)
        self.stats.bank_conflicts += conflicts
        self.stats.reads += num_operands
        return conflicts
