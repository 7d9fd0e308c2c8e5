"""Unit tests for the banked register file."""

import pytest

from repro.gpu.register_file import RegisterFile


def make_rf(size=256 * 1024, banks=16, ports=1):
    return RegisterFile(size, num_banks=banks, ports_per_bank=ports)


class TestAllocation:
    def test_paper_capacity(self):
        """Table 1: 256 KB register file = 2048 warp registers."""
        assert make_rf().num_registers == 2048

    def test_contiguous_allocation(self):
        rf = make_rf()
        rng = rf.allocate(128, owner=0)
        assert rng == range(0, 128)
        assert all(rf.owner_of(r) == 0 for r in rng)

    def test_first_fit_reuses_freed_hole(self):
        rf = make_rf()
        a = rf.allocate(100, owner=0)
        rf.allocate(100, owner=1)
        rf.free(a)
        c = rf.allocate(50, owner=2)
        assert c.start == 0

    def test_allocation_fails_when_fragmented(self):
        rf = RegisterFile(4 * 128, num_banks=2)
        rf.allocate(1, owner=0)      # reg 0
        b = rf.allocate(1, owner=1)  # reg 1
        rf.allocate(1, owner=2)      # reg 2
        rf.free(b)
        # Only regs 1 and 3 are free; no contiguous run of 2.
        assert rf.allocate(2, owner=3) is None

    def test_unused_accounting(self):
        rf = make_rf()
        rf.allocate(1024, owner=0)
        assert rf.unused_registers() == 1024
        assert rf.unused_bytes() == 1024 * 128

    def test_free_clears_values(self):
        rf = make_rf()
        rng = rf.allocate(4, owner=0)
        rf.write(rng.start, 42)
        rf.free(rng)
        assert rf.peek(rng.start) is None

    def test_is_range_free_matches_per_register_ownership(self):
        rf = make_rf()
        rf.allocate(100, owner=0)
        held = rf.allocate(28, owner=1)
        for regs in (range(0, 100), range(99, 130), range(127, 129),
                     range(128, 320), range(1856, 2048), range(2000, 2100)):
            in_bounds = regs.stop <= rf.num_registers
            assert rf.is_range_free(regs) == (
                in_bounds and all(rf.owner_of(r) is None for r in regs)
            )
        rf.free(held)
        assert rf.is_range_free(range(100, 320))

    def test_rejects_misaligned_size(self):
        with pytest.raises(ValueError):
            RegisterFile(100)


class TestDataAccess:
    def test_write_read_roundtrip(self):
        rf = make_rf()
        rf.write(10, 1234, cycle=0)
        assert rf.read(10, cycle=1) == 1234

    def test_peek_does_not_count(self):
        rf = make_rf()
        rf.write(3, 9)
        reads_before = rf.stats.reads
        rf.peek(3)
        assert rf.stats.reads == reads_before


class TestBankConflicts:
    def test_same_bank_same_cycle_conflicts(self):
        rf = make_rf(banks=16, ports=1)
        rf.read(0, cycle=5)
        rf.read(16, cycle=5)  # same bank (0)
        assert rf.stats.bank_conflicts == 1

    def test_different_banks_no_conflict(self):
        rf = make_rf(banks=16)
        rf.read(0, cycle=5)
        rf.read(1, cycle=5)
        assert rf.stats.bank_conflicts == 0

    def test_same_bank_different_cycle_no_conflict(self):
        rf = make_rf(banks=16)
        rf.read(0, cycle=5)
        rf.read(16, cycle=6)
        assert rf.stats.bank_conflicts == 0

    def test_multiport_banks_absorb_accesses(self):
        rf = make_rf(banks=16, ports=2)
        rf.read(0, cycle=1)
        rf.read(16, cycle=1)
        assert rf.stats.bank_conflicts == 0
        rf.read(32, cycle=1)
        assert rf.stats.bank_conflicts == 1

    def test_operand_traffic_spreads_across_banks(self):
        rf = make_rf(banks=16)
        conflicts = rf.account_operand_traffic(3, base_reg=0, cycle=9)
        assert conflicts == 0
        assert rf.stats.reads == 3

    def test_operand_traffic_conflicts_with_victim_reads(self):
        """Victim cache reads share banks with operands — the source
        of Linebacker's extra conflicts (paper Figure 16)."""
        rf = make_rf(banks=16)
        rf.read(512, cycle=3)  # victim line in bank 0
        conflicts = rf.account_operand_traffic(1, base_reg=0, cycle=3)
        assert conflicts == 1
