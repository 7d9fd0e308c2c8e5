"""Unit tests for the register backup/restore engine."""

import pytest

from repro.config import WARP_REGISTER_BYTES, GPUConfig
from repro.core.backup import RegisterBackupEngine
from repro.gpu.register_file import RegisterFile
from repro.memory.subsystem import MemorySubsystem


class Harness:
    """A minimal event loop standing in for the SM's heap."""

    def __init__(self):
        self.memory = MemorySubsystem(GPUConfig(num_sms=1))
        self.memory.hook_synced = True  # as inside a synced hook
        self.engine = RegisterBackupEngine(self.memory)
        self.rf = RegisterFile(256 * 1024)
        self.events = []

    def schedule(self, ready, callback):
        self.events.append((ready, callback))

    def drain(self):
        for ready, callback in sorted(self.events, key=lambda e: e[0]):
            callback(ready)
        self.events.clear()


class TestBackup:
    def test_backup_captures_values_and_sets_c_bit(self):
        h = Harness()
        regs = h.rf.allocate(8, owner=0)
        for i, r in enumerate(regs):
            h.rf.write(r, 100 + i)
        done = []
        record = h.engine.backup(
            h.rf, regs, cycle=0, on_complete=done.append, schedule=h.schedule
        )
        assert not record.complete  # C bit false until the drain
        h.drain()
        assert record.complete
        assert done
        assert record.values == [100 + i for i in range(8)]

    def test_backup_pointer_advances_by_reg_bytes(self):
        """BP += #reg x 128 after each backup (paper Section 4.1)."""
        h = Harness()
        regs = h.rf.allocate(10, owner=0)
        bp_before = h.engine.backup_pointer
        h.engine.backup(h.rf, regs, 0, lambda c: None, h.schedule)
        assert h.engine.backup_pointer == bp_before + 10 * WARP_REGISTER_BYTES

    def test_backup_generates_offchip_write_traffic(self):
        h = Harness()
        regs = h.rf.allocate(16, owner=0)
        h.engine.backup(h.rf, regs, 0, lambda c: None, h.schedule)
        assert h.memory.traffic.backup_write_lines == 16

    def test_backup_completion_takes_dram_time(self):
        h = Harness()
        regs = h.rf.allocate(128, owner=0)
        completions = []
        h.engine.backup(h.rf, regs, 0, completions.append, h.schedule)
        h.drain()
        # 128 lines through the DRAM server cannot complete instantly.
        assert completions[0] > h.memory.config.dram_latency


class TestRestore:
    def _backed_up(self, h, n=8):
        regs = h.rf.allocate(n, owner=0)
        values = []
        for i, r in enumerate(regs):
            h.rf.write(r, 500 + i)
            values.append(500 + i)
        record = h.engine.backup(h.rf, regs, 0, lambda c: None, h.schedule)
        h.drain()
        h.rf.free(regs)
        return record, values

    def test_roundtrip_restores_exact_values(self):
        """End-to-end invariant: a restored CTA sees exactly the
        register tokens it backed up."""
        h = Harness()
        record, values = self._backed_up(h)
        new_regs = h.rf.allocate(8, owner=0)
        done = []
        h.engine.restore(record, h.rf, new_regs, 100, done.append, h.schedule)
        h.drain()
        assert done
        assert [h.rf.peek(r) for r in new_regs] == values

    def test_restore_to_different_location(self):
        """FRN may change across a throttle/restore cycle."""
        h = Harness()
        record, values = self._backed_up(h)
        h.rf.allocate(64, owner=9)  # force a different placement
        new_regs = h.rf.allocate(8, owner=0)
        assert new_regs.start != record.first_register
        h.engine.restore(record, h.rf, new_regs, 0, lambda c: None, h.schedule)
        h.drain()
        assert [h.rf.peek(r) for r in new_regs] == values

    def test_restore_before_backup_complete_raises(self):
        """The C bit gates restores (paper Section 4.1)."""
        h = Harness()
        regs = h.rf.allocate(4, owner=0)
        record = h.engine.backup(h.rf, regs, 0, lambda c: None, h.schedule)
        with pytest.raises(RuntimeError):
            h.engine.restore(record, h.rf, regs, 0, lambda c: None, h.schedule)

    def test_restore_size_mismatch_raises(self):
        h = Harness()
        record, _ = self._backed_up(h, n=8)
        wrong = h.rf.allocate(4, owner=1)
        with pytest.raises(ValueError):
            h.engine.restore(record, h.rf, wrong, 0, lambda c: None, h.schedule)

    def test_restore_generates_read_traffic(self):
        h = Harness()
        record, _ = self._backed_up(h, n=8)
        new_regs = h.rf.allocate(8, owner=0)
        h.engine.restore(record, h.rf, new_regs, 0, lambda c: None, h.schedule)
        assert h.memory.traffic.restore_read_lines == 8

    def test_record_removed_after_restore(self):
        h = Harness()
        record, _ = self._backed_up(h)
        addr = record.backup_address
        new_regs = h.rf.allocate(8, owner=0)
        h.engine.restore(record, h.rf, new_regs, 0, lambda c: None, h.schedule)
        h.drain()
        assert h.engine.stored_record(addr) is None
