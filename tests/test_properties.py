"""Property-based tests (hypothesis) on core data structures.

These pin the invariants the rest of the system leans on: cache
contents are always a subset of what was inserted, LRU never exceeds
capacity, MSHR merge/release conservation, victim-tag register mapping
stays inside the configured range and is injective, backup/restore is
a lossless round trip, and the hashed PC always fits its width.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.core.backup import RegisterBackupEngine
from repro.core.victim_tag_table import VictimTagTable
from repro.gpu.isa import hashed_pc
from repro.gpu.register_file import RegisterFile
from repro.memory.cache import SetAssociativeCache
from repro.memory.mshr import MSHRFile
from repro.memory.subsystem import MemorySubsystem
from repro.workloads.generator import LoadSpec, Pattern, Scope, build_kernel

sys.path.insert(0, str(Path(__file__).parent))
from workload_helpers import lines_of, make_app  # noqa: E402

addresses = st.integers(min_value=0, max_value=1 << 20)


class TestCacheProperties:
    @given(st.lists(addresses, max_size=200))
    def test_contents_subset_of_fills(self, addrs):
        cache = SetAssociativeCache(4 * 1024, 4)
        for a in addrs:
            cache.fill(a)
        assert set(cache.resident_lines()) <= set(addrs)

    @given(st.lists(addresses, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = SetAssociativeCache(2 * 1024, 2)
        capacity = cache.num_sets * cache.assoc
        for a in addrs:
            cache.fill(a)
            assert cache.occupancy() <= capacity

    @given(st.lists(addresses, min_size=1, max_size=200))
    def test_most_recent_fill_always_resident(self, addrs):
        cache = SetAssociativeCache(2 * 1024, 2)
        for a in addrs:
            cache.fill(a)
        assert cache.probe(addrs[-1]) is not None

    @given(st.lists(addresses, max_size=200))
    def test_hits_plus_misses_equals_lookups(self, addrs):
        cache = SetAssociativeCache(2 * 1024, 2)
        for i, a in enumerate(addrs):
            cache.lookup(a)
            if i % 2:
                cache.fill(a)
        assert cache.stats.hits + cache.stats.misses == len(addrs)

    @given(st.lists(addresses, max_size=200))
    def test_cold_plus_capacity_equals_misses(self, addrs):
        cache = SetAssociativeCache(1 * 1024, 2)
        for i, a in enumerate(addrs):
            cache.lookup(a)
            cache.fill(a)
        s = cache.stats
        assert s.cold_misses + s.capacity_conflict_misses == s.misses

    @given(st.lists(addresses, max_size=100))
    def test_eviction_conservation(self, fills):
        """Every fill that created a new entry either remains resident
        or was evicted through the hook (lines can cycle repeatedly)."""
        evicted = []
        cache = SetAssociativeCache(
            1 * 1024, 2, eviction_hook=lambda a, l: evicted.append(a)
        )
        new_fills = 0
        for a in fills:
            if cache.probe(a) is None:
                new_fills += 1
            cache.fill(a)
        assert new_fills == cache.occupancy() + len(evicted)
        assert set(evicted) <= set(fills)


class TestMSHRProperties:
    @given(st.lists(st.tuples(addresses, st.integers(0, 100)), max_size=150))
    def test_waiter_conservation(self, ops):
        mshr = MSHRFile(16)
        registered = {}
        for addr, waiter in ops:
            if mshr.can_allocate(addr):
                mshr.allocate(addr, waiter)
                registered.setdefault(addr, []).append(waiter)
        for addr, waiters in registered.items():
            assert mshr.release(addr) == waiters
        assert mshr.occupancy == 0

    @given(st.lists(addresses, max_size=150))
    def test_occupancy_bounded(self, addrs):
        mshr = MSHRFile(8)
        for a in addrs:
            if mshr.can_allocate(a):
                mshr.allocate(a, "w")
            assert mshr.occupancy <= 8


class TestVTTProperties:
    @given(st.lists(addresses, max_size=300))
    @settings(max_examples=50)
    def test_register_numbers_stay_in_range(self, addrs):
        vtt = VictimTagTable(num_sets=48, ways=4, max_partitions=8)
        for vp in vtt.partitions:
            vtt.activate(vp.index)
        for a in addrs:
            rn = vtt.insert(a)
            assert rn is not None
            assert 512 <= rn < 2048

    @given(st.lists(addresses, max_size=300))
    @settings(max_examples=50)
    def test_lookup_returns_register_of_inserted_line(self, addrs):
        vtt = VictimTagTable(num_sets=16, ways=2, max_partitions=2, total_registers=2048)
        for vp in vtt.partitions:
            vtt.activate(vp.index)
        mapping = {}
        for a in addrs:
            rn = vtt.insert(a)
            mapping[a] = rn
        # Whatever remains resident must map to the register it was
        # assigned at insertion (unless reassigned by a later insert).
        for a in set(addrs):
            hit = vtt.lookup(a)
            if hit is not None:
                rn, _latency = hit
                assert rn == mapping[a]

    @given(st.lists(addresses, max_size=200))
    @settings(max_examples=50)
    def test_no_two_valid_entries_share_a_register(self, addrs):
        vtt = VictimTagTable(num_sets=8, ways=2, max_partitions=2, total_registers=2048)
        for vp in vtt.partitions:
            vtt.activate(vp.index)
        for a in addrs:
            vtt.insert(a)
        rns = [
            vtt.partitions[p].register_number(s, w)
            for _line, p, s, w in vtt.valid_lines()
        ]
        assert len(rns) == vtt.valid_entries()
        assert len(rns) == len(set(rns))

    @given(st.lists(addresses, max_size=200), addresses)
    @settings(max_examples=50)
    def test_invalidate_then_lookup_misses(self, addrs, target):
        vtt = VictimTagTable(num_sets=16, ways=4, max_partitions=4)
        for vp in vtt.partitions:
            vtt.activate(vp.index)
        for a in addrs:
            vtt.insert(a)
        vtt.insert(target)
        vtt.invalidate(target)
        assert vtt.lookup(target) is None


class TestBackupProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_backup_restore_roundtrip_lossless(self, values):
        memory = MemorySubsystem(GPUConfig(num_sms=1))
        engine = RegisterBackupEngine(memory)
        rf = RegisterFile(256 * 1024)
        regs = rf.allocate(len(values), owner=0)
        for r, v in zip(regs, values):
            rf.write(r, v)
        events = []
        record = engine.backup(rf, regs, 0, lambda c: None, lambda t, cb: events.append((t, cb)))
        for t, cb in sorted(events, key=lambda e: e[0]):
            cb(t)
        events.clear()
        rf.free(regs)
        new_regs = rf.allocate(len(values), owner=1)
        engine.restore(
            record, rf, new_regs, 0,
            lambda c: None, lambda t, cb: events.append((t, cb)),
        )
        for t, cb in sorted(events, key=lambda e: e[0]):
            cb(t)
        assert [rf.peek(r) for r in new_regs] == values


class TestHashedPCProperties:
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1), st.integers(1, 16))
    def test_always_fits_width(self, pc, bits):
        assert 0 <= hashed_pc(pc, bits) < (1 << bits)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_stable(self, pc):
        assert hashed_pc(pc) == hashed_pc(pc)


class TestRegisterFileProperties:
    @given(st.lists(st.integers(1, 64), max_size=20))
    @settings(max_examples=50)
    def test_allocations_never_overlap(self, sizes):
        rf = RegisterFile(64 * 1024)
        owned = {}
        for i, n in enumerate(sizes):
            rng = rf.allocate(n, owner=i)
            if rng is None:
                continue
            for r in rng:
                assert r not in owned, "overlapping allocation"
                owned[r] = i
        for r, o in owned.items():
            assert rf.owner_of(r) == o

    @given(st.lists(st.integers(1, 32), min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_free_then_alloc_reuses_space(self, sizes):
        rf = RegisterFile(16 * 1024)
        ranges = [rf.allocate(n, owner=i) for i, n in enumerate(sizes)]
        for rng in ranges:
            if rng is not None:
                rf.free(rng)
        assert rf.allocated_count() == 0
        total = sum(sizes)
        if total <= rf.num_registers:
            assert rf.allocate(total, owner=99) is not None


class TestGeneratorProperties:
    """Workload-generator invariants the classifier and fuzzer gates
    lean on: streams never revisit, reuse stays inside its declared
    working set, per-entity scopes never alias, and generation is a
    pure function of the spec."""

    @given(st.integers(1, 60), st.integers(1, 3), st.integers(2, 4),
           st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_stream_never_revisits_a_line(self, iters, weight, warps, ctas):
        spec = make_app(
            LoadSpec(0x100, Pattern.STREAM, 0, weight=weight),
            iters=iters, warps=warps, ctas=ctas,
        )
        kernel = build_kernel(spec)
        seen = set()
        for cta in range(ctas):
            for warp in range(warps):
                for line in lines_of(kernel, cta, warp):
                    assert line not in seen, "stream revisited a line"
                    seen.add(line)

    @given(st.integers(1, 96), st.integers(1, 7), st.integers(1, 4),
           st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_reuse_stays_within_working_set(self, ws, stride, burst, iters):
        spec = make_app(
            LoadSpec(0x100, Pattern.REUSE, ws, stride=stride,
                     reuse_burst=burst),
            iters=iters, warps=2, ctas=2,
        )
        kernel = build_kernel(spec)
        lines = set(lines_of(kernel, 0, 0)) | set(lines_of(kernel, 1, 1))
        assert len(lines) <= 2 * ws  # GLOBAL scope: one region, phase-shifted

        scoped = make_app(
            LoadSpec(0x100, Pattern.REUSE, ws, Scope.WARP, stride=stride,
                     reuse_burst=burst),
            iters=iters, warps=2, ctas=2,
        )
        k2 = build_kernel(scoped)
        for cta in range(2):
            for warp in range(2):
                assert len(set(lines_of(k2, cta, warp))) <= ws

    @given(st.integers(1, 32), st.integers(1, 40),
           st.sampled_from([Pattern.REUSE, Pattern.DIVERGENT]))
    @settings(max_examples=40, deadline=None)
    def test_warp_and_cta_scopes_never_alias(self, ws, iters, pattern):
        spec = make_app(
            LoadSpec(0x100, pattern, ws, Scope.WARP),
            iters=iters, warps=2, ctas=2,
        )
        kernel = build_kernel(spec)
        per_warp = [
            set(lines_of(kernel, cta, warp))
            for cta in range(2) for warp in range(2)
        ]
        for i in range(len(per_warp)):
            for j in range(i + 1, len(per_warp)):
                assert not (per_warp[i] & per_warp[j]), "warp regions alias"

        cta_spec = make_app(
            LoadSpec(0x100, pattern, ws, Scope.CTA),
            iters=iters, warps=2, ctas=3,
        )
        k2 = build_kernel(cta_spec)
        per_cta = [
            set(lines_of(k2, cta, 0)) | set(lines_of(k2, cta, 1))
            for cta in range(3)
        ]
        for i in range(len(per_cta)):
            for j in range(i + 1, len(per_cta)):
                assert not (per_cta[i] & per_cta[j]), "CTA regions alias"

    @given(st.integers(0, 2), st.integers(0, 1), st.integers(1, 30),
           st.sampled_from([Pattern.STREAM, Pattern.REUSE, Pattern.DIVERGENT]))
    @settings(max_examples=40, deadline=None)
    def test_trace_generation_is_deterministic(self, cta, warp, iters, pattern):
        ws = 0 if pattern is Pattern.STREAM else 16
        spec = make_app(
            LoadSpec(0x100, pattern, ws, lines_per_access=2),
            iters=iters, warps=2, ctas=3,
        )
        k1, k2 = build_kernel(spec), build_kernel(spec)
        assert list(k1.materialize(cta, warp)) == list(k2.materialize(cta, warp))
