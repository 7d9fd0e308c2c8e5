"""Unit tests for the Victim Tag Table and its partitions."""

import sys
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.victim_tag_table import VictimTagTable

sys.path.insert(0, str(Path(__file__).parent))
from reference_vtt import VictimTagTable as DenseVictimTagTable  # noqa: E402


def make_vtt(num_sets=48, ways=4, partitions=8, offset=512, total=2048):
    return VictimTagTable(
        num_sets=num_sets,
        ways=ways,
        max_partitions=partitions,
        register_offset=offset,
        total_registers=total,
    )


def activate_all(vtt):
    for vp in vtt.partitions:
        vtt.activate(vp.index)


class TestGeometry:
    def test_paper_partition_geometry(self):
        """48 sets x 4 ways = 192 entries per VP, up to 8 VPs
        covering registers 512..2047 (paper Section 4.1)."""
        vtt = make_vtt()
        assert len(vtt.partitions) == 8
        assert all(vp.num_entries == 192 for vp in vtt.partitions)
        assert vtt.partitions[0].base_rn == 512
        assert vtt.partitions[-1].register_range.stop == 2048

    def test_partition_skipped_when_out_of_registers(self):
        vtt = make_vtt(total=1024)
        # Registers 512..1023 fit only 2 partitions of 192 + partial.
        assert len(vtt.partitions) == 2

    def test_equation_2_register_mapping(self):
        """RN = Offset + N * entries + X * ways + Y (paper Eq. 2)."""
        vtt = make_vtt()
        vp = vtt.partitions[3]
        assert vp.register_number(set_idx=10, way=2) == 512 + 3 * 192 + 10 * 4 + 2

    def test_register_mapping_is_injective(self):
        vtt = make_vtt()
        rns = {
            vp.register_number(x, y)
            for vp in vtt.partitions
            for x in range(vp.num_sets)
            for y in range(vp.ways)
        }
        assert len(rns) == 8 * 192

    def test_storage_bits_match_paper(self):
        """Section 4.2: 1536 entries x 24 bits = 4608 bytes."""
        vtt = make_vtt()
        assert vtt.storage_bits() / 8 == 4608


class TestLookupInsert:
    def test_insert_then_lookup_hits(self):
        vtt = make_vtt()
        activate_all(vtt)
        rn = vtt.insert(1000)
        hit = vtt.lookup(1000)
        assert hit is not None
        assert hit[0] == rn

    def test_lookup_miss(self):
        vtt = make_vtt()
        activate_all(vtt)
        assert vtt.lookup(123) is None

    def test_insert_without_active_partition_returns_none(self):
        vtt = make_vtt()
        assert vtt.insert(5) is None

    def test_sequential_search_latency_grows_with_partition(self):
        """Searching VPs is sequential, 3 cycles each (Table 3)."""
        vtt = make_vtt(num_sets=2, ways=1, partitions=4, offset=512, total=2048)
        activate_all(vtt)
        set0_addrs = [0, 2, 4, 6]  # all map to set 0
        rns = [vtt.insert(a) for a in set0_addrs]
        latencies = [vtt.lookup(a)[1] for a in set0_addrs]
        assert latencies == [3, 6, 9, 12]

    def test_reinsert_same_line_refreshes(self):
        vtt = make_vtt()
        activate_all(vtt)
        rn1 = vtt.insert(77)
        rn2 = vtt.insert(77)
        assert rn1 == rn2
        assert vtt.stats.inserts == 1

    def test_lru_eviction_within_set(self):
        vtt = make_vtt(num_sets=2, ways=2, partitions=1, offset=512, total=1024)
        vtt.activate(0)
        vtt.insert(0)
        vtt.insert(2)   # same set, second way
        vtt.lookup(0)   # refresh 0
        vtt.insert(4)   # evicts 2 (LRU)
        assert vtt.lookup(2) is None
        assert vtt.lookup(0) is not None

    def test_invalidated_entry_reused_in_priority(self):
        """Store-invalidated entries are replaced first (paper's store
        handling policy)."""
        vtt = make_vtt(num_sets=2, ways=2, partitions=1, offset=512, total=1024)
        vtt.activate(0)
        rn_a = vtt.insert(0)
        vtt.insert(2)
        invalidated_rn = vtt.invalidate(0)
        assert invalidated_rn == rn_a
        rn_new = vtt.insert(4)
        assert rn_new == rn_a  # reused the invalidated slot
        assert vtt.lookup(2) is not None  # valid entry untouched


class TestStoreInvalidation:
    def test_invalidate_removes_entry(self):
        vtt = make_vtt()
        activate_all(vtt)
        vtt.insert(55)
        assert vtt.invalidate(55) is not None
        assert vtt.lookup(55) is None

    def test_invalidate_missing_line_is_none(self):
        vtt = make_vtt()
        activate_all(vtt)
        assert vtt.invalidate(99) is None


class TestPartitionManagement:
    def test_activation_clears_entries(self):
        vtt = make_vtt()
        vtt.activate(0)
        vtt.insert(10)
        vtt.deactivate(0)
        vtt.activate(0)
        assert vtt.lookup(10) is None

    def test_sync_with_free_registers(self):
        vtt = make_vtt()
        free_above = 512 + 2 * 192  # first two partitions' registers busy
        vtt.sync_with_free_registers(lambda regs: regs.start >= free_above)
        active = [vp.index for vp in vtt.active_partitions()]
        assert active == [2, 3, 4, 5, 6, 7]

    def test_sync_deactivates_on_allocation(self):
        vtt = make_vtt()
        vtt.sync_with_free_registers(lambda regs: True)
        assert len(vtt.active_partitions()) == 8
        vtt.sync_with_free_registers(lambda regs: regs.start >= 1000)
        assert all(vp.base_rn >= 1000 for vp in vtt.active_partitions())

    def test_capacity_tracks_active_partitions(self):
        vtt = make_vtt()
        assert vtt.active_capacity_lines() == 0
        vtt.activate(0)
        vtt.activate(5)
        assert vtt.active_capacity_lines() == 2 * 192

    def test_set_index_matches_l1(self):
        vtt = make_vtt(num_sets=48)
        assert vtt.set_index(48 * 7 + 13) == 13


# ---------------------------------------------------------------------------
# An oracle that is not the implementation: the dense tag array of
# tests/reference_vtt.py (one object per entry, nested-loop search,
# explicit LRU stamps) is driven with the same operations and must
# agree on every observable after every one of them.
# ---------------------------------------------------------------------------
# Mostly line traffic: an ``invalidate_all`` or ``sync`` every few ops
# would keep the sets too empty to ever reach the LRU victim rule.
_OP_MIX = (
    ["lookup"] * 6 + ["insert"] * 8 + ["invalidate"] * 2
    + ["activate"] * 2 + ["deactivate", "sync", "invalidate_all"]
)
_vtt_ops = st.lists(
    st.tuples(st.sampled_from(_OP_MIX), st.integers(min_value=0, max_value=1 << 16)),
    min_size=30,  # hypothesis' default list sizes rarely fill a set
    max_size=150,
)


def _dense_valid_lines(dense):
    return {
        (e.tag * dense.num_sets + s, vp.index, s, w)
        for vp in dense.partitions
        for s, ways in enumerate(vp.entries)
        for w, e in enumerate(ways)
        if e.valid
    }


def _observables(vtt, valid_lines):
    return (
        astuple(vtt.stats),
        [(vp.active, vp.hits) for vp in vtt.partitions],
        vtt.active_capacity_lines(),
        vtt.valid_entries(),
        valid_lines,
    )


class TestAgainstDenseReference:
    @pytest.mark.parametrize("num_sets,ways,partitions", [(2, 1, 4), (8, 2, 2), (48, 4, 8)])
    @given(ops=_vtt_ops, start_active=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_every_observable_agrees_after_every_op(
        self, num_sets, ways, partitions, ops, start_active
    ):
        sparse = make_vtt(num_sets, ways, partitions)
        dense = DenseVictimTagTable(
            num_sets=num_sets, ways=ways, max_partitions=partitions,
            register_offset=512, total_registers=2048,
        )
        assert len(sparse.partitions) == len(dense.partitions) == partitions
        if start_active:
            activate_all(sparse)
            activate_all(dense)
        capacity = num_sets * ways * partitions
        hot_sets = min(num_sets, 3)
        tags = ways * partitions + 3  # a few more lines than one set holds

        for step, (op, arg) in enumerate(ops):
            if op in ("lookup", "insert", "invalidate"):
                # Few sets, few tags: sets fill up, hit, and evict.
                line = (arg // hot_sets % tags) * num_sets + arg % hot_sets
                got, want = getattr(sparse, op)(line), getattr(dense, op)(line)
            elif op in ("activate", "deactivate"):
                got = getattr(sparse, op)(arg % partitions)
                want = getattr(dense, op)(arg % partitions)
            elif op == "invalidate_all":
                got = sparse.invalidate_all()
                want = None
                for vp in dense.partitions:
                    vp.invalidate_all()
            else:
                # Two busy registers: at most two partitions lose their range.
                busy = {512 + arg % capacity, 512 + arg // capacity % capacity}
                got = sparse.sync_with_free_registers(
                    lambda regs: not any(rn in regs for rn in busy)
                )
                want = dense.sync_with_free_registers(lambda rn: rn not in busy)
            assert got == want, f"step {step}: {op}({arg}) returned {got}, oracle {want}"
            assert _observables(sparse, set(sparse.valid_lines())) == _observables(
                dense, _dense_valid_lines(dense)
            ), f"step {step}: state diverged after {op}({arg})"
            # The occupancy masks are exactly the slots in the tag maps.
            masks = [0] * num_sets
            for _line, p, s, w in sparse.valid_lines():
                masks[s] |= 1 << (p * ways + w)
            assert masks == sparse.occupancy_masks()
