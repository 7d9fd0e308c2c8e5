"""Tests for the synthetic workload suite (paper Table 2 stand-ins)."""

import sys
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.gpu.isa import Op
from repro.gpu.trace import hardware_occupancy
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import build_workload
from repro.workloads.suite import (
    ALL_APPS,
    APP_SPECS,
    CACHE_INSENSITIVE,
    CACHE_SENSITIVE,
    kernel_for,
)

sys.path.insert(0, str(Path(__file__).parent))
from workload_helpers import footprint_bytes, loads_of, make_app  # noqa: E402


class TestSuiteShape:
    def test_twenty_apps(self):
        """Table 2: 10 cache-sensitive + 10 cache-insensitive apps."""
        assert len(ALL_APPS) == 20
        assert len(CACHE_SENSITIVE) == 10
        assert len(CACHE_INSENSITIVE) == 10
        assert CACHE_SENSITIVE + CACHE_INSENSITIVE == ALL_APPS

    def test_paper_app_names(self):
        expected = {
            "S2", "BI", "AT", "S1", "CF", "GE", "KM", "BC", "MV", "PF",
            "BG", "LI", "SR2", "SP", "BR", "FD", "GA", "2D", "SR1", "HS",
        }
        assert set(ALL_APPS) == expected

    def test_every_app_builds(self):
        for name in ALL_APPS:
            kernel = kernel_for(name, scale=0.1)
            assert kernel.num_ctas >= 8

    def test_streaming_apps_have_stream_loads(self):
        """BI, LI, SR2, 2D, HS move large streaming data (Figure 3)."""
        for name in ("BI", "LI", "SR2", "2D", "HS"):
            assert any(l.pattern is Pattern.STREAM for l in loads_of(APP_SPECS[name])), name

    def test_bfs_variants_are_divergent(self):
        for name in ("BC", "BG", "BR"):
            assert any(l.pattern is Pattern.DIVERGENT for l in loads_of(APP_SPECS[name])), name

    def test_scale_shrinks_iterations_only(self):
        full = kernel_for("S2")
        small = kernel_for("S2", scale=0.25)
        assert len(small.materialize(0, 0)) < len(full.materialize(0, 0))
        assert small.num_ctas == full.num_ctas

    def test_unique_pcs_within_each_app(self):
        for name in ALL_APPS:
            pcs = [l.pc for l in loads_of(APP_SPECS[name])]
            assert len(set(pcs)) == len(pcs), name


class TestGeneratedTraces:
    def spec(self, loads, iters=10, warps=2, ctas=2):
        return make_app(loads, iters=iters, warps=warps, ctas=ctas)

    def test_trace_ends_with_exit(self):
        spec = self.spec([LoadSpec(0x100, Pattern.REUSE, 8)])
        kernel = build_workload(spec)
        insts = kernel.materialize(0, 0)
        assert insts[-1].op is Op.EXIT

    def test_reuse_load_stays_in_working_set(self):
        spec = self.spec([LoadSpec(0x100, Pattern.REUSE, 16, Scope.CTA)])
        kernel = build_workload(spec)
        insts = kernel.materialize(1, 0)
        base = (1 << 22) + 1 * 16  # load 0's region, CTA 1's tile
        for inst in insts:
            if inst.op is Op.LOAD:
                assert all(base <= a < base + 16 for a in inst.line_addrs)

    def test_stream_load_never_repeats_a_line(self):
        spec = self.spec([LoadSpec(0x100, Pattern.STREAM, 0)], iters=50)
        kernel = build_workload(spec)
        seen = []
        for inst in kernel.materialize(0, 1):
            if inst.op is Op.LOAD:
                seen.extend(inst.line_addrs)
        assert len(seen) == len(set(seen))

    def test_stream_lines_disjoint_across_warps(self):
        spec = self.spec([LoadSpec(0x100, Pattern.STREAM, 0)], iters=20)
        kernel = build_workload(spec)
        lines_w0 = {a for i in kernel.materialize(0, 0) if i.op is Op.LOAD for a in i.line_addrs}
        lines_w1 = {a for i in kernel.materialize(0, 1) if i.op is Op.LOAD for a in i.line_addrs}
        assert not (lines_w0 & lines_w1)

    def test_global_scope_shared_across_ctas(self):
        spec = self.spec([LoadSpec(0x100, Pattern.REUSE, 8, Scope.GLOBAL)], iters=20)
        kernel = build_workload(spec)
        lines_c0 = {a for i in kernel.materialize(0, 0) if i.op is Op.LOAD for a in i.line_addrs}
        lines_c1 = {a for i in kernel.materialize(1, 0) if i.op is Op.LOAD for a in i.line_addrs}
        assert lines_c0 & lines_c1

    def test_cta_scope_disjoint_across_ctas(self):
        spec = self.spec([LoadSpec(0x100, Pattern.REUSE, 8, Scope.CTA)], iters=20)
        kernel = build_workload(spec)
        lines_c0 = {a for i in kernel.materialize(0, 0) if i.op is Op.LOAD for a in i.line_addrs}
        lines_c1 = {a for i in kernel.materialize(1, 0) if i.op is Op.LOAD for a in i.line_addrs}
        assert not (lines_c0 & lines_c1)

    def test_global_streams_differ_across_ctas(self):
        """Regression: warp k of different CTAs must not produce the
        same (lockstep) global address stream — duplicates merge in the
        MSHRs and never hit."""
        spec = self.spec(
            [LoadSpec(0x100, Pattern.DIVERGENT, 512, Scope.GLOBAL, lines_per_access=1)],
            iters=30,
        )
        kernel = build_workload(spec)
        seq_c0 = [a for i in kernel.materialize(0, 0) if i.op is Op.LOAD for a in i.line_addrs]
        seq_c1 = [a for i in kernel.materialize(1, 0) if i.op is Op.LOAD for a in i.line_addrs]
        assert seq_c0 != seq_c1

    def test_stores_emitted_at_interval(self):
        spec = make_app(
            LoadSpec(0x100, Pattern.REUSE, 8), iters=16, warps=1, ctas=1, alu=1,
            stores=(StoreSpec(0x510, every_iterations=4),),
        )
        kernel = build_workload(spec)
        n_stores = sum(1 for i in kernel.materialize(0, 0) if i.op is Op.STORE)
        assert n_stores == 4

    def test_divergent_emits_multiple_lines(self):
        spec = self.spec([LoadSpec(0x100, Pattern.DIVERGENT, 64, lines_per_access=3)])
        kernel = build_workload(spec)
        loads = [i for i in kernel.materialize(0, 0) if i.op is Op.LOAD]
        assert all(len(i.line_addrs) == 3 for i in loads)

    def test_rejects_app_without_loads(self):
        with pytest.raises(ValueError):
            build_workload(self.spec([]))

    def test_rejects_duplicate_pcs(self):
        with pytest.raises(ValueError):
            build_workload(
                self.spec([LoadSpec(0x100, Pattern.REUSE, 8), LoadSpec(0x100, Pattern.STREAM, 0)])
            )


class TestCalibration:
    def test_sensitive_apps_exceed_l1_at_full_occupancy(self):
        """The defining property of the cache-sensitive class: resident
        reused footprint above the 48 KB L1."""
        cfg = GPUConfig()
        for name in CACHE_SENSITIVE:
            spec = APP_SPECS[name]
            kernel = kernel_for(name, scale=0.1)
            occ = hardware_occupancy(cfg, kernel)
            assert footprint_bytes(spec, occ) > 48 * 1024, name

    def test_some_apps_leave_no_static_register_space(self):
        """Figure 4's spread includes apps with ~0 KB SUR (fully
        occupied register file) — CF by design."""
        from repro.gpu.gpu import statically_unused_register_bytes

        cfg = GPUConfig()
        surs = {
            name: statically_unused_register_bytes(cfg, kernel_for(name, 0.1))
            for name in ALL_APPS
        }
        assert min(surs.values()) <= 8 * 1024
        assert max(surs.values()) >= 96 * 1024
