"""Analytic workload classifier: re-derives the paper's Fig 1-4 load
characteristics (streaming, coalescing, sharing scope, per-warp
consistency, statically-unused register fraction) from trace prefixes,
and pins that all 20 built-in apps land in their published classes
under the same gates every fuzzed workload passes."""

import sys
from pathlib import Path

import pytest

from repro.workloads.classify import (
    STREAMING_MISS_THRESHOLD,
    classify_kernel,
    classify_workload,
)
from repro.workloads.fuzz import check_gates
from repro.workloads.generator import LoadSpec, Pattern, Scope
from repro.workloads.spec import build_workload
from repro.workloads.suite import ALL_APPS, APP_SPECS

sys.path.insert(0, str(Path(__file__).parent))
from workload_helpers import make_app  # noqa: E402


def classify_one(load, iters=40, warps=2, ctas=4, regs=8):
    kernel = build_workload(
        make_app(load, iters=iters, warps=warps, ctas=ctas, regs=regs)
    )
    return classify_kernel(kernel)


class TestSyntheticLoads:
    def test_stream_classifies_streaming(self):
        c = classify_one(LoadSpec(0x100, Pattern.STREAM, 0))
        lc = c.load_class(0x100)
        assert lc.streaming
        assert lc.infinite_miss_ratio > STREAMING_MISS_THRESHOLD
        assert lc.unique_lines == lc.line_touches  # never revisits
        assert lc.sharing == "private"

    def test_small_reuse_is_not_streaming(self):
        lc = classify_one(LoadSpec(0x100, Pattern.REUSE, 8)).load_class(0x100)
        assert not lc.streaming
        assert lc.reuse_factor > 1.0

    def test_sharing_scopes(self):
        assert classify_one(
            LoadSpec(0x100, Pattern.REUSE, 9, Scope.WARP)
        ).load_class(0x100).sharing == "private"
        assert classify_one(
            LoadSpec(0x100, Pattern.REUSE, 9, Scope.CTA)
        ).load_class(0x100).sharing == "intra-cta"
        assert classify_one(
            LoadSpec(0x100, Pattern.REUSE, 9, Scope.GLOBAL)
        ).load_class(0x100).sharing == "inter-cta"

    def test_uncoalesced_detection(self):
        c = classify_one(LoadSpec(0x100, Pattern.DIVERGENT, 48,
                                  lines_per_access=3))
        lc = c.load_class(0x100)
        assert lc.uncoalesced
        assert lc.mean_lines_per_access == pytest.approx(3.0)
        single = classify_one(LoadSpec(0x100, Pattern.REUSE, 8))
        assert not single.load_class(0x100).uncoalesced

    def test_register_fraction_tracks_pressure(self):
        light = classify_kernel(build_workload(make_app(
            LoadSpec(0x100, Pattern.REUSE, 8), regs=8)))
        heavy = classify_kernel(build_workload(make_app(
            LoadSpec(0x100, Pattern.REUSE, 8), regs=64)))
        assert 0.0 <= heavy.unused_register_fraction
        assert heavy.unused_register_fraction <= light.unused_register_fraction
        assert light.unused_register_fraction <= 1.0

    def test_streaming_pcs_helper(self):
        c = classify_kernel(build_workload(make_app(
            (LoadSpec(0x100, Pattern.STREAM, 0),
             LoadSpec(0x204, Pattern.REUSE, 8)),
            iters=40,
        )))
        assert c.streaming_pcs == (0x100,)


class TestMultiTenantSampling:
    def test_both_tenants_observed(self):
        from repro.workloads.spec import (
            KernelPhase,
            TenantSpec,
            WorkloadSpec,
        )

        spec = WorkloadSpec(
            name="mt", description="", num_ctas=6, warps_per_cta=2,
            regs_per_thread=16,
            tenants=(
                TenantSpec(name="a", phases=(KernelPhase(
                    iterations=12,
                    loads=(LoadSpec(0x100, Pattern.REUSE, 8),)),)),
                TenantSpec(name="b", phases=(KernelPhase(
                    iterations=12,
                    loads=(LoadSpec(0x300, Pattern.STREAM, 0),)),)),
            ),
        )
        c = classify_workload(spec)
        assert {lc.pc for lc in c.loads} == {0x100, 0x300}
        assert c.load_class(0x300).streaming
        assert not c.load_class(0x100).streaming


class TestPublishedClasses:
    """The headline gate: every Table-2 app must re-derive its
    published Fig 1-4 characteristics from its own trace prefix."""

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_app_lands_in_published_class(self, name):
        problems, _ = check_gates(APP_SPECS[name])
        assert not problems, f"{name}: {problems}"
