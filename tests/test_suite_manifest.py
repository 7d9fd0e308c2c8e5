"""Manifest pinning for the 20-app suite and the test-module registry.

The figure benchmarks compare architectures *on these workloads*; a
silent change to an app's parameters would shift every measured number
without any test noticing. This file pins the structural manifest —
grid shapes, register pressure classes, load patterns — so calibration
changes are deliberate (and update this manifest alongside).

It also pins :data:`TEST_MODULES`, the registry of test files in this
directory: a test module that is added without being registered here
(or registered but deleted) fails loudly, so CI job definitions that
enumerate modules explicitly (e.g. the distributed job) can never
silently drift out of sync with the tree.
"""

from pathlib import Path

from repro.config import GPUConfig
from repro.gpu.trace import hardware_occupancy
from repro.workloads.generator import Pattern
from repro.workloads.suite import APP_SPECS, kernel_for

#: Every test module in ``tests/``; update alongside adding/removing files.
TEST_MODULES = {
    "test_analysis",
    "test_api",
    "test_arch_matrix",
    "test_backends",
    "test_backup",
    "test_baselines",
    "test_cache",
    "test_capability_flags",
    "test_ccws",
    "test_charts",
    "test_classify",
    "test_cli",
    "test_combos",
    "test_config",
    "test_context_callers",
    "test_cta_throttle",
    "test_derived_jobs",
    "test_distributed",
    "test_dram_l2",
    "test_dram_timing",
    "test_extension",
    "test_failure_paths",
    "test_fleet",
    "test_fuzz",
    "test_generator_extra",
    "test_golden_equivalence",
    "test_interconnect",
    "test_isa_trace",
    "test_linebacker_integration",
    "test_lint",
    "test_lint_dataflow",
    "test_load_monitor",
    "test_metrics",
    "test_mshr",
    "test_overhead",
    "test_power",
    "test_properties",
    "test_register_file",
    "test_results_api",
    "test_runner",
    "test_service",
    "test_sm_integration",
    "test_stats",
    "test_suite_manifest",
    "test_victim_tag_table",
    "test_warp_scheduler",
    "test_workflow_protocol",
    "test_workload_spec",
    "test_workloads",
}

#: Importable helper modules that are *not* collected as tests but are
#: part of the test tree's public surface.
SUPPORT_MODULES = {
    "__init__", "fault_injection", "golden", "reference_engine", "reference_vtt",
    "stub_worker", "workload_helpers",
}

#: name -> (num_ctas, warps_per_cta, regs_per_thread, n_loads, has_stream)
MANIFEST = {
    "S2": (192, 4, 16, 3, False),
    "BI": (192, 4, 16, 3, True),
    "AT": (192, 4, 16, 2, False),
    "S1": (192, 4, 16, 2, False),
    "CF": (192, 4, 24, 3, True),
    "GE": (160, 4, 16, 2, False),
    "KM": (192, 4, 16, 3, True),
    "BC": (192, 4, 24, 3, True),
    "MV": (192, 4, 16, 2, False),
    "PF": (192, 4, 24, 3, True),
    "BG": (96, 8, 16, 2, True),
    "LI": (96, 8, 16, 2, True),
    "SR2": (96, 8, 24, 2, True),
    "SP": (96, 8, 16, 3, True),
    "BR": (96, 8, 16, 2, True),
    "FD": (96, 8, 24, 2, True),
    "GA": (160, 4, 16, 2, False),
    "2D": (96, 8, 16, 2, True),
    "SR1": (96, 8, 24, 2, False),
    "HS": (96, 8, 32, 2, True),
}


class TestManifest:
    def test_every_app_matches_pinned_shape(self):
        for name, (ctas, warps, regs, n_loads, has_stream) in MANIFEST.items():
            spec = APP_SPECS[name]
            assert spec.num_ctas == ctas, name
            assert spec.warps_per_cta == warps, name
            assert spec.regs_per_thread == regs, name
            assert len(spec.loads) == n_loads, name
            streams = any(l.pattern is Pattern.STREAM for l in spec.loads)
            assert streams == has_stream, name

    def test_manifest_covers_whole_suite(self):
        assert set(MANIFEST) == set(APP_SPECS)

    def test_test_module_registry_matches_tree(self):
        here = Path(__file__).parent
        on_disk = {p.stem for p in here.glob("*.py")}
        on_disk |= {p.parent.name for p in here.glob("*/__init__.py")}
        registered = TEST_MODULES | SUPPORT_MODULES
        missing = on_disk - registered
        stale = registered - on_disk
        assert not missing, f"unregistered test modules: {sorted(missing)}"
        assert not stale, f"registered but deleted: {sorted(stale)}"

    def test_occupancy_classes(self):
        """Sensitive apps run 16 CTAs/SM (fine throttle steps); the
        8-warp insensitive apps run 8."""
        cfg = GPUConfig()
        for name, spec in APP_SPECS.items():
            occupancy = hardware_occupancy(cfg, kernel_for(name, 0.05))
            if spec.warps_per_cta == 4 and spec.regs_per_thread == 16:
                assert occupancy == 16, name
            elif spec.warps_per_cta == 8:
                assert occupancy == 8, name

    def test_first_instructions_stable(self):
        """Spot-pin the first memory access of a few apps — a cheap
        tripwire for generator-level drift."""
        expectations = {}
        for name in ("S2", "KM", "LI"):
            kernel = kernel_for(name, scale=0.05)
            first_load = next(
                i for i in kernel.materialize(0, 0) if i.is_memory
            )
            expectations[name] = (first_load.pc, first_load.line_addrs)
        # Re-derive: identical inputs must give identical streams.
        for name, (pc, addrs) in expectations.items():
            kernel = kernel_for(name, scale=0.05)
            first_load = next(
                i for i in kernel.materialize(0, 0) if i.is_memory
            )
            assert (first_load.pc, first_load.line_addrs) == (pc, addrs)
