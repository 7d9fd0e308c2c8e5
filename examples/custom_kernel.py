#!/usr/bin/env python3
"""Define a custom kernel model and watch Linebacker's mechanisms work.

This example declares a tiled stencil-style kernel from scratch as a
``WorkloadSpec`` — the same type the 20 Table-2 apps are — with a hot
shared lookup table, per-CTA tiles, and a streaming input, builds it
with ``build_workload``, then inspects what Linebacker's Load Monitor
selected, how much idle register space became victim cache, and what
that did to the memory system.

Run:
    python examples/custom_kernel.py
"""

from repro.config import scaled_config
from repro.core import linebacker_factory
from repro.gpu import run_kernel
from repro.gpu.isa import hashed_pc
from repro.options import RunOptions
from repro.workloads import (
    KernelPhase,
    LoadSpec,
    Pattern,
    Scope,
    StoreSpec,
    TenantSpec,
    WorkloadSpec,
    build_workload,
)

LOOKUP_PC = 0x100   # hot shared table: high locality, should be selected
TILE_PC = 0x204     # per-CTA tile with reuse: should be selected
STREAM_PC = 0x308   # streaming input: must be filtered out
STORE_PC = 0x510


def main() -> None:
    loop = KernelPhase(
        iterations=80,
        alu_per_iteration=3,
        loads=(
            LoadSpec(LOOKUP_PC, Pattern.DIVERGENT, working_set_lines=320,
                     scope=Scope.GLOBAL, lines_per_access=1),
            LoadSpec(TILE_PC, Pattern.DIVERGENT, working_set_lines=48,
                     scope=Scope.CTA, lines_per_access=1),
            LoadSpec(STREAM_PC, Pattern.STREAM),
        ),
        stores=(StoreSpec(STORE_PC, every_iterations=10),),
    )
    spec = WorkloadSpec(
        name="stencil",
        description="tiled stencil with a shared lookup table",
        num_ctas=96,
        warps_per_cta=8,
        regs_per_thread=16,   # leaves 128 KB of SUR for victim caching
        tenants=(TenantSpec(name="main", phases=(loop,)),),
    )
    kernel = build_workload(spec)
    config = scaled_config()

    baseline = run_kernel(config, kernel)
    result = run_kernel(
        config,
        kernel,
        extension_factory=linebacker_factory(config.linebacker),
        options=RunOptions(keep_objects=True),
    )
    ext = result.extensions[0]

    print("== Load Monitor classification ==")
    names = {LOOKUP_PC: "lookup table", TILE_PC: "tile", STREAM_PC: "stream"}
    for pc, name in names.items():
        selected = ext.load_monitor.is_selected(hashed_pc(pc))
        print(f"  {name:14s} (pc={pc:#x}, hpc={hashed_pc(pc):2d}): "
              f"{'selected — victim cached' if selected else 'not selected'}")
    print(f"  monitoring took {ext.load_monitor.windows_elapsed} windows")

    print("\n== Victim cache ==")
    print(f"  active VTT partitions : {len(ext.vtt.active_partitions())} "
          f"({ext.vtt.active_capacity_lines() * 128 // 1024} KB of register file)")
    print(f"  victim inserts        : {ext.stats.victim_inserts}")
    print(f"  victim (Reg) hits     : {ext.stats.victim_hits}")
    print(f"  CTA throttle events   : {ext.stats.throttle_events}")

    print("\n== Memory system effect ==")
    print(f"  L1+victim hit ratio   : {baseline.l1_hit_ratio:.1%} -> "
          f"{result.l1_hit_ratio + result.victim_hit_ratio:.1%}")
    print(f"  off-chip traffic      : {baseline.traffic.total_lines} -> "
          f"{result.traffic.total_lines} lines "
          f"({result.traffic.register_overhead_lines} backup/restore)")
    print(f"  IPC                   : {baseline.ipc:.2f} -> {result.ipc:.2f} "
          f"({result.ipc / baseline.ipc:.2f}x)")


if __name__ == "__main__":
    main()
