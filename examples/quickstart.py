#!/usr/bin/env python3
"""Quickstart: simulate one kernel on the baseline GPU and under
Linebacker, and compare.

Run:
    python examples/quickstart.py
"""

from repro.config import scaled_config
from repro.core import linebacker_factory
from repro.gpu import run_kernel
from repro.options import RunOptions
from repro.workloads import kernel_for


def main() -> None:
    # A proportionally scaled 4-SM machine (per-SM structures at the
    # paper's Table 1 sizes; shared L2/DRAM scaled with the SM count).
    config = scaled_config()

    # KMeans from the 20-app suite: a cache-sensitive kernel whose
    # shared centroid array thrashes the 48 KB L1 at full occupancy.
    kernel = kernel_for("KM", scale=0.5)

    print(f"Simulating {kernel.name}: {kernel.num_ctas} CTAs x "
          f"{kernel.warps_per_cta} warps, {kernel.regs_per_thread} regs/thread")

    baseline = run_kernel(config, kernel)
    print("\n-- Baseline GPU --")
    print(f"cycles            {baseline.cycles}")
    print(f"IPC               {baseline.ipc:.2f}")
    print(f"L1 hit ratio      {baseline.l1_hit_ratio:.1%}")
    print(f"off-chip traffic  {baseline.traffic.total_bytes / 1024:.0f} KB")

    linebacker = run_kernel(
        config,
        kernel,
        extension_factory=linebacker_factory(config.linebacker),
        options=RunOptions(keep_objects=True),
    )
    ext = linebacker.extensions[0]
    print("\n-- Linebacker --")
    print(f"cycles            {linebacker.cycles}")
    print(f"IPC               {linebacker.ipc:.2f}")
    print(f"L1 hit ratio      {linebacker.l1_hit_ratio:.1%}")
    print(f"victim (Reg) hits {linebacker.victim_hit_ratio:.1%} of requests")
    print(f"off-chip traffic  {linebacker.traffic.total_bytes / 1024:.0f} KB")
    print(f"monitor state     {ext.load_monitor.state.value}")
    print(f"CTA throttles     {ext.stats.throttle_events} "
          f"(reactivations {ext.stats.reactivate_events})")

    speedup = linebacker.ipc / baseline.ipc
    print(f"\nLinebacker speedup over baseline: {speedup:.2f}x")


if __name__ == "__main__":
    main()
