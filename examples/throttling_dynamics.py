#!/usr/bin/env python3
"""Visualize the CTA throttling ladder and victim space over time.

Runs one app under Linebacker with per-window timeseries recording on
(``RunOptions(timeseries=True)``) and prints SM0's window rows:
IPC, active/inactive CTA counts, active victim partitions, and the
controller's search phase — the dynamics of the paper's Figure 6
workflow, on a real run.

The same data is available from the CLI as
``python -m repro trace APP linebacker [--json]``.

Run:
    python examples/throttling_dynamics.py [APP]
"""

import sys

from repro.config import scaled_config
from repro.core.linebacker import linebacker_factory
from repro.gpu import run_kernel
from repro.options import RunOptions
from repro.workloads import ALL_APPS, kernel_for


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "GE"
    if app not in ALL_APPS:
        raise SystemExit(f"unknown app {app!r}; choose one of {', '.join(ALL_APPS)}")

    config = scaled_config()
    kernel = kernel_for(app, scale=0.5)
    result = run_kernel(
        config,
        kernel,
        extension_factory=linebacker_factory(config.linebacker),
        options=RunOptions(keep_objects=True, timeseries=True),
    )
    series = result.timeseries[0]

    print(f"{app}: per-window dynamics on SM0 "
          f"(window = {series.window_cycles} cycles)\n")
    print(f"{'cycle':>8} {'IPC':>6} {'act':>4} {'inact':>6} {'VPs':>4} "
          f"{'monitor':>10} {'search':>11}  active-CTA bar")
    for row in series:
        bar = "#" * row["active"] + "." * row["inactive"]
        print(f"{row['cycle']:>8} {row['ipc']:>6.2f} {row['active']:>4} "
              f"{row['inactive']:>6} {row['vps']:>4} {row['state']:>10} "
              f"{row['phase']:>11}  {bar}")

    ext = result.extensions[0]
    print(f"\nfinal: {ext.stats.throttle_events} throttles, "
          f"{ext.stats.reactivate_events} reactivations, "
          f"{ext.stats.victim_hits} victim hits, IPC {result.ipc:.2f}")


if __name__ == "__main__":
    main()
