"""Ablation benchmarks for design choices the paper (or our
reproduction of it) depends on. These go beyond the paper's figures:

* **CCWS vs Best-SWL** — Section 2.4's justification for using the
  static oracle as the main baseline ("Best-SWL has been shown to
  provide better performance than dynamic warp throttling techniques
  such as CCWS").
* **Monitoring window length** — Table 3 fixes 50 000 cycles; the
  scaled config uses 2 000. How sensitive is Linebacker to it?
* **IPC variation bounds** — Table 3's ±10%.
* **DRAM model** — simple (latency+bandwidth) vs bank-level timing
  with Table 1's RCD/RP/RC/RRD/CL/WR/RAS parameters.
* **Victim-hit verification** — end-to-end token check across every
  app in the subset (no victim read may ever return stale data).

A small cache-sensitive subset keeps the runtime bounded. Every run
goes through ``ctx.run(app, arch, ...)``, so the ablations share the
session's memo, persistent cache and workers with the figures.
"""

from dataclasses import replace

from conftest import run_once

from repro.analysis import ExperimentContext, format_series, geomean

APPS = ("S2", "KM", "BC")


def _subset(ctx):
    return [a for a in APPS if a in ctx.apps] or list(ctx.apps[:2])


def test_ablation_ccws_vs_best_swl(benchmark, ctx):
    def run():
        rows = {}
        for app in _subset(ctx):
            oracle = ctx.run(app, "best_swl")
            ccws = ctx.run(app, "ccws")
            rows[app] = ccws.ipc / oracle.ipc
        return rows

    data = run_once(benchmark, run)
    print()
    print(format_series("Ablation: CCWS / Best-SWL (paper: <= 1)", data))
    gm = geomean(data.values())
    print(f"geomean {gm:.3f}")
    assert gm <= 1.10  # the static oracle is the stronger baseline


def test_ablation_window_length(benchmark, ctx):
    def run():
        rows = {}
        base_window = ctx.config.linebacker.window_cycles
        for factor in (0.5, 1.0, 2.0):
            lb = replace(
                ctx.config.linebacker, window_cycles=int(base_window * factor)
            )
            speeds = []
            for app in _subset(ctx):
                result = ctx.run(app, "linebacker", lb_config=lb)
                speeds.append(result.ipc / ctx.run(app, "best_swl").ipc)
            rows[f"{factor}x window"] = geomean(speeds)
        return rows

    data = run_once(benchmark, run)
    print()
    print(format_series("Ablation: monitoring window length (LB/Best-SWL)", data))
    # Linebacker keeps beating the oracle across a 4x window range.
    assert min(data.values()) > 0.9


def test_ablation_ipc_bounds(benchmark, ctx):
    def run():
        rows = {}
        for bound in (0.05, 0.10, 0.20):
            lb = replace(
                ctx.config.linebacker,
                ipc_upper_bound=bound,
                ipc_lower_bound=-bound,
            )
            speeds = []
            for app in _subset(ctx):
                result = ctx.run(app, "linebacker", lb_config=lb)
                speeds.append(result.ipc / ctx.run(app, "best_swl").ipc)
            rows[f"±{bound:.0%}"] = geomean(speeds)
        return rows

    data = run_once(benchmark, run)
    print()
    print(format_series("Ablation: IPC variation bounds (LB/Best-SWL)", data))
    assert min(data.values()) > 0.8


def test_ablation_dram_model(benchmark, ctx):
    def run():
        rows = {}
        for model in ("simple", "timing"):
            cfg = replace(ctx.config, gpu=replace(ctx.config.gpu, dram_model=model))
            model_ctx = ExperimentContext(
                config=cfg, scale=ctx.scale, apps=ctx.apps, runner=ctx.runner
            )
            speeds = []
            for app in _subset(ctx):
                base = model_ctx.run(app, "baseline")
                lb = model_ctx.run(app, "linebacker")
                speeds.append(lb.ipc / base.ipc)
            rows[model] = geomean(speeds)
        return rows

    data = run_once(benchmark, run)
    print()
    print(format_series("Ablation: DRAM model (LB/baseline)", data))
    # The conclusion must not hinge on the DRAM abstraction.
    assert data["simple"] > 1.0
    assert data["timing"] > 1.0


def test_ablation_victim_correctness(benchmark, ctx):
    def run():
        corrupt = 0
        hits = 0
        for app in _subset(ctx):
            result = ctx.run(app, "linebacker")
            for ext in result.extensions:
                corrupt += ext.stats.victim_reads_corrupt
                hits += ext.stats.victim_hits
        return {"victim_hits": hits, "corrupt_reads": corrupt}

    data = run_once(benchmark, run)
    print()
    print(format_series("Ablation: victim data integrity", data))
    assert data["corrupt_reads"] == 0
