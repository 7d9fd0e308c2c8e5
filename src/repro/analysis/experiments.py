"""One runner per paper table/figure.

Each ``run_figN`` function returns a plain data structure (rows the
paper's chart plots) and is wrapped by a benchmark target in
``benchmarks/``. Everything is driven through a shared
:class:`~repro.analysis.context.ExperimentContext`, whose registry API
(``ctx.run(app, arch)``) memoizes through the experiment runner — so
common runs (baseline, Best-SWL, Linebacker) are simulated once per
process and recalled from the persistent cache across processes.

Every figure opens with a ``ctx.run_many``/``ctx.prefetch`` wave
naming all (app, architecture) pairs it needs: with ``workers > 1``
the wave fans out over the process pool; the per-app loops below it
then resolve instantly from the memo.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.context import ExperimentContext, geomean
from repro.config import KB
from repro.gpu.gpu import (
    dynamically_unused_register_bytes,
    statically_unused_register_bytes,
)
from repro.power.energy import estimate_energy

# ---------------------------------------------------------------------------
# Figure 1: cold vs capacity/conflict miss breakdown (baseline)
# ---------------------------------------------------------------------------
def run_fig1(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    """Per app: cold-miss ratio and capacity/conflict (2C) miss ratio."""
    ctx.prefetch(["baseline"])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        result = ctx.run(app, "baseline")
        out[app] = {
            "cold": result.cold_miss_ratio,
            "capacity_conflict": result.capacity_conflict_miss_ratio,
            "total": result.cold_miss_ratio + result.capacity_conflict_miss_ratio,
        }
    return out


# ---------------------------------------------------------------------------
# Figure 2: reused working set of top-4 non-streaming loads (KB per window)
# ---------------------------------------------------------------------------
def run_fig2(ctx: ExperimentContext) -> dict[str, float]:
    ctx.run_many([(app, "baseline", {"track_loads": True}) for app in ctx.apps])
    out: dict[str, float] = {}
    for app in ctx.apps:
        result = ctx.run(app, "baseline", track_loads=True)
        per_sm = [
            sm.load_tracker.top_loads_reused_working_set(4)
            for sm in result.sms
            if sm.load_tracker is not None
        ]
        out[app] = max(per_sm) / KB if per_sm else 0.0
    return out


# ---------------------------------------------------------------------------
# Figure 3: streaming data size per window (KB)
# ---------------------------------------------------------------------------
def run_fig3(ctx: ExperimentContext) -> dict[str, float]:
    ctx.run_many([(app, "baseline", {"track_loads": True}) for app in ctx.apps])
    out: dict[str, float] = {}
    for app in ctx.apps:
        result = ctx.run(app, "baseline", track_loads=True)
        per_sm = [
            sm.load_tracker.mean_streaming_bytes()
            for sm in result.sms
            if sm.load_tracker is not None
        ]
        out[app] = max(per_sm) / KB if per_sm else 0.0
    return out


# ---------------------------------------------------------------------------
# Figure 4: statically and dynamically unused register file (KB)
# ---------------------------------------------------------------------------
def run_fig4(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(["best_swl"])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        kernel = ctx.kernel(app)
        sur = statically_unused_register_bytes(ctx.config.gpu, kernel)
        best = ctx.run(app, "best_swl")
        dur = dynamically_unused_register_bytes(
            ctx.config.gpu, kernel, active_ctas=best.best_limit
        )
        out[app] = {"sur_kb": sur / KB, "dur_kb": dur / KB, "swl_limit": best.best_limit}
    return out


# ---------------------------------------------------------------------------
# Figure 5: CacheExt / Best-SWL / Best-SWL+CacheExt (normalized to baseline)
# ---------------------------------------------------------------------------
def run_fig5(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(["baseline", "best_swl", "cache_ext"])
    # The (SUR+DUR)-enlarged L1 needs each app's oracle limit, so this
    # second wave depends on the Best-SWL results above.
    limits = {app: {"cta_limit": ctx.run(app, "best_swl").best_limit} for app in ctx.apps}
    ctx.run_many([(app, "best_swl_cache_ext", limits[app]) for app in ctx.apps])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        base = ctx.run(app, "baseline").ipc
        out[app] = {
            "best_swl": ctx.run(app, "best_swl").ipc / base,
            "cache_ext": ctx.run(app, "cache_ext").ipc / base,
            "best_swl_cache_ext": ctx.run(app, "best_swl_cache_ext", **limits[app]).ipc / base,
        }
    out["GM"] = {
        key: geomean(out[a][key] for a in ctx.apps)
        for key in ("best_swl", "cache_ext", "best_swl_cache_ext")
    }
    return out


# ---------------------------------------------------------------------------
# Figure 9: Linebacker's victim space and monitoring periods
# ---------------------------------------------------------------------------
def run_fig9(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(["linebacker"])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        result = ctx.run(app, "linebacker")
        kernel = ctx.kernel(app)
        sur = statically_unused_register_bytes(ctx.config.gpu, kernel)
        dyn = geomean(
            max(ext.stats.mean_dynamic_unused_bytes, 1.0) for ext in result.extensions
        )
        periods = max(ext.load_monitor.windows_elapsed for ext in result.extensions)
        out[app] = {
            "sur_kb": sur / KB,
            "dur_kb": dyn / KB if dyn > 1.0 else 0.0,
            "monitoring_periods": periods,
        }
    return out


# ---------------------------------------------------------------------------
# Figure 10: VTT partition set-associativity sweep
# ---------------------------------------------------------------------------
def run_fig10(ctx: ExperimentContext, ways_sweep=(1, 4, 16)) -> dict[int, dict[str, float]]:
    lb_variants = {ways: ctx.config.linebacker.with_ways(ways) for ways in ways_sweep}
    ctx.run_many(
        [(app, "best_swl") for app in ctx.apps]
        + [
            (app, "linebacker", {"lb_config": lb})
            for app in ctx.apps
            for lb in lb_variants.values()
        ]
    )
    out: dict[int, dict[str, float]] = {}
    for ways, lb in lb_variants.items():
        speeds = []
        utils = []
        for app in ctx.apps:
            swl = ctx.run(app, "best_swl").ipc
            result = ctx.run(app, "linebacker", lb_config=lb)
            speeds.append(result.ipc / swl)
            utils.append(
                geomean(
                    max(ext.stats.register_utilization, 1e-3)
                    for ext in result.extensions
                )
            )
        out[ways] = {
            "speedup_vs_best_swl": geomean(speeds),
            "rf_utilization": sum(utils) / len(utils),
        }
    return out


# ---------------------------------------------------------------------------
# Figure 11: Linebacker technique breakdown (normalized to Best-SWL)
# ---------------------------------------------------------------------------
def run_fig11(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(
        ["best_swl", "victim_caching", "selective_victim_caching", "linebacker"]
    )
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        swl = ctx.run(app, "best_swl").ipc
        out[app] = {
            "victim_caching": ctx.run(app, "victim_caching").ipc / swl,
            "selective_victim_caching": ctx.run(app, "selective_victim_caching").ipc
            / swl,
            "throttling_selective_victim_caching": ctx.run(app, "linebacker").ipc
            / swl,
        }
    keys = (
        "victim_caching",
        "selective_victim_caching",
        "throttling_selective_victim_caching",
    )
    out["GM"] = {k: geomean(out[a][k] for a in ctx.apps) for k in keys}
    return out


# ---------------------------------------------------------------------------
# Figure 12: performance versus previous approaches (normalized to Best-SWL)
# ---------------------------------------------------------------------------
def run_fig12(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(["baseline", "best_swl", "pcal", "cerf", "linebacker"])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        swl = ctx.run(app, "best_swl").ipc
        out[app] = {
            "baseline": ctx.run(app, "baseline").ipc / swl,
            "pcal": ctx.run(app, "pcal").ipc / swl,
            "cerf": ctx.run(app, "cerf").ipc / swl,
            "linebacker": ctx.run(app, "linebacker").ipc / swl,
        }
    keys = ("baseline", "pcal", "cerf", "linebacker")
    out["GM"] = {k: geomean(out[a][k] for a in ctx.apps) for k in keys}
    return out


# ---------------------------------------------------------------------------
# Figure 13: request breakdown (hit / miss / bypass / reg hit)
# ---------------------------------------------------------------------------
def run_fig13(ctx: ExperimentContext) -> dict[str, dict[str, dict[str, float]]]:
    ctx.prefetch(["baseline", "best_swl", "pcal", "cerf", "linebacker"])
    out: dict[str, dict[str, dict[str, float]]] = {}
    for app in ctx.apps:
        out[app] = {
            "B": ctx.run(app, "baseline").request_breakdown,
            "S": ctx.run(app, "best_swl").best_result.request_breakdown,
            "P": ctx.run(app, "pcal").request_breakdown,
            "C": ctx.run(app, "cerf").request_breakdown,
            "L": ctx.run(app, "linebacker").request_breakdown,
        }
    return out


# ---------------------------------------------------------------------------
# Figure 14: L1 cache size sweep (LB and CERF speedup over the baseline)
# ---------------------------------------------------------------------------
def run_fig14(
    ctx: ExperimentContext, sizes_kb=(16, 48, 64, 96, 128)
) -> dict[int, dict[str, float]]:
    subs = {
        size_kb: ExperimentContext(
            config=replace(
                ctx.config, gpu=ctx.config.gpu.with_l1_size(size_kb * KB)
            ),
            scale=ctx.scale,
            apps=ctx.apps,
            runner=ctx.runner,  # share the memo/cache/pool across the sweep
        )
        for size_kb in sizes_kb
    }
    ctx.runner.run_many(
        [
            sub.spec(app, arch)
            for sub in subs.values()
            for app in ctx.apps
            for arch in ("baseline", "linebacker", "cerf")
        ]
    )
    out: dict[int, dict[str, float]] = {}
    for size_kb, sub in subs.items():
        lb_speed = []
        cerf_speed = []
        for app in ctx.apps:
            base = sub.run(app, "baseline").ipc
            lb_speed.append(sub.run(app, "linebacker").ipc / base)
            cerf_speed.append(sub.run(app, "cerf").ipc / base)
        out[size_kb] = {
            "linebacker": geomean(lb_speed),
            "cerf": geomean(cerf_speed),
        }
    return out


# ---------------------------------------------------------------------------
# Figure 15: combinations of previous works (normalized to Best-SWL)
# ---------------------------------------------------------------------------
def run_fig15(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(
        [
            "best_swl",
            "victim_caching",
            "pcal_cerf",
            "pcal_svc",
            "linebacker",
            "lb_cache_ext",
        ]
    )
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        swl = ctx.run(app, "best_swl").ipc
        out[app] = {
            "baseline_svc": ctx.run(app, "victim_caching").ipc / swl,
            "pcal_cerf": ctx.run(app, "pcal_cerf").ipc / swl,
            "pcal_svc": ctx.run(app, "pcal_svc").ipc / swl,
            "linebacker": ctx.run(app, "linebacker").ipc / swl,
            "lb_cache_ext": ctx.run(app, "lb_cache_ext").ipc / swl,
        }
    keys = ("baseline_svc", "pcal_cerf", "pcal_svc", "linebacker", "lb_cache_ext")
    out["GM"] = {k: geomean(out[a][k] for a in ctx.apps) for k in keys}
    return out


# ---------------------------------------------------------------------------
# Figure 16: register file bank conflicts (normalized to baseline)
# ---------------------------------------------------------------------------
def run_fig16(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(["baseline", "cerf", "linebacker"])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        base = max(1, ctx.run(app, "baseline").bank_conflicts)
        out[app] = {
            "cerf": ctx.run(app, "cerf").bank_conflicts / base,
            "linebacker": ctx.run(app, "linebacker").bank_conflicts / base,
        }
    out["GM"] = {
        k: geomean(out[a][k] for a in ctx.apps if out[a][k] > 0)
        for k in ("cerf", "linebacker")
    }
    return out


# ---------------------------------------------------------------------------
# Figure 17: off-chip memory traffic (normalized to baseline)
# ---------------------------------------------------------------------------
def run_fig17(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(["baseline", "cerf", "linebacker"])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        base = max(1, ctx.run(app, "baseline").traffic.total_lines)
        lb = ctx.run(app, "linebacker")
        out[app] = {
            "cerf": ctx.run(app, "cerf").traffic.total_lines / base,
            "linebacker": lb.traffic.total_lines / base,
            "lb_register_overhead": lb.traffic.register_overhead_lines / base,
        }
    out["GM"] = {
        k: geomean(max(out[a][k], 1e-6) for a in ctx.apps)
        for k in ("cerf", "linebacker")
    }
    return out


# ---------------------------------------------------------------------------
# Figure 18: energy consumption (normalized to baseline)
# ---------------------------------------------------------------------------
def run_fig18(ctx: ExperimentContext) -> dict[str, dict[str, float]]:
    ctx.prefetch(["baseline", "cerf", "linebacker"])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        base = estimate_energy(ctx.run(app, "baseline")).total
        out[app] = {
            "cerf": estimate_energy(ctx.run(app, "cerf")).total / base,
            "linebacker": estimate_energy(ctx.run(app, "linebacker")).total / base,
        }
    out["GM"] = {
        k: geomean(out[a][k] for a in ctx.apps) for k in ("cerf", "linebacker")
    }
    return out


# ---------------------------------------------------------------------------
# Dynamics: per-window timeseries summary (Fig. 6 workflow over time)
# ---------------------------------------------------------------------------
def run_dynamics(ctx: ExperimentContext, arch: str = "linebacker") -> dict[str, dict[str, float]]:
    """Summarize each app's per-window dynamics under ``arch``.

    Runs with timeseries recording on (a distinct cache key from the
    scalar runs) and folds SM0's window rows into scalars: window
    count, mean per-window IPC, mean active CTAs, total throttled
    windows, and the final number of active victim partitions.
    """
    ctx.run_many([(app, arch, {"timeseries": True}) for app in ctx.apps])
    out: dict[str, dict[str, float]] = {}
    for app in ctx.apps:
        result = ctx.run(app, arch, timeseries=True)
        series = (result.timeseries or [None])[0]
        if series is None or len(series) == 0:
            out[app] = {
                "windows": 0.0,
                "mean_ipc": 0.0,
                "mean_active_ctas": 0.0,
                "throttled_windows": 0.0,
                "final_vps": 0.0,
            }
            continue
        rows = list(series)
        out[app] = {
            "windows": float(len(rows)),
            "mean_ipc": sum(r["ipc"] for r in rows) / len(rows),
            "mean_active_ctas": sum(r["active"] for r in rows) / len(rows),
            "throttled_windows": float(sum(1 for r in rows if r["inactive"] > 0)),
            "final_vps": float(rows[-1].get("vps", 0)),
        }
    return out
