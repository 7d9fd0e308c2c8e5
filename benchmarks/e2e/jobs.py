"""Seeded job generator: the only place ``--seed`` is consumed.

Two kinds of input come out of here:

* **engine jobs** (:class:`EngineJob`) for ``lb_ext`` / ``base_default``
  / ``base_vector``: the fixed Table-2 apps at the golden operating
  point plus a seeded tail of mid-size workload-DSL documents;
* **tiny jobs** (:class:`~repro.runner.spec.JobSpec`) for
  ``sweep_local`` / ``serve_http``: a few milliseconds of simulation
  each, so the runner / service stack around them dominates.

The seed changes *which PCs (hence cache sets), strides, working-set
sizes and names* a job has — so content hashes are unique per seed and
nothing can be tuned to one input — but never its *shape* (grid,
iterations, register pressure, reuse burst), which is a function of the
job index alone. The amount of
work in a run is therefore the same for every seed to within a few
percent; otherwise the quartiles of ten differently-seeded runs would
measure the generator, not the program. (That is also why the timed
tail is not ``repro.workloads.fuzz.generate_corpus``: its four specs
cost 0.18–1.63 s depending on the seed. They are still simulated and
checked once per run as untimed canaries, see :func:`canary_jobs`.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.config import SimulationConfig, scaled_config
from repro.runner.spec import JobSpec
from repro.workloads.fuzz import generate_corpus
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import (
    KernelPhase,
    TenantSpec,
    WorkloadSpec,
    build_workload,
    validate_workload,
)
from repro.workloads.suite import kernel_for

#: Table-2 scale and machine of ``BENCH_sim.json`` / ``tests/golden.py``
#: for the two apps with golden cells; the other three run at half that
#: length, which is what lets three passes fit the run-time budget.
GOLDEN_SCALE = 0.25
GOLDEN_APPS = ("S2", "LI")
OTHER_SCALE = 0.125
ENGINE_SMS = 2
WINDOW_CYCLES = 2000

#: Fixed Table-2 lists. S2/GE: reuse beyond L1; BG: divergent; LI:
#: streaming (L2/DRAM-bound); GA: compute-bound (issue scan).
LB_EXT_APPS = ("S2", "GE", "BG")
BASE_APPS = ("S2", "GE", "BG", "LI", "GA")
#: ``generate_corpus`` specs simulated and checked, untimed, per run.
CANARIES = 4

# Suite-style PC spacing (same constants as repro.workloads.fuzz, so
# hashed PCs never collide within a spec).
_PC_BASE = 0x100
_PC_STEP = 0x104
_STORE_PC_BASE = 0x1510


def engine_config() -> SimulationConfig:
    return scaled_config(num_sms=ENGINE_SMS, window_cycles=WINDOW_CYCLES)


def tiny_config() -> SimulationConfig:
    return scaled_config(num_sms=1, window_cycles=WINDOW_CYCLES)


@dataclass(frozen=True)
class EngineJob:
    """One direct ``runner(config, kernel)`` call."""

    name: str
    #: Table-2 app code, or None when ``workload`` carries a DSL document.
    app: Optional[str] = None
    workload: Optional[WorkloadSpec] = None

    def build(self):
        """The kernel trace (timed: part of what a caller pays)."""
        if self.workload is not None:
            return build_workload(self.workload, 1.0)
        return kernel_for(self.app, GOLDEN_SCALE if self.app in GOLDEN_APPS else OTHER_SCALE)


def _pcs(rng: random.Random, count: int) -> list[int]:
    return [_PC_BASE + _PC_STEP * slot for slot in rng.sample(range(16), count)]


def _coprime_stride(rng: random.Random, ws: int) -> int:
    # A stride sharing a factor with the working set would shrink the
    # region actually swept, and with it the work.
    for stride in rng.sample((1, 2, 3, 5), 4):
        if ws % stride or stride == 1:
            return stride
    return 1


def _dsl_workload(
    rng: random.Random,
    name: str,
    num_ctas: int,
    warps: int,
    iterations: int,
    variant: int,
    divergent: bool = False,
) -> WorkloadSpec:
    """Reuse(CTA) + stream (+ divergent) + store at a fixed shape."""
    pcs = _pcs(rng, 3)
    # Working set below 3/4 of a warp's sweep, so the reuse load always
    # wraps (never degenerates into a second stream) for every seed.
    ws_hi = max(4, (3 * iterations) // 4)
    ws = rng.randint(max(3, (9 * ws_hi) // 10), ws_hi)
    loads = [
        LoadSpec(pc=pcs[0], pattern=Pattern.REUSE, working_set_lines=ws,
                 scope=Scope.CTA, stride=_coprime_stride(rng, ws),
                 reuse_burst=1 + variant % 2),
        LoadSpec(pc=pcs[1], pattern=Pattern.STREAM, working_set_lines=0),
    ]
    if divergent:
        draws = 2 * iterations
        loads.append(
            LoadSpec(pc=pcs[2], pattern=Pattern.DIVERGENT,
                     working_set_lines=rng.randint((3 * draws) // 10, draws // 3),
                     scope=Scope.GLOBAL, lines_per_access=2)
        )
    phase = KernelPhase(
        iterations=iterations,
        loads=tuple(loads),
        stores=(StoreSpec(pc=_STORE_PC_BASE + _PC_STEP * rng.randrange(8),
                          every_iterations=4),),
    )
    return validate_workload(WorkloadSpec(
        name=name,
        description="benchmarks/e2e seeded workload",
        num_ctas=num_ctas,
        warps_per_cta=warps,
        # All well under half the register file: Linebacker always has
        # idle registers to keep victims in.
        regs_per_thread=(16, 20, 24)[variant % 3],
        tenants=(TenantSpec(name="main", phases=(phase,)),),
    ))


def seeded_tail(seed: int) -> list[EngineJob]:
    """The timed DSL tail of the engine workloads (shape per index)."""
    # Fewer seeded jobs than Table-2 jobs in every list, so the median
    # of a list's per-call latencies always lands on a Table-2 job (GE).
    shapes = ((16, 2, 100), (12, 4, 48))
    jobs = []
    for index, (ctas, warps, iterations) in enumerate(shapes):
        rng = random.Random(seed * 1_000_003 + index)
        name = f"e2e-tail-{seed:x}-{index}"
        jobs.append(EngineJob(
            name=name,
            workload=_dsl_workload(rng, name, ctas, warps, iterations,
                                   variant=index, divergent=index % 2 == 1),
        ))
    return jobs


def engine_jobs(workload: str, seed: int) -> list[EngineJob]:
    apps = LB_EXT_APPS if workload == "lb_ext" else BASE_APPS
    return [EngineJob(name=a, app=a) for a in apps] + seeded_tail(seed)


def canary_jobs(seed: int) -> list[EngineJob]:
    """``generate_corpus(seed, 4)``: checked once per run, never timed."""
    return [EngineJob(name=w.name, workload=w)
            for w in generate_corpus(seed, CANARIES)]


def tiny_jobs(prefix: str, seed: int, count: int, start: int = 0) -> list[JobSpec]:
    """``count`` unique tiny jobs named ``<prefix>-<seed>-<index>``.

    2–4 CTAs x 1–2 warps, 6–16 iterations, alternating ``baseline`` /
    ``linebacker`` on one SM: ~5–10 ms of simulation each. ``start``
    continues the index sequence, so successive cold batches of one
    run never repeat a content hash.
    """
    config = tiny_config()
    specs = []
    for index in range(start, start + count):
        rng = random.Random(seed * 1_000_003 + index)
        name = f"{prefix}-{seed:x}-{index:05d}"
        workload = _dsl_workload(
            rng, name,
            num_ctas=2 + index % 3,
            warps=1 + (index // 3) % 2,
            iterations=6 + (index * 5) % 11,
            variant=index // 6,
        )
        specs.append(JobSpec.build(
            app=name,
            arch="linebacker" if index % 2 else "baseline",
            config=config,
            workload=workload,
        ))
    return specs
