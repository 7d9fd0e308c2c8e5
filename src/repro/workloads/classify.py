"""Analytic workload classifier: the paper's Fig 1-4 rules, re-derived.

The motivational study (Sections 2.2-2.3) characterizes applications by
*machine-checkable* properties of their memory traces:

* **Streaming** (Fig 3): a static load is streaming when it would still
  miss on more than 95% of its accesses with an *infinite* cache — its
  lines are dead on arrival. We measure exactly that: the fraction of
  line touches that are cold (first-ever touch of the line) across the
  sampled warps, which is the infinite-cache miss ratio.
* **Locality is a per-static-load property, consistent across warps**
  (Section 2.3): every sampled warp of a load must reach the same
  streaming verdict; the per-warp cold ratios of a reused load cluster.
* **Sharing scope** (Fig 2's intra- vs inter-warp reuse): whether a
  load's line set overlaps between warps of one CTA (``intra-cta``),
  between CTAs (``inter-cta``), or not at all (``private``).
* **Divergence**: mean lines touched per access; a coalesced load
  touches one line, graph-style gather loads touch several.
* **Statically unused registers** (Fig 4): the fraction of the 256 KB
  register file no CTA ever occupies at full occupancy — the space
  Linebacker's victim storage lives in.

Everything is computed from a bounded *trace prefix* (no simulation),
so classification is cheap enough to gate every workload: the fuzzer's
:func:`~repro.workloads.fuzz.check_gates` holds fuzzed specs and the 20
built-in apps alike to the classes their loads declare
(``tests/test_classify.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from repro.config import GPUConfig
from repro.gpu.gpu import statically_unused_register_bytes
from repro.gpu.isa import Op
from repro.gpu.trace import KernelTrace
from repro.workloads.spec import WorkloadSpec, build_workload

#: The paper's streaming criterion: >95% misses under an infinite cache.
STREAMING_MISS_THRESHOLD = 0.95

#: Max spread between warps' *self* cold ratios (own unique lines /
#: own touches) for the "consistent across warps" property. Warps of
#: one static load run the same loop structure, so their self-locality
#: clusters tightly; hash-based divergent patterns add a few percent
#: of birthday noise.
CONSISTENCY_SPREAD = 0.2

#: Default cap on instructions materialized per sampled warp.
MAX_INSTRUCTIONS_PER_WARP = 20_000


@dataclass(frozen=True)
class LoadClass:
    """Measured Fig 1-3 characteristics of one static load."""

    pc: int
    accesses: int                 # dynamic load instructions sampled
    line_touches: int             # lines touched (>= accesses if divergent)
    unique_lines: int
    infinite_miss_ratio: float    # cold touches / touches (infinite cache)
    mean_lines_per_access: float
    streaming: bool               # paper: ratio > 0.95
    uncoalesced: bool             # mean lines per access > 1
    sharing: str                  # "inter-cta" | "intra-cta" | "private"
    consistent_across_warps: bool

    @property
    def reuse_factor(self) -> float:
        """Mean touches per distinct line (1.0 = pure streaming)."""
        return self.line_touches / max(1, self.unique_lines)


@dataclass(frozen=True)
class WorkloadClassification:
    """Whole-workload view: per-load classes plus Fig 4's register slack."""

    name: str
    loads: tuple[LoadClass, ...]
    unused_register_fraction: float

    def load_class(self, pc: int) -> LoadClass:
        for lc in self.loads:
            if lc.pc == pc:
                return lc
        raise KeyError(f"{self.name}: no load with pc {pc}")

    @property
    def streaming_pcs(self) -> tuple[int, ...]:
        return tuple(lc.pc for lc in self.loads if lc.streaming)


@dataclass
class _PCStats:
    accesses: int = 0
    touches: int = 0
    lines: set = None
    per_warp: dict = None  # (cta, warp) -> [touches, line_set]

    def __post_init__(self) -> None:
        self.lines = set()
        self.per_warp = {}


def _default_sample_ctas(num_ctas: int, stride_groups: int = 1) -> tuple[int, ...]:
    """Sample CTAs covering every round-robin tenant group twice.

    ``stride_groups`` is the tenant count for compiled workloads (CTA
    ``i`` runs tenant ``i % groups``); two CTAs per group make
    inter-CTA sharing observable for every static load.
    """
    want = []
    for group in range(stride_groups):
        want.append(group)
        want.append(group + stride_groups)
    return tuple(sorted({c for c in want if c < num_ctas}))


def classify_kernel(
    kernel: KernelTrace,
    *,
    config: Optional[GPUConfig] = None,
    sample_ctas: Optional[Sequence[int]] = None,
    max_instructions_per_warp: int = MAX_INSTRUCTIONS_PER_WARP,
    tenant_groups: int = 1,
) -> WorkloadClassification:
    """Classify every static load of ``kernel`` from a trace prefix."""
    config = config or GPUConfig()
    if sample_ctas is None:
        sample_ctas = _default_sample_ctas(kernel.num_ctas, tenant_groups)

    stats: dict[int, _PCStats] = {}
    for cta in sample_ctas:
        for warp in range(kernel.warps_per_cta):
            for inst in islice(
                kernel.warp_trace(cta, warp), max_instructions_per_warp
            ):
                if inst.op is not Op.LOAD:
                    continue
                pcs = stats.get(inst.pc)
                if pcs is None:
                    pcs = stats[inst.pc] = _PCStats()
                wkey = (cta, warp)
                wstat = pcs.per_warp.get(wkey)
                if wstat is None:
                    wstat = pcs.per_warp[wkey] = [0, set()]
                pcs.accesses += 1
                for line in inst.line_addrs:
                    pcs.touches += 1
                    wstat[0] += 1
                    pcs.lines.add(line)
                    wstat[1].add(line)

    loads = tuple(
        _finalize(pc, pcs) for pc, pcs in sorted(stats.items())
    )
    sur = statically_unused_register_bytes(config, kernel)
    return WorkloadClassification(
        name=kernel.name,
        loads=loads,
        unused_register_fraction=sur / config.register_file_bytes,
    )


def _finalize(pc: int, pcs: _PCStats) -> LoadClass:
    ratio = len(pcs.lines) / max(1, pcs.touches)
    streaming = ratio > STREAMING_MISS_THRESHOLD

    # Sharing: overlap of per-warp line sets, split by whether the
    # overlapping warps live in the same CTA.
    inter = intra = False
    warps = list(pcs.per_warp.items())
    for i, ((cta_a, _), stat_a) in enumerate(warps):
        for (cta_b, _), stat_b in warps[i + 1:]:
            if stat_a[1].isdisjoint(stat_b[1]):
                continue
            if cta_a == cta_b:
                intra = True
            else:
                inter = True
        if inter and intra:
            break
    sharing = "inter-cta" if inter else ("intra-cta" if intra else "private")

    # Consistency (paper Section 2.3): locality is a property of the
    # static load, so every warp's *self* cold ratio (its own unique
    # lines over its own touches — order-independent, unlike a pooled
    # first-touch count) must cluster. Divergent loads whose reuse is
    # purely inter-warp still cluster: each warp sees the same
    # birthday statistics over the shared region.
    ratios = [len(lines) / touches for touches, lines in pcs.per_warp.values()
              if touches > 0]
    consistent = not ratios or (max(ratios) - min(ratios)) <= CONSISTENCY_SPREAD

    return LoadClass(
        pc=pc,
        accesses=pcs.accesses,
        line_touches=pcs.touches,
        unique_lines=len(pcs.lines),
        infinite_miss_ratio=ratio,
        mean_lines_per_access=pcs.touches / max(1, pcs.accesses),
        streaming=streaming,
        uncoalesced=pcs.touches > pcs.accesses,
        sharing=sharing,
        consistent_across_warps=consistent,
    )


def classify_workload(
    spec: WorkloadSpec, scale: float = 1.0, **kwargs
) -> WorkloadClassification:
    """Classify a declarative workload (tenant-aware CTA sampling)."""
    kernel = build_workload(spec, scale)
    kwargs.setdefault("tenant_groups", len(spec.tenants))
    return classify_kernel(kernel, **kwargs)
