"""GPU power and energy model (GPUWattch/CACTI-style accounting).

The paper evaluates energy with GPUWattch plus CACTI estimates for the
new Linebacker structures (Table 3: CTA manager 1.94 pJ, HPC field
0.09 pJ, LM 0.32 pJ, VTT 2.05 pJ per access). We reproduce the same
accounting structure analytically:

    energy = static_power x execution_time
           + sum(per-event dynamic energies)

Per-event energies for the baseline structures are representative
values from the GPGPU power literature (register file read/write, L1
and L2 accesses, DRAM per-line transfer); what Figure 18 measures is
*relative* energy versus the baseline, which is dominated by the
execution-time reduction and the DRAM traffic reduction — both of
which come from the simulator, not from the constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.gpu import SimulationResult
from repro.gpu.snapshot import snapshot_extension

PJ = 1e-12


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energies (joules) and static power (watts)."""

    # Baseline structures.
    alu_op: float = 25.0 * PJ
    rf_access: float = 6.0 * PJ
    l1_access: float = 30.0 * PJ
    l2_access: float = 80.0 * PJ
    dram_line: float = 2000.0 * PJ      # per 128-byte line transfer
    static_power_per_sm: float = 1.2    # watts

    # Linebacker structures (paper Table 3).
    cta_manager_access: float = 1.94 * PJ
    hpc_access: float = 0.09 * PJ
    lm_access: float = 0.32 * PJ
    vtt_access: float = 2.05 * PJ

    clock_hz: float = 1126e6


@dataclass
class EnergyBreakdown:
    """Energy per component for one simulation (joules)."""

    static: float = 0.0
    alu: float = 0.0
    register_file: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    dram: float = 0.0
    linebacker: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.static + self.alu + self.register_file
            + self.l1 + self.l2 + self.dram + self.linebacker
        )


def estimate_energy(
    result: SimulationResult,
    model: EnergyModel | None = None,
    num_sms: int | None = None,
) -> EnergyBreakdown:
    """Post-process a simulation result into an energy estimate."""
    m = model or EnergyModel()
    sms = num_sms if num_sms is not None else len(result.sm_stats)
    out = EnergyBreakdown()

    seconds = result.cycles / m.clock_hz
    out.static = m.static_power_per_sm * sms * seconds

    instructions = result.instructions
    loads = sum(s.loads for s in result.sm_stats)
    stores = sum(s.stores for s in result.sm_stats)
    out.alu = (instructions - loads - stores) * m.alu_op

    rf_ops = sum(rf.reads + rf.writes for rf in result.rf_stats)
    out.register_file = rf_ops * m.rf_access

    l1_accesses = sum(c.accesses for c in result.l1_stats)
    out.l1 = l1_accesses * m.l1_access
    out.l2 = result.traffic.total_lines * m.l2_access
    out.dram = (result.dram_reads + result.dram_writes) * m.dram_line

    # Linebacker structure energy, when the run used it (read off the
    # snapshots, into which a live extension is summarized).
    lb_energy = 0.0
    for ext in map(snapshot_extension, result.extensions):
        if ext.vtt is not None:
            lb_energy += (ext.vtt.stats.lookups + ext.vtt.stats.inserts) * m.vtt_access
        if ext.load_monitor is not None:
            lb_energy += (ext.load_monitor.hits + ext.load_monitor.misses) * m.lm_access
        stats = ext.stats
        if stats is not None and hasattr(stats, "throttle_events"):
            events = stats.throttle_events + stats.reactivate_events
            lb_energy += events * m.cta_manager_access
    out.linebacker = lb_energy
    return out


def relative_energy(result: SimulationResult, baseline: SimulationResult) -> float:
    """Energy of ``result`` normalized to ``baseline`` (Figure 18)."""
    return estimate_energy(result).total / max(1e-30, estimate_energy(baseline).total)
