"""Shared builders for synthetic single-app workload tests.

The generator, classifier and mechanism tests all need small
one-tenant, one-phase workloads around a few loads, so the
construction lives here once, with the footprint measure the suite's
calibration test reads. So do the MSHR-exhaustion kernels, which the
failure-path tests run on the machine and ``test_backends.py`` holds to
the oracle.
"""

from dataclasses import replace

from repro.config import scaled_config
from repro.gpu.isa import Op, load
from repro.gpu.trace import from_instruction_lists
from repro.workloads.generator import Pattern, Scope
from repro.workloads.spec import KernelPhase, TenantSpec, WorkloadSpec


def make_app(loads, iters=10, warps=2, ctas=2, alu=2, regs=8, name="t", stores=()):
    """A minimal one-tenant, one-phase :class:`WorkloadSpec` around ``loads``."""
    if not isinstance(loads, (tuple, list)):
        loads = (loads,)
    phase = KernelPhase(iterations=iters, loads=tuple(loads), stores=tuple(stores),
                        alu_per_iteration=alu)
    return WorkloadSpec(
        name=name, description="t", num_ctas=ctas, warps_per_cta=warps,
        regs_per_thread=regs, tenants=(TenantSpec(name="main", phases=(phase,)),),
    )


def loads_of(spec):
    """Every load of every phase of ``spec``, in declaration order."""
    return [ld for tenant in spec.tenants for phase in tenant.phases for ld in phase.loads]


def footprint_bytes(spec, resident_ctas):
    """Reused working-set footprint of ``spec``'s loads on one SM at a
    given residency (summed over phases: exact for one phase).

    Streaming loads are excluded — their lines are dead on arrival.
    The calibration test reads it to check an app lands in its
    intended cache-sensitivity class.
    """
    total_lines = 0
    for ld in loads_of(spec):
        if ld.pattern is Pattern.STREAM:
            continue
        if ld.scope is Scope.GLOBAL:
            total_lines += ld.working_set_lines
        elif ld.scope is Scope.CTA:
            total_lines += ld.working_set_lines * resident_ctas
        else:
            total_lines += ld.working_set_lines * resident_ctas * spec.warps_per_cta
    return total_lines * 128


def lines_of(kernel, cta, warp):
    """Every line address one warp's loads touch, in issue order."""
    return [
        a
        for inst in kernel.materialize(cta, warp)
        if inst.op is Op.LOAD
        for a in inst.line_addrs
    ]


#: label -> (L1 MSHR entries, per-CTA per-warp instruction lists).
_EXHAUSTION = {
    "mshr1": (1, lambda: [[[load(0x100, [i]) for i in range(10)] for _ in range(2)]]),
    "mshr2": (2, lambda: [[[load(0x100, [w * 50 + i]) for i in range(20)] for w in range(4)]]),
    "wide": (4, lambda: [[[load(0x100, list(range(16)))]]]),
}
MSHR_EXHAUSTION = tuple(_EXHAUSTION)


def mshr_exhaustion(label):
    """``(config, kernel)`` of one MSHR-exhaustion case on one SM. On a
    1- or 2-entry MSHR file most loads replay; ``wide`` is one load
    touching 16 lines against 4 entries, which can never be admitted."""
    mshrs, per_warp = _EXHAUSTION[label]
    config = scaled_config(num_sms=1, window_cycles=500)
    config = replace(config, gpu=replace(config.gpu, l1_mshrs=mshrs))
    return config, from_instruction_lists(label, per_warp(), regs_per_thread=8)
