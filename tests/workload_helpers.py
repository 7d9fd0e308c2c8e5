"""Shared builders for synthetic single-app workload tests.

``test_workloads.py`` and ``test_generator_extra.py`` grew identical
ad-hoc AppSpec builders; the fuzzer/classifier tests need the same
shapes again, so the construction lives here once. So do the
MSHR-exhaustion kernels, which the failure-path tests run on the
machine and ``test_backends.py`` holds to the oracle.
"""

from dataclasses import replace

from repro.config import scaled_config
from repro.gpu.isa import Op, load
from repro.gpu.trace import from_instruction_lists
from repro.workloads.generator import AppSpec


def make_app(loads, iters=10, warps=2, ctas=2, alu=2, regs=8, name="t"):
    """A minimal synthetic :class:`AppSpec` around ``loads``."""
    if not isinstance(loads, (tuple, list)):
        loads = (loads,)
    return AppSpec(
        name=name, description="t", cache_sensitive=True,
        num_ctas=ctas, warps_per_cta=warps, regs_per_thread=regs,
        iterations=iters, alu_per_iteration=alu, loads=tuple(loads),
    )


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
