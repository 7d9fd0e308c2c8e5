"""Kernel traces: the unit of work the simulator consumes.

A :class:`KernelTrace` describes a whole kernel launch — the CTA grid,
per-CTA resource usage, and a per-warp instruction stream factory. The
factory form (rather than materialized lists) keeps memory bounded when
a grid has hundreds of CTAs: an SM asks for the trace of warp *w* of
CTA *c* only when that CTA is launched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.config import WARP_REGISTER_BYTES, GPUConfig
from repro.gpu.isa import Instruction, Op

#: A factory mapping (cta_id, warp_in_cta) -> instruction iterator.
WarpTraceFactory = Callable[[int, int], Iterator[Instruction]]


@dataclass(frozen=True)
class KernelTrace:
    """A kernel launch as seen by the simulator.

    Attributes:
        name: Human-readable kernel name (the benchmark app code).
        num_ctas: CTAs in the grid.
        warps_per_cta: Warps per CTA (threads/32).
        regs_per_thread: Architectural registers per thread. One
            architectural register over a 32-thread warp occupies one
            128-byte warp register.
        warp_trace: Factory producing the instruction stream of warp
            ``w`` of CTA ``c``.
        shared_mem_per_cta: Shared memory footprint, which can bound
            occupancy just like registers.
        app_spec: The generator :class:`~repro.workloads.generator.AppSpec`
            this trace was built from, when it came from the synthetic
            generator. Purely advisory: execution backends that can
            synthesize the address stream in bulk (the vector backend's
            trace compiler) use it; everything else falls back to the
            ``warp_trace`` iterator, which remains the source of truth.
    """

    name: str
    num_ctas: int
    warps_per_cta: int
    regs_per_thread: int
    warp_trace: WarpTraceFactory
    shared_mem_per_cta: int = 0
    app_spec: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def warp_registers_per_warp(self) -> int:
        """Warp-wide registers used by one warp."""
        return self.regs_per_thread

    @property
    def warp_registers_per_cta(self) -> int:
        return self.warps_per_cta * self.regs_per_thread

    @property
    def register_bytes_per_cta(self) -> int:
        return self.warp_registers_per_cta * WARP_REGISTER_BYTES

    def materialize(self, cta_id: int, warp_in_cta: int) -> list[Instruction]:
        """Fully expand one warp's trace (used by tests and analysis)."""
        return list(self.warp_trace(cta_id, warp_in_cta))


def hardware_occupancy(config: GPUConfig, kernel: KernelTrace) -> int:
    """Max concurrent CTAs per SM from the hardware limits (Table 1)."""
    threads_per_cta = kernel.warps_per_cta * config.simd_width
    limits = [
        config.max_ctas_per_sm,
        config.max_threads_per_sm // threads_per_cta,
        config.max_warps_per_sm // kernel.warps_per_cta,
        (config.register_file_bytes // 128) // max(1, kernel.warp_registers_per_cta),
    ]
    if kernel.shared_mem_per_cta > 0:
        limits.append(config.shared_memory_bytes // kernel.shared_mem_per_cta)
    return max(1, min(limits))


def from_instruction_lists(
    name: str,
    per_warp: Sequence[Sequence[Sequence[Instruction]]],
    regs_per_thread: int = 32,
) -> KernelTrace:
    """Build a KernelTrace from nested lists ``per_warp[cta][warp]``.

    Convenience for tests: accepts explicit instruction lists and wraps
    them in the factory interface. Every warp trace must end with an
    EXIT instruction; one is appended when missing.
    """
    if not per_warp:
        raise ValueError("kernel needs at least one CTA")
    warps_per_cta = len(per_warp[0])
    if warps_per_cta == 0:
        raise ValueError("CTA needs at least one warp")
    for cta in per_warp:
        if len(cta) != warps_per_cta:
            raise ValueError("all CTAs must have the same warp count")

    frozen = [
        [_ensure_exit(list(warp)) for warp in cta]
        for cta in per_warp
    ]

    def factory(cta_id: int, warp_in_cta: int) -> Iterator[Instruction]:
        return iter(frozen[cta_id][warp_in_cta])

    return KernelTrace(
        name=name,
        num_ctas=len(per_warp),
        warps_per_cta=warps_per_cta,
        regs_per_thread=regs_per_thread,
        warp_trace=factory,
    )


def _ensure_exit(insts: list[Instruction]) -> list[Instruction]:
    if not insts or insts[-1].op is not Op.EXIT:
        insts = insts + [Instruction(op=Op.EXIT)]
    return insts
