"""Trace compilation for the vector machine.

The machine executes a warp from flat struct-of-arrays buffers, not
from :class:`~repro.gpu.isa.Instruction` objects:

* an **opcode template** and a parallel operand-count template;
* one **load-address queue** and one **store-address queue**, consumed
  in stream order. Fully coalesced accesses are plain ints, divergent
  multi-line accesses tuples — the execution loop branches on
  ``type(entry) is int``;
* a **load-PC queue** of ``(pc, hpc)`` pairs parallel to the load
  queue (what the extension hooks and the L1 line metadata key on).

A generator kernel — a Table-2 app or a workload document — carries
its :class:`~repro.workloads.generator.Program`, which compiles each
warp of a launched CTA straight to that form; its templates are
shared by every warp of a tenant. A kernel built from explicit
instruction lists (``from_instruction_lists``, ``traceio``) has only
its ``warp_trace`` iterators, which :func:`compile_warp_iter` drains
once per warp at launch.
"""

from __future__ import annotations

from repro.gpu.isa import OP_ALU, OP_EXIT, OP_LOAD, OP_STORE, Op
from repro.gpu.trace import KernelTrace

_OP_CODES = {Op.ALU: OP_ALU, Op.LOAD: OP_LOAD, Op.STORE: OP_STORE, Op.EXIT: OP_EXIT}


class CompiledKernel:
    """A kernel's traces in the vector backend's SoA form.

    ``warp_streams(grid_cta_id)`` returns, per warp of that CTA, a
    tuple ``(ops, opnds, loads, stores, load_pcs)`` — the opcode /
    operand-count templates, that warp's address queues, and the
    ``(pc, hpc)`` of each load in queue order.
    """

    def __init__(self, kernel: KernelTrace) -> None:
        self.kernel = kernel

    def warp_streams(self, grid_cta_id: int) -> list[tuple]:
        kernel = self.kernel
        program = kernel.program
        if program is None:
            return [
                compile_warp_iter(kernel.warp_trace(grid_cta_id, w))
                for w in range(kernel.warps_per_cta)
            ]
        return [program.warp_streams(grid_cta_id, w) for w in range(kernel.warps_per_cta)]


def compile_warp_iter(trace) -> tuple[list, list, list, list, list]:
    """Drain one instruction iterator into the compiled SoA form."""
    ops: list[int] = []
    opnds: list[int] = []
    loads: list = []
    stores: list = []
    load_pcs: list = []
    for inst in trace:
        code = _OP_CODES[inst.op]
        ops.append(code)
        opnds.append(inst.operands)
        if code == OP_LOAD or code == OP_STORE:
            addrs = inst.line_addrs
            entry = addrs[0] if len(addrs) == 1 else tuple(addrs)
            if code == OP_LOAD:
                loads.append(entry)
                load_pcs.append((inst.pc, inst.hpc))
            else:
                stores.append(entry)
    return ops, opnds, loads, stores, load_pcs
