"""Trace compilation for the vector machine.

A kernel is one :class:`~repro.gpu.isa.Instruction` iterator per warp
(what the reference engine in ``tests/reference_engine`` consumes,
lazily, instruction by instruction). The machine instead *compiles* a
kernel's traces up front into flat struct-of-arrays buffers:

* one **opcode template** (and a parallel operand-count template) —
  for generator-built kernels this is shared by every warp of the
  grid, because :func:`~repro.workloads.generator._warp_stream` emits
  the same instruction *shape* for all warps and only the addresses
  differ;
* one **load-address queue** and one **store-address queue** per warp,
  consumed in stream order. Fully coalesced accesses compile to plain
  ints, divergent multi-line accesses to tuples — the execution loop
  branches on ``type(entry) is int``;
* one **load-PC queue** of ``(pc, hpc)`` pairs parallel to the load
  queue (what the extension hooks and the L1 line metadata key on) —
  again one template for the whole grid on the generator path, because
  the static loads repeat per iteration exactly like the opcodes.

Two compilation paths produce that form:

``compile_app_grid``
    The numpy fast path for kernels that carry their generator
    :class:`~repro.workloads.generator.AppSpec`. It re-implements the
    generator's address arithmetic (stream counters, the murmur-style
    scramble, reuse-burst offsets) as vectorized uint64/int64 array
    expressions over the whole grid at once, so trace synthesis costs
    numpy time, not a Python generator frame per instruction. The
    arithmetic is replicated *exactly* — every operand is a
    non-negative integer, so numpy's ``%`` and masked uint64 products
    agree bit-for-bit with the Python reference (the golden
    differential in ``tests/test_backends.py`` pins this). numpy is
    imported here and nowhere else, on first use: a process that never
    compiles an ``AppSpec`` grid (workers fed DSL jobs, ``repro list``)
    never pays for it, and a missing numpy is an ``ImportError`` at the
    first grid compile.

``compile_warp_iter``
    The generic fallback: drain the kernel's ``warp_trace`` iterator
    once and split it into the SoA form. This is what declarative
    workloads (multi-phase / multi-tenant specs) and hand-built test
    traces go through; it costs about one pass over the iterators,
    paid once per warp.
"""

from __future__ import annotations

from repro.gpu.isa import Op, hashed_pc
from repro.gpu.trace import KernelTrace
from repro.workloads.generator import AppSpec, Pattern, Scope

# Opcode encoding in compiled templates (int compares in the hot loop).
OP_ALU = 0
OP_LOAD = 1
OP_STORE = 2
OP_EXIT = 3

_OP_CODES = {Op.ALU: OP_ALU, Op.LOAD: OP_LOAD, Op.STORE: OP_STORE, Op.EXIT: OP_EXIT}

def _scramble_np(x, lane, j):
    """Vectorized ``generator._scramble`` over uint64 arrays.

    Inputs are small non-negative ints, so every intermediate product
    fits in uint64 before the explicit 32-bit masks are applied; the
    result equals the scalar reference for each element.
    """
    import numpy as np

    # Generator constants (see repro.workloads.generator._scramble).
    mix, c1, c2 = np.uint64(0x9E3779B1), np.uint64(0xC2B2AE35), np.uint64(0x27D4EB2F)
    m1, mask32 = np.uint64(0x85EBCA6B), np.uint64(0xFFFFFFFF)
    h = (x * mix + lane * c1 + j * c2) & mask32
    h ^= h >> np.uint64(16)
    h = (h * m1) & mask32
    h ^= h >> np.uint64(13)
    h = (h * c1) & mask32
    h ^= h >> np.uint64(16)
    return h


class CompiledKernel:
    """A kernel's traces in the vector backend's SoA form.

    ``warp_streams(grid_cta_id)`` returns, per warp of that CTA, a
    tuple ``(ops, opnds, loads, stores, load_pcs)`` — the opcode /
    operand-count templates, that warp's address queues, and the
    ``(pc, hpc)`` of each load in queue order.
    """

    def __init__(self, kernel: KernelTrace) -> None:
        self.kernel = kernel
        spec = kernel.app_spec
        if isinstance(spec, AppSpec) and spec.loads:
            self._ops, self._opnds, self._load_pcs = _app_templates(spec)
            self._loads, self._stores = compile_app_grid(spec)
            self._generic = False
        else:
            self._generic = True

    def warp_streams(self, grid_cta_id: int) -> list[tuple]:
        kernel = self.kernel
        if self._generic:
            return [
                compile_warp_iter(kernel.warp_trace(grid_cta_id, w))
                for w in range(kernel.warps_per_cta)
            ]
        ops, opnds, load_pcs = self._ops, self._opnds, self._load_pcs
        wpc = kernel.warps_per_cta
        base = grid_cta_id * wpc
        return [
            (ops, opnds, self._loads[base + w], self._stores[base + w], load_pcs)
            for w in range(wpc)
        ]


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


def _app_templates(spec: AppSpec) -> tuple[list[int], list[int], list[tuple]]:
    """The shared opcode / operand / load-PC templates of one generator app.

    Emission order per iteration ``t`` (generator ``_warp_stream``):
    the ALU block, one LOAD per (load spec, weight repeat), then one
    STORE per store spec whose period divides ``t``; a final EXIT.
    ALU and EXIT instructions carry 3 operands, memory ops carry 2.
    """
    ops: list[int] = []
    opnds: list[int] = []
    alu_block_ops = [OP_ALU] * spec.alu_per_iteration
    alu_block_opnds = [3] * spec.alu_per_iteration
    loads_per_iter = sum(ld.weight for ld in spec.loads)
    for t in range(spec.iterations):
        ops.extend(alu_block_ops)
        opnds.extend(alu_block_opnds)
        ops.extend([OP_LOAD] * loads_per_iter)
        opnds.extend([2] * loads_per_iter)
        for st in spec.stores:
            if st.every_iterations > 0 and t % st.every_iterations == 0:
                ops.append(OP_STORE)
                opnds.append(2)
    ops.append(OP_EXIT)
    opnds.append(3)
    iteration_pcs = [(ld.pc, hashed_pc(ld.pc)) for ld in spec.loads for _ in range(ld.weight)]
    return ops, opnds, iteration_pcs * spec.iterations


def compile_app_grid(spec: AppSpec) -> tuple[list[list], list[list]]:
    """Per-warp load/store address queues for the whole CTA grid.

    Vectorized over every (warp, iteration, repeat, line) at once;
    returns plain Python lists indexed by global warp id, with int
    entries for single-line accesses and tuples for multi-line ones.
    """
    import numpy as np

    gw_count = spec.num_ctas * spec.warps_per_cta
    T = spec.iterations
    wpc = spec.warps_per_cta
    gw = np.arange(gw_count, dtype=np.int64)
    cta = gw // wpc
    warp_in_cta = gw % wpc
    max_lpa = max(ld.lines_per_access for ld in spec.loads)
    cols = sum(ld.weight for ld in spec.loads)
    # (warp, iteration, load column, line) address matrix; the column
    # axis interleaves load specs in emission order (spec-major,
    # weight-repeat-minor), matching the opcode template.
    addr = np.zeros((gw_count, T, cols, max_lpa), dtype=np.int64)
    col_lpa = np.zeros(cols, dtype=np.int64)
    t_arr = np.arange(T, dtype=np.int64)

    c0 = 0
    for idx, ld in enumerate(spec.loads):
        w = ld.weight
        lpa = ld.lines_per_access
        ws = max(1, ld.working_set_lines)
        col_lpa[c0 : c0 + w] = lpa
        base = np.full(gw_count, spec.region_base(idx), dtype=np.int64)
        if ld.scope is Scope.CTA:
            base = base + cta * ld.working_set_lines
        elif ld.scope is Scope.WARP:
            base = base + gw * ld.working_set_lines
        rep = np.arange(w, dtype=np.int64)
        j = np.arange(lpa, dtype=np.int64)
        if ld.pattern is Pattern.STREAM:
            # seq counter advances per emission: seq = t * weight + rep.
            extra = base + gw * (T * w)
            first = (
                extra[:, None, None]
                + t_arr[None, :, None] * w
                + rep[None, None, :]
            )
            block = first[:, :, :, None] + j[None, None, None, :]
        elif ld.pattern is Pattern.DIVERGENT:
            x = (t_arr[:, None] * ld.stride + rep[None, :]).astype(np.uint64)
            h = _scramble_np(
                x[None, :, :, None],
                gw.astype(np.uint64)[:, None, None, None],
                j.astype(np.uint64)[None, None, None, :],
            )
            block = base[:, None, None, None] + (h % np.uint64(ws)).astype(np.int64)
        else:  # REUSE
            burst = max(1, ld.reuse_burst)
            phase = gw if ld.scope is Scope.GLOBAL else warp_in_cta
            extra = phase * (ws // max(1, wpc))
            offset = (
                (t_arr // burst)[None, :, None] * ld.stride
                + rep[None, None, :]
                + extra[:, None, None]
            ) % ws
            if lpa == 1:
                block = (base[:, None, None] + offset)[:, :, :, None]
            else:
                block = base[:, None, None, None] + (
                    offset[:, :, :, None] + j[None, None, None, :] * 17
                ) % ws
        addr[:, :, c0 : c0 + w, :lpa] = block
        c0 += w

    loads_per_warp: list[list] = []
    if max_lpa == 1:
        flat = addr[:, :, :, 0].reshape(gw_count, T * cols)
        for g in range(gw_count):
            loads_per_warp.append(flat[g].tolist())
    else:
        for g in range(gw_count):
            col_lists = []
            for c in range(cols):
                lpa = int(col_lpa[c])
                if lpa == 1:
                    col_lists.append(addr[g, :, c, 0].tolist())
                else:
                    col_lists.append(
                        [tuple(row) for row in addr[g, :, c, :lpa].tolist()]
                    )
            loads_per_warp.append(
                [entry for row in zip(*col_lists) for entry in row]
            )

    # Stores: every matching store spec at iteration t emits the same
    # address (store_base + gw * iterations + t), in t-major, spec-
    # minor order.
    store_ts = [
        t
        for t in range(T)
        for st in spec.stores
        if st.every_iterations > 0 and t % st.every_iterations == 0
    ]
    stores_per_warp: list[list] = []
    if store_ts:
        ts = np.array(store_ts, dtype=np.int64)
        smat = spec.store_region_base() + gw[:, None] * T + ts[None, :]
        for g in range(gw_count):
            stores_per_warp.append(smat[g].tolist())
    else:
        empty: list = []
        stores_per_warp = [empty] * gw_count
    return loads_per_warp, stores_per_warp
