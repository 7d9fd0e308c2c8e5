"""Minimal instruction set for the trace-driven GPU model.

The simulator is trace driven: each warp executes a pre-generated
sequence of :class:`Instruction` objects. Only the properties that the
memory system and schedulers care about are modeled — opcode class,
the static PC (which identifies the static load for Linebacker's Load
Monitor), the coalesced line addresses touched by a memory operation,
and the number of register operands (which drives register-file bank
traffic).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence


class Op(enum.Enum):
    """Instruction classes distinguished by the pipeline model."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    EXIT = "exit"


# Opcode codes of the compiled struct-of-arrays form the machine runs
# (int compares in its hot loop; see repro.workloads.generator.Program).
OP_ALU = 0
OP_LOAD = 1
OP_STORE = 2
OP_EXIT = 3


@dataclass(frozen=True, slots=True)
class Instruction:
    """One dynamic instruction in a warp's trace.

    Attributes:
        op: Instruction class.
        pc: Static program counter. All dynamic instances of the same
            static instruction share a PC; Linebacker's per-load
            locality monitoring keys off this value.
        line_addrs: For LOAD/STORE, the 128-byte-aligned line addresses
            produced after coalescing the 32 lanes. A fully coalesced
            access yields one address; a divergent one yields several.
        operands: Number of register operands read/written — used by
            the register-file bank-conflict model.
        hpc: The 5-bit XOR-folded PC, precomputed at trace-build time
            so the SM's load path never hashes on issue. Derived from
            ``pc``; never pass it explicitly.
    """

    op: Op
    pc: int = 0
    line_addrs: tuple[int, ...] = ()
    operands: int = 3
    hpc: int = -1

    def __post_init__(self) -> None:
        op = self.op
        if (op is Op.LOAD or op is Op.STORE) and not self.line_addrs:
            raise ValueError(f"{op} instruction requires line addresses")
        if self.hpc < 0:
            object.__setattr__(self, "hpc", _hashed_pc_memo(self.pc))

    @property
    def is_memory(self) -> bool:
        return self.op in (Op.LOAD, Op.STORE)


#: Interned ALU/EXIT instructions: a trace yields millions of dynamic
#: ALU instances that are all identical per static PC, so the
#: generators share one frozen object instead of allocating each time.
_ALU_MEMO: dict[tuple[int, int], Instruction] = {}
_EXIT = None


def alu(pc: int = 0, operands: int = 3) -> Instruction:
    """Convenience constructor for an arithmetic instruction."""
    inst = _ALU_MEMO.get((pc, operands))
    if inst is None:
        inst = _ALU_MEMO[(pc, operands)] = Instruction(
            op=Op.ALU, pc=pc, operands=operands
        )
    return inst


def load(
    pc: int, line_addrs: Sequence[int], operands: int = 2, hpc: int = -1
) -> Instruction:
    """Convenience constructor for a global load instruction.

    ``hpc`` may be supplied by bulk generators that hoisted the
    ``hashed_pc`` of a static PC out of their emission loop; it must
    equal ``hashed_pc(pc)``.
    """
    return Instruction(
        op=Op.LOAD, pc=pc, line_addrs=tuple(line_addrs), operands=operands, hpc=hpc
    )


def store(pc: int, line_addrs: Sequence[int], operands: int = 2) -> Instruction:
    """Convenience constructor for a global store instruction."""
    return Instruction(op=Op.STORE, pc=pc, line_addrs=tuple(line_addrs), operands=operands)


def exit_inst() -> Instruction:
    """Terminates a warp's trace."""
    global _EXIT
    if _EXIT is None:
        _EXIT = Instruction(op=Op.EXIT)
    return _EXIT


def hashed_pc(pc: int, bits: int = 5) -> int:
    """XOR-fold a 32-bit PC into ``bits`` bits (paper Section 4, LM).

    The paper observes GPU kernels have very few global loads (usually
    fewer than 32), so a 5-bit XOR fold of the PC is enough to keep
    per-load behaviour separated.
    """
    if bits <= 0:
        raise ValueError("hashed PC width must be positive")
    mask = (1 << bits) - 1
    value = pc & 0xFFFFFFFF
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


#: hashed_pc memo keyed by PC: kernels have a handful of static PCs,
#: so Instruction construction pays one dict probe, not an XOR fold.
_HPC_MEMO: dict[int, int] = {}


def _hashed_pc_memo(pc: int) -> int:
    folded = _HPC_MEMO.get(pc)
    if folded is None:
        folded = _HPC_MEMO[pc] = hashed_pc(pc)
    return folded
