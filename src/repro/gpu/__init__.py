"""GPU execution substrate: the extension interface, CTAs, the banked
register file, traces, statistics and ``run_kernel``. The device that
executes them is :mod:`repro.engine.vector.machine`."""

from repro.gpu.extension import SMExtension
from repro.gpu.gpu import (
    SimulationResult,
    dynamically_unused_register_bytes,
    run_kernel,
    statically_unused_register_bytes,
)
from repro.gpu.isa import Instruction, Op, alu, exit_inst, hashed_pc, load, store
from repro.gpu.register_file import RegisterFile
from repro.gpu.trace import KernelTrace, from_instruction_lists

__all__ = [
    "Instruction",
    "KernelTrace",
    "Op",
    "RegisterFile",
    "SMExtension",
    "SimulationResult",
    "alu",
    "dynamically_unused_register_bytes",
    "exit_inst",
    "from_instruction_lists",
    "hashed_pc",
    "load",
    "run_kernel",
    "statically_unused_register_bytes",
    "store",
]
