"""Memory hierarchy substrate: L1 cache machinery, MSHRs, and the
shared L2 + interconnect + DRAM every SM reaches through one
:class:`MemorySubsystem` (simple bandwidth/latency or bank-level timing
DRAM)."""

from repro.memory.cache import CacheLine, CacheStats, SetAssociativeCache
from repro.memory.dram import DRAMModel, DRAMStats
from repro.memory.dram_timing import DRAMTimings, TimingDRAMModel
from repro.memory.interconnect import Interconnect
from repro.memory.mshr import MSHRFile
from repro.memory.subsystem import MemorySubsystem, TrafficStats

__all__ = [
    "CacheLine",
    "CacheStats",
    "SetAssociativeCache",
    "DRAMModel",
    "DRAMStats",
    "DRAMTimings",
    "Interconnect",
    "TimingDRAMModel",
    "MSHRFile",
    "MemorySubsystem",
    "TrafficStats",
]
