"""Linebacker: the paper's primary contribution.

Load Monitor, Victim Tag Table, CTA Throttling Logic, register
backup/restore engine, and the SM extension orchestrating them.
"""

from repro.core.backup import BackupRecord, RegisterBackupEngine
from repro.core.cta_throttle import (
    CTAManager,
    CTAThrottleController,
    IPCMonitor,
    PerCTAInfo,
    ThrottleDecision,
)
from repro.core.linebacker import (
    BypassThrottler,
    LinebackerExtension,
    LinebackerStats,
    linebacker_factory,
)
from repro.core.load_monitor import LMEntry, LoadMonitor, MonitorState, MonitorSummary
from repro.core.victim_tag_table import VictimTagTable, VTTPartition, VTTSummary

__all__ = [
    "BackupRecord",
    "BypassThrottler",
    "CTAManager",
    "CTAThrottleController",
    "IPCMonitor",
    "LMEntry",
    "LinebackerExtension",
    "LinebackerStats",
    "LoadMonitor",
    "MonitorState",
    "MonitorSummary",
    "PerCTAInfo",
    "RegisterBackupEngine",
    "ThrottleDecision",
    "VTTPartition",
    "VTTSummary",
    "VictimTagTable",
    "linebacker_factory",
]
