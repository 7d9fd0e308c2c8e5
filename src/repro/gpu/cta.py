"""CTA (cooperative thread array) state on an SM.

A CTA occupies one of the SM's CTA slots. It owns a contiguous range of
physical warp registers and a set of warps. Linebacker's CTA manager
tracks, per slot, the active bit (ACT), the first register number
(FRN), the backup address (BA), and the backup-complete bit (C) — that
bookkeeping lives in :mod:`repro.core.cta_throttle`; this module holds
the substrate state every scheduler needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.vector.machine import WarpView


class CTAState(enum.Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"      # throttled; registers may be backed up
    FINISHED = "finished"


@dataclass(slots=True)
class CTA:
    """One resident CTA."""

    slot: int
    grid_cta_id: int
    warps: list[WarpView] = field(default_factory=list)
    register_range: Optional[range] = None
    state: CTAState = CTAState.ACTIVE

    @property
    def num_registers(self) -> int:
        return len(self.register_range) if self.register_range else 0

    @property
    def first_register(self) -> Optional[int]:
        return self.register_range.start if self.register_range else None

    def all_warps_finished(self) -> bool:
        return all(w.finished for w in self.warps)

    def deactivate(self) -> None:
        self.state = CTAState.INACTIVE
        for warp in self.warps:
            warp.deactivate()

    def reactivate(self, cycle: int) -> None:
        self.state = CTAState.ACTIVE
        for warp in self.warps:
            warp.reactivate(cycle)
