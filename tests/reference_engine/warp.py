"""Warp execution state.

A warp consumes its instruction trace in order. It can be in one of a
few states the scheduler cares about: ready at some cycle, blocked on
outstanding memory responses, inactive because its CTA was throttled,
or finished.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional

from repro.gpu.isa import Instruction


class WarpState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"      # waiting on memory responses
    INACTIVE = "inactive"    # CTA throttled
    FINISHED = "finished"


class Warp:
    """One warp's dynamic execution state."""

    __slots__ = (
        "warp_id",
        "cta_slot",
        "launch_order",
        "base_register",
        "state",
        "ready_cycle",
        "pending_responses",
        "instructions_retired",
        "throttled",
        "max_outstanding",
        "_trace",
        "_next_inst",
    )

    def __init__(
        self,
        warp_id: int,
        cta_slot: int,
        launch_order: int,
        trace: Iterator[Instruction],
        base_register: int = 0,
        max_outstanding: int = 4,
    ) -> None:
        self.warp_id = warp_id
        self.cta_slot = cta_slot
        self.launch_order = launch_order
        self.base_register = base_register
        self.max_outstanding = max_outstanding
        self.state = WarpState.READY
        self.ready_cycle = 0
        self.pending_responses = 0
        self.instructions_retired = 0
        self.throttled = False
        self._trace = trace
        self._next_inst: Optional[Instruction] = None
        self._advance()

    def _advance(self) -> None:
        self._next_inst = next(self._trace, None)
        if self._next_inst is None:
            self.state = WarpState.FINISHED

    def peek(self) -> Optional[Instruction]:
        """The next instruction to issue, or None when finished."""
        return self._next_inst

    def retire_current(self) -> None:
        """Consume the current instruction and advance the trace."""
        if self._next_inst is None:
            raise RuntimeError("warp has no instruction to retire")
        self.instructions_retired += 1
        self._advance()

    # -- state transitions -------------------------------------------------
    def block_on_memory(self, num_responses: int) -> None:
        """Register outstanding line responses for an issued load.

        The warp keeps running (scoreboarding: the loaded value is not
        consumed immediately) until it exceeds ``max_outstanding``
        in-flight lines, at which point it blocks until responses
        drain back below the limit.
        """
        self.pending_responses += num_responses
        if self.pending_responses >= self.max_outstanding:
            self.state = WarpState.BLOCKED

    def memory_response(self, cycle: int) -> None:
        """One outstanding line arrived; unblock when back under the
        outstanding limit.

        A warp whose CTA was throttled while it waited on memory goes
        INACTIVE (not READY) once it would unblock — throttling must
        not let it sneak back into the schedulers.
        """
        if self.pending_responses <= 0:
            raise RuntimeError("memory response for warp with none pending")
        self.pending_responses -= 1
        if (
            self.state is WarpState.BLOCKED
            and self.pending_responses < self.max_outstanding
        ):
            self.state = WarpState.INACTIVE if self.throttled else WarpState.READY
            self.ready_cycle = max(self.ready_cycle, cycle)

    def deactivate(self) -> None:
        """CTA throttled: stop scheduling this warp (keeps trace position)."""
        if self.state is WarpState.FINISHED:
            return
        self.throttled = True
        if self.state is WarpState.READY:
            self.state = WarpState.INACTIVE

    def reactivate(self, cycle: int) -> None:
        self.throttled = False
        if self.state is WarpState.INACTIVE:
            self.state = WarpState.READY
            self.ready_cycle = max(self.ready_cycle, cycle)

    @property
    def finished(self) -> bool:
        return self.state is WarpState.FINISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warp(id={self.warp_id}, cta={self.cta_slot}, state={self.state.value}, "
            f"ready={self.ready_cycle}, retired={self.instructions_retired})"
        )
