"""Event representation for the discrete-event kernel.

An :class:`ScheduledEvent` is an action bound to a simulated time.  Events
are totally ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing insertion counter; this makes every simulation run
deterministic: two events scheduled for the same instant fire in the order
they were scheduled.

Cancellation is *lazy*: cancelling tombstones the event in O(1) — the
action reference is dropped immediately (so closures and the protocol
state they capture are freed right away) and the engine discards the
tombstone when it reaches the top of the heap, or earlier during a
compaction sweep (see :meth:`repro.sim.engine.Simulation` internals).
Nothing is ever removed from the middle of the heap, which keeps every
heap operation O(log n).

Under the calendar-queue scheduler a :class:`ScheduledEvent` exists only
where a handle can observe it: cancellable events (``call_at``/
``call_after``) live on the heap, one object each.  Fire-and-forget
posts are bare ``(time, seq, action)`` tuples in the calendar and are
never tombstoned — which keeps tombstone accounting and compaction
heap-only and cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulation

__all__ = ["ScheduledEvent", "EventHandle"]


class ScheduledEvent:
    """An action scheduled at an absolute simulated time.

    Not created directly — use :meth:`repro.sim.engine.Simulation.call_at`.
    """

    __slots__ = ("time", "seq", "action", "cancelled", "fired")

    def __init__(self, time: float, seq: int,
                 action: Callable[[], None] | None) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq}{state}>"


class EventHandle:
    """A caller-facing handle that can cancel a scheduled event."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: ScheduledEvent,
                 sim: "Simulation | None" = None) -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        """The simulated time the event is scheduled for."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, O(1).

        The event object stays in the engine's heap as a tombstone (it is
        skipped when popped), but its action — and everything the action
        closes over — is released immediately.
        """
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        event.action = None
        # Cancelling after the event already ran is a no-op; only events
        # still sitting in the heap count toward tombstone accounting.
        if not event.fired and self._sim is not None:
            self._sim._note_cancelled()
