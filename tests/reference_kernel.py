"""The differential-testing oracle: a heap-only simulation kernel.

:class:`ReferenceSimulation` is the scheduler the repository started
with — one binary heap, one :class:`~repro.sim.events.ScheduledEvent`
per scheduled action, nothing else.  It is the simplest correct
implementation of the kernel's ordering contract (events run in
``(time, seq)`` order), and ``tests/test_scheduler_differential.py``
runs randomized workloads through it and through
:class:`repro.sim.engine.Simulation` and asserts identical orderings.

It lives under ``tests/`` because nothing but that test uses it, and it
deliberately shares no scheduling code with the production kernel: an
oracle that imported the calendar queue's fast paths would inherit
their bugs.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

from repro.sim.engine import SimulationError
from repro.sim.events import EventHandle, ScheduledEvent
from repro.sim.rng import RngFabric

_INF = float("inf")


class ReferenceSimulation:
    """The pre-calendar-queue scheduler: one binary heap, nothing else.

    Retained as the differential-testing oracle: it is the simplest
    correct implementation of the kernel's ordering contract, and
    ``tests/test_scheduler_differential.py`` runs randomized workloads
    through both schedulers and asserts identical event orderings.  The
    public API matches :class:`Simulation` (including :meth:`post_batch`
    and :meth:`run_batch`, which degrade to their unbatched forms here).
    Do not use it outside tests — it is the slow path by construction.
    """

    def __init__(self, seed: int = 0, *, compact_threshold: int = 64) -> None:
        if compact_threshold < 1:
            raise SimulationError(
                f"compact_threshold must be >= 1, got {compact_threshold}")
        self._now = 0.0
        self._seq = 0
        self._compact_threshold = compact_threshold
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._tombstones = 0
        self._cancels = 0
        self._executed = 0
        self._tombstone_pops = 0
        self._compactions = 0
        self._rng = RngFabric(seed)

    @property
    def now(self) -> float:
        return self._now

    @property
    def rng(self) -> RngFabric:
        return self._rng

    @property
    def events_executed(self) -> int:
        return self._executed

    def profile(self) -> dict[str, int]:
        """Same counters as :meth:`Simulation.profile`."""
        return {
            "events_executed": self._executed,
            "heap_pushes": self._seq,
            "heap_pops": self._executed + self._tombstone_pops,
            "tombstone_pops": self._tombstone_pops,
            "compactions": self._compactions,
            "pending": self.pending(),
        }

    def call_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Heap-scheduled :meth:`Simulation.call_at`; returns a handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, action)
        heapq.heappush(self._heap, (time, seq, event))
        return EventHandle(event, self)

    def call_after(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Relative form of :meth:`call_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, action)

    def post_at(self, time: float, action: Callable[[], None]) -> None:
        """Handle-free :meth:`call_at`; still one heap push here."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, ScheduledEvent(time, seq, action)))

    def post_after(self, delay: float, action: Callable[[], None]) -> None:
        """Relative form of :meth:`post_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self._now + delay, action)

    def post_batch(
        self, items: Iterable[tuple[float, Callable[[], None]]],
    ) -> None:
        """Unbatched reference semantics: one :meth:`post_at` per pair."""
        for time, action in items:
            self.post_at(time, action)

    def add_probe(self, period: float, probe: Callable[[float], None]) -> None:
        """Run ``probe(now)`` every ``period`` seconds, forever."""
        if period <= 0:
            raise SimulationError(f"probe period must be positive, got {period}")

        def fire() -> None:
            probe(self._now)
            self.post_after(period, fire)

        self.post_after(period, fire)

    def step(self) -> bool:
        """Run the single next live event; False if none queued."""
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                self._tombstones -= 1
                self._tombstone_pops += 1
                continue
            self._now = time
            self._executed += 1
            event.fired = True
            event.action()
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Run events with ``time <= deadline``; leave ``now == deadline``."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                pop(heap)
                self._tombstones -= 1
                self._tombstone_pops += 1
                continue
            if time > deadline:
                break
            pop(heap)
            self._now = time
            self._executed += 1
            event.fired = True
            event.action()
        if deadline > self._now:
            self._now = deadline

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from now."""
        self.run_until(self._now + duration)

    def run_batch(self, deadline: float = _INF) -> int:
        """Window-drain with :class:`Simulation`'s default bucket width."""
        # Reference semantics for Simulation.run_batch: same window
        # selection, plain heap execution, clock left on the last event.
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._tombstones -= 1
            self._tombstone_pops += 1
        if not heap or heap[0][0] > deadline:
            return 0
        width = 0.0625
        window_end = (int(heap[0][0] / width) + 1) * width
        cap = min(deadline, math.nextafter(window_end, 0.0))
        executed = 0
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
                self._tombstone_pops += 1
                continue
            if time > cap:
                break
            heapq.heappop(heap)
            self._now = time
            self._executed += 1
            executed += 1
            event.fired = True
            event.action()
        return executed

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until empty; raise after ``max_events`` as a loop guard."""
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise SimulationError("drain() exceeded max_events; "
                                      "did you drain a self-perpetuating schedule?")
        return count

    def pending(self) -> int:
        """Number of queued live events."""
        return self._seq - self._executed - self._cancels

    def pending_times(self) -> Iterable[float]:
        """Times of queued live events, unsorted."""
        return (entry[0] for entry in self._heap if not entry[2].cancelled)

    def _note_cancelled(self) -> None:
        self._cancels += 1
        self._tombstones += 1
        tombstones = self._tombstones
        heap = self._heap
        if (tombstones >= self._compact_threshold
                and tombstones * 2 >= len(heap)):
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0
            self._compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReferenceSimulation(now={self._now:.3f}, "
                f"pending={self.pending()})")
