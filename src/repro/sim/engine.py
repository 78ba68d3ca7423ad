"""The discrete-event simulation kernel.

:class:`Simulation` owns the virtual clock and the event queue.  Everything
else in this repository — link delivery, process timers, fault injection,
periodic probes — is expressed as events scheduled on one simulation.

Determinism
-----------
Runs are bit-for-bit reproducible: events execute in ``(time, seq)`` order
(``seq`` is the insertion counter), and all randomness must come from the
simulation's :class:`~repro.sim.rng.RngFabric`.  Wall-clock time never
enters the kernel; the same seed and the same schedule of calls produce
the same interleaving on every machine and at every parallelism level.

Units
-----
All times (``now``, ``call_at`` deadlines, ``call_after`` delays, probe
periods) are **seconds of simulated time** as floats.  Wall-clock seconds
appear nowhere in this module.

Hot path: the two-tier calendar queue
-------------------------------------
The scheduler keeps two structures instead of one binary heap, and one
rule decides between them — **the heap is for what can be cancelled**:

* **The calendar** holds every fire-and-forget event (``post_at``/
  ``post_after``/``post_batch`` — message deliveries, probe ticks) as a
  bare ``(time, seq, action)`` tuple: no handle exists that could
  observe a :class:`ScheduledEvent`.  A bucket is a plain list covering
  one fixed-width span of simulated time, keyed by
  ``int(time * (1 / bucket_width))``; appending is O(1).  When the run
  loop reaches a bucket it sorts the list once and drains it by walking
  an index — that list is the **open window**.  A post whose time falls
  inside the span already opened (``time < _drained_until``: most
  deliveries, with 1–50 ms link delays and a 62.5 ms bucket) is merged
  into the window past the read index — ``bisect.insort`` for one post,
  one tail sort for a batch — which is exact because a new entry's
  ``(time, seq)`` sorts after every executed one.
* **The heap** holds the cancellable events (``call_at``/``call_after``
  return an :class:`EventHandle`) as ``(time, seq, ScheduledEvent)``, so
  tombstones and compaction stay heap-only.  Its only other tenants are
  posts at or beyond 2**60 s, whose bucket index is not representable
  (``inf``) or whose span has no width in floats (at 2**61,
  ``(index + 1) * width == index * width``) — so a heap head out there
  never opens a window: once the calendar is empty it runs straight
  from the heap.

The run loop merges the two tiers with a two-pointer walk: the next event
is whichever of (current window entry, live heap top) has the smaller
``(time, seq)``.  Because seq is unique, this reproduces exactly the total
order a single heap would produce — the calendar queue is a throughput
optimization, not a semantic change, and the differential property test
(``tests/test_scheduler_differential.py``) holds it to that against the
heap-only kernel beside it, ``tests/reference_kernel.py``.

Why the bucket width must be a power of two: the mapping
``int(time * inv_width)`` and the window boundary ``(index + 1) * width``
must agree *exactly*, or an event could land in a bucket whose span the
loop believes is already drained.  With ``width = 2**-k`` both the
multiplication and the boundary product are exact in binary floating
point, so the mapping is monotone and ``time < (index + 1) * width``
holds for every time in bucket ``index`` — no epsilon, no edge cases.

Cancellation tombstones events in O(1) and the engine drops tombstones
when they surface; a compaction sweep rebuilds the heap when
tombstones outnumber live events (and number at least
``_COMPACT_THRESHOLD``), so a workload that constantly resets timers
cannot grow the heap without bound.

Typical use::

    sim = Simulation(seed=7)
    sim.call_after(1.5, lambda: print("fires at t=1.5"))
    sim.run_until(10.0)
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import Callable, Iterable, Iterator

from repro.sim.events import EventHandle, ScheduledEvent
from repro.sim.rng import RngFabric

__all__ = ["Simulation", "SimulationError"]

_INF = float("inf")

# Posts at or beyond this are routed to the heap: the bucket index of
# e.g. float("inf") is not representable, and a bucket dict spanning
# 2**60 seconds of calendar would never be reached anyway.
_FAR_HORIZON = 2.0 ** 60

# Tombstones before a cancellation may trigger a compaction sweep of the
# heap (which also needs tombstones to be at least half of it): keeps
# the amortized cost of a cancel at O(log n).
_COMPACT_THRESHOLD = 64

# A calendar entry carries the bare action, no ScheduledEvent.
_Entry = tuple[float, int, Callable[[], None]]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Root seed of the run's random fabric (see :class:`RngFabric`).
        Two simulations built with the same seed and driven by the same
        calls execute identical event interleavings.
    bucket_width:
        Span of simulated seconds covered by one calendar bucket.  Must
        be a positive power of two (see the module docstring for why);
        the default of 1/16 s sits just above the usual link delay bound
        (δ ≈ 0.05 s), so a heartbeat's fan-out lands in the window that
        is already open and is merged into it rather than bucketed.
    """

    def __init__(self, seed: int = 0, *,
                 bucket_width: float = 0.0625) -> None:
        if not (bucket_width > 0 and math.frexp(bucket_width)[0] == 0.5):
            raise SimulationError(
                f"bucket_width must be a positive power of two, "
                f"got {bucket_width}")
        self._now = 0.0
        self._seq = 0
        self._bucket_width = bucket_width
        self._inv_width = 1.0 / bucket_width  # exact: width is 2**-k
        # Tier 1: calendar buckets of (time, seq, action) tuples, keyed by
        # int(time * inv_width).  Only fire-and-forget events live here.
        self._buckets: dict[int, list[_Entry]] = {}
        # Min-heap of bucket keys, pushed once per bucket creation, so
        # finding the next window is O(log buckets) instead of O(buckets).
        self._bucket_order: list[int] = []
        # The open window: the sorted entries of the bucket currently
        # being drained, and the index of the next entry to run.
        self._entries: list[_Entry] = []
        self._entry_idx = 0
        # End of the last opened window: every window entry lies below
        # it, every bucket entry at or above, and a post below it is
        # merged into _entries past _entry_idx.
        self._drained_until = 0.0
        # Tier 2: the heap of cancellable events, as (time, seq, event).
        # seq is unique, so no tuple comparison reaches the third field.
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._tombstones = 0
        self._cancels = 0
        self._executed = 0
        # Profiling counters (cold paths only; hot-path figures are
        # derived from _seq/_executed, which exist anyway).
        self._tombstone_pops = 0
        self._compactions = 0
        self._rng = RngFabric(seed)

    # ------------------------------------------------------------------
    # Clock and randomness
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds since the run started."""
        return self._now

    @property
    def rng(self) -> RngFabric:
        """The run's random fabric — the only legitimate randomness source."""
        return self._rng

    @property
    def events_executed(self) -> int:
        """Total events run so far; the benchmark throughput denominator."""
        return self._executed

    def profile(self) -> dict[str, int]:
        """Kernel profiling counters, all integers and fully deterministic.

        * ``events_executed`` — live events whose actions ran;
        * ``heap_pushes`` — events ever scheduled, either tier (the
          insertion counter; most never touch the heap, but committed
          bench rows record the name);
        * ``heap_pops`` — events run plus tombstones discarded;
        * ``tombstone_pops`` — cancelled events discarded at pop time;
        * ``compactions`` — tombstone sweeps that rebuilt the heap;
        * ``pending`` — live events still queued.

        These thread into bench reports as the additive ``profile``
        block of each case record.
        """
        return {
            "events_executed": self._executed,
            "heap_pushes": self._seq,
            "heap_pops": self._executed + self._tombstone_pops,
            "tombstone_pops": self._tombstone_pops,
            "compactions": self._compactions,
            "pending": self.pending(),
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run at absolute simulated ``time`` (seconds).

        Scheduling strictly in the past is a programming error; scheduling
        at exactly ``now`` is allowed and runs after currently queued
        events for ``now``.  Returns a handle whose ``cancel()`` is O(1).

        Cancellable events always live on the heap — tombstone
        accounting and compaction never have to look inside buckets.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, action)
        heapq.heappush(self._heap, (time, seq, event))
        return EventHandle(event, self)

    def call_after(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, action)

    def post_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at ``time`` without creating a handle.

        Fire-and-forget fast path for events that are never cancelled
        (message deliveries, probe re-arms).  Identical ordering semantics
        to :meth:`call_at`, without the handle, the event object or the
        heap: the action is appended to its calendar bucket in O(1) or,
        when its time falls inside the window already open, inserted
        into that window's sorted list.
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if time < self._drained_until:
            # The bucket span is already open and its sorted snapshot
            # taken: merge into that.  Every entry before _entry_idx has
            # run, hence sorts before this one.
            insort(self._entries, (time, seq, action), self._entry_idx)
        elif time >= _FAR_HORIZON:
            heapq.heappush(self._heap,
                           (time, seq, ScheduledEvent(time, seq, action)))
        else:
            index = int(time * self._inv_width)
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [(time, seq, action)]
                heapq.heappush(self._bucket_order, index)
            else:
                bucket.append((time, seq, action))

    def post_after(self, delay: float, action: Callable[[], None]) -> None:
        """Handle-free :meth:`call_after`; see :meth:`post_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self._now + delay, action)

    def post_batch(
        self, items: Iterable[tuple[float, Callable[[], None]]],
    ) -> None:
        """Bulk :meth:`post_at`: schedule ``(time, action)`` pairs in order.

        One kernel call for a whole fan-out (a broadcast's n−1 delivery
        events): seq numbers are assigned in iteration order, so the
        result is indistinguishable from calling :meth:`post_at` once per
        pair — just without n−1 rounds of attribute traffic, and with
        the items that fall inside the open window merged into it by one
        sort instead of one insertion each.
        """
        now = self._now
        drained_until = self._drained_until
        inv_width = self._inv_width
        buckets = self._buckets
        heappush = heapq.heappush
        late: list[_Entry] = []
        seq = self._seq
        try:
            for time, action in items:
                if time < now:
                    raise SimulationError(
                        f"cannot schedule at t={time} before now={now}"
                    )
                if time < drained_until:
                    late.append((time, seq, action))
                elif time >= _FAR_HORIZON:
                    heappush(self._heap,
                             (time, seq, ScheduledEvent(time, seq, action)))
                else:
                    index = int(time * inv_width)
                    bucket = buckets.get(index)
                    if bucket is None:
                        buckets[index] = [(time, seq, action)]
                        heappush(self._bucket_order, index)
                    else:
                        bucket.append((time, seq, action))
                seq += 1
        finally:
            self._seq = seq
            if late:
                # In place: a running _run holds this list and its index.
                entries = self._entries
                idx = self._entry_idx
                tail = entries[idx:] + late
                tail.sort()
                entries[idx:] = tail

    def add_probe(self, period: float, probe: Callable[[float], None]) -> None:
        """Run ``probe(now)`` every ``period`` simulated seconds, forever.

        Probes are how observers (checkers, metric samplers) watch the
        system evolve without participating in it.  The first invocation
        happens at ``now + period``.
        """
        if period <= 0:
            raise SimulationError(f"probe period must be positive, got {period}")

        def fire() -> None:
            probe(self._now)
            self.post_after(period, fire)

        self.post_after(period, fire)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run(self, deadline: float, limit: int | None) -> int:
        """Execute events with ``time <= deadline`` in ``(time, seq)`` order.

        Runs at most ``limit`` events when given.  Returns the number
        executed.  ``now`` tracks the last executed event and never
        overshoots to ``deadline`` here (run_until does that bump).
        """
        heap = self._heap
        buckets = self._buckets
        order = self._bucket_order
        width = self._bucket_width
        heappop = heapq.heappop
        executed = 0
        entries = self._entries
        idx = self._entry_idx
        while limit is None or executed < limit:
            # Live heap top (discard tombstones as they surface).
            while heap:
                head = heap[0]
                if head[2].cancelled:
                    heappop(heap)
                    self._tombstones -= 1
                    self._tombstone_pops += 1
                else:
                    break
            else:
                head = None

            if idx < len(entries):
                # Two-pointer merge of the open window with the heap.
                entry = entries[idx]
                if head is None or entry < head:
                    if entry[0] > deadline:
                        break
                    idx += 1
                    self._entry_idx = idx
                    self._now = entry[0]
                    self._executed += 1
                    executed += 1
                    entry[2]()
                    continue
            elif entries:
                # The open window's bucket is spent; release its storage.
                entries = self._entries = []
                idx = self._entry_idx = 0

            # A heap event inside the already-opened span (every window
            # entry is, so this covers the merge above) runs before any
            # new window; a late post it makes refills the window.  So
            # does one at the far horizon once no bucket is left: every
            # calendar entry lies below it, and it has no window to open.
            if head is not None and (
                    head[0] < self._drained_until
                    or (head[0] >= _FAR_HORIZON and not buckets)):
                if head[0] > deadline:
                    break
                heappop(heap)
                event = head[2]
                self._now = head[0]
                self._executed += 1
                executed += 1
                event.fired = True
                event.action()
                continue

            # Open the next window: the earliest of (next bucket, the
            # span containing the heap top).
            while order and order[0] not in buckets:
                heappop(order)  # bucket consumed without its order entry
            next_bucket = order[0] if order else None
            if head is None:
                if next_bucket is None:
                    break
                window = next_bucket
            elif next_bucket is not None and next_bucket * width <= head[0]:
                window = next_bucket
            else:
                window = int(head[0] * self._inv_width)
            if window * width > deadline:
                break
            if window == next_bucket:
                heappop(order)
                bucket = buckets.pop(window)
                bucket.sort()
                entries = self._entries = bucket
                idx = self._entry_idx = 0
            self._drained_until = (window + 1) * width
        return executed

    def step(self) -> bool:
        """Run the single next live event.  Returns False if none is queued."""
        return self._run(_INF, 1) == 1

    def run_until(self, deadline: float) -> None:
        """Run all events with ``time <= deadline``; leave ``now == deadline``.

        Events scheduled exactly at the deadline *do* run.  ``deadline``
        is absolute simulated seconds.
        """
        self._run(deadline, None)
        if deadline > self._now:
            self._now = deadline

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from now."""
        self.run_until(self._now + duration)

    def run_batch(self, deadline: float = _INF) -> int:
        """Drain the next pending calendar window as one batch.

        Executes every queued event in the bucket-width span containing
        the earliest pending event (capped at ``deadline``), without
        per-event heap discipline for the bucketed part, and returns the
        number executed.  Unlike :meth:`run_until`, the clock is left at
        the last executed event, not bumped to the window boundary — so
        callers can alternate ``run_batch()`` with inspection at event
        granularity while paying batch prices.
        """
        start = self._next_time()
        if start is None or start > deadline:
            return 0
        if start >= _FAR_HORIZON:
            # No representable span out there: the batch is that instant.
            return self._run(min(deadline, start), None)
        window_end = (int(start * self._inv_width) + 1) * self._bucket_width
        # Events at exactly window_end belong to the next window; walk
        # the inclusive deadline one ulp down to exclude them.
        return self._run(min(deadline, math.nextafter(window_end, 0.0)), None)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue empties; mostly useful in unit tests.

        Raises :class:`SimulationError` after ``max_events`` events as a
        guard against self-perpetuating schedules (heartbeats, probes).
        """
        count = self._run(_INF, max_events)
        if count >= max_events:
            raise SimulationError("drain() exceeded max_events; "
                                  "did you drain a self-perpetuating schedule?")
        return count

    def pending(self) -> int:
        """Number of queued live events; O(1) thanks to cancel accounting."""
        return self._seq - self._executed - self._cancels

    def pending_times(self) -> Iterator[float]:
        """Times of queued live events, unsorted; for diagnostics."""
        for entry in self._heap:
            if not entry[2].cancelled:
                yield entry[0]
        for bucket in self._buckets.values():
            for entry in bucket:
                yield entry[0]
        for entry in self._entries[self._entry_idx:]:
            yield entry[0]

    def _next_time(self) -> float | None:
        """Earliest pending event time, or None; pops tombstones it meets."""
        heap = self._heap
        while heap:
            if heap[0][2].cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
                self._tombstone_pops += 1
            else:
                break
        candidates = []
        if heap:
            candidates.append(heap[0][0])
        if self._entry_idx < len(self._entries):
            candidates.append(self._entries[self._entry_idx][0])
        order = self._bucket_order
        buckets = self._buckets
        while order and order[0] not in buckets:
            heapq.heappop(order)
        if order:
            # The window start is a lower bound for every entry in the
            # bucket — enough to identify the next window to open.
            candidates.append(min(entry[0] for entry in buckets[order[0]]))
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------
    # Tombstone bookkeeping (called by EventHandle.cancel)
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancels += 1
        self._tombstones += 1
        tombstones = self._tombstones
        heap = self._heap
        if (tombstones >= _COMPACT_THRESHOLD
                and tombstones * 2 >= len(heap)):
            # In-place (the run loops hold a reference to this list, and
            # cancellation can happen from inside a running event).
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0
            self._compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulation(now={self._now:.3f}, pending={self.pending()})"
