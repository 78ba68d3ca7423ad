"""Actor-style process runtime.

A :class:`Process` is the unit of computation of the model: it reacts to
message deliveries and timer expirations, can send/broadcast messages,
and can crash.  A crash makes the process *down*: it neither sends,
receives, nor fires timers, and all volatile state of the runtime
(timers, pause buffers, unsynced storage writes) is gone.  Under the
default crash-stop reading (DESIGN.md §1.1) down is forever; the
crash-recovery extension (docs/RECOVERY.md) adds :meth:`Process.recover`,
which brings the process back as a fresh **incarnation** — volatile
state reset, durable state (see :class:`~repro.sim.storage.StableStorage`)
intact, and in-flight messages from the previous incarnation discarded
by the network.

Protocols subclass :class:`Process` and override the hooks:

``on_start()``
    Called once when the process is started (arm initial timers, send
    the first round of messages).

``on_message(message)``
    Called for every delivered message.

``on_timer(key)``
    Called when the timer named ``key`` expires.  Periodic timers
    re-arm themselves *before* dispatching, so a handler that wants to
    stop the cycle calls :meth:`cancel_timer`.

``on_crash()``
    Last hook before the process goes silent; useful for checkers.

``on_recover()``
    First hook of a new incarnation; reload durable state from
    :attr:`storage` and re-arm timers here.

Besides the permanent crash, a process can be **paused** and later
**resumed** (think SIGSTOP, a long GC pause, a VM migration).  While
paused it sends nothing, dispatches no timer handlers, and processes no
deliveries; incoming messages are buffered and handed to ``on_message``
at resume time, and one-shot timers that expired during the pause fire
(late) at resume.  Periodic timers keep re-arming silently so their
cycle survives the freeze.  Pauses are how the nemesis fault injector
(:mod:`repro.sim.nemesis`) provokes false suspicions without leaving
the crash-stop model.

Timers are named by an arbitrary hashable key; setting a timer that
already exists resets it (the usual "reset timer_p" of the pseudocode in
this literature).  Resetting a one-shot to a *later* time — what a
watchdog does on every heartbeat — is O(1) and touches no scheduler:
the process only records the new deadline, and the one event already
queued re-arms itself at that deadline when it fires.  ``on_timer``
still runs at exactly the last deadline set; what is unspecified is the
order among events of *different* processes due at that same instant
(docs/TRANSPORT.md, "Process timers").

A process does not touch the simulator directly: everything it needs
from its substrate goes through the two duck-typed surfaces of
:mod:`repro.transport` — ``sim`` only as a :class:`~repro.transport.Clock`
(``now``, ``call_after``/``call_at``/``post_after``) and ``network``
only as a :class:`~repro.transport.Transport` (``register``, ``send``/
``broadcast``, the crash/recovery notes, ``hub``).  That seam is what
lets the *same* process classes run on the deterministic
:class:`~repro.sim.engine.Simulation`/:class:`~repro.sim.network.Network`
pair or on the live asyncio backend
(:class:`~repro.live.runtime.LiveClock` /
:class:`~repro.live.transport.LiveTransport`) unchanged; the parameter
annotations below name the sim types because that is the default and
reference backend; they are imported for type checking only, so a live
node never loads the simulator.  See ``docs/TRANSPORT.md`` for the
exact contract and the sim-versus-live guarantee table.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable

from repro.sim.messages import Message
from repro.sim.storage import StableStorage
from repro.transport import TimerHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.network import Network

__all__ = ["Process", "ProcessError"]


class ProcessError(RuntimeError):
    """Raised on process lifecycle misuse (recovering an up process...)."""


class _Timer:
    """One armed timer key: the queued clock event and where it is headed.

    For a one-shot (``period`` is None) ``due`` is when the queued event
    fires and ``deadline`` (>= ``due``) when ``on_timer`` is to run; the
    two differ while a later reset is pending.  The process tracks
    ``due`` itself because the :class:`~repro.transport.TimerHandle`
    protocol carries no time.  Periodic keys use neither.
    """

    __slots__ = ("handle", "action", "due", "deadline", "period")

    def __init__(self, handle: TimerHandle, action: Callable[[], None],
                 due: float, period: float | None) -> None:
        self.handle = handle
        self.action = action
        self.due = self.deadline = due
        self.period = period


class Process:
    """A crashable (and recoverable) process on a clock and a transport.

    ``sim`` is any :class:`~repro.transport.Clock`, ``network`` any
    :class:`~repro.transport.Transport` — the sim pair in simulation
    runs, the live pair in ``python -m repro live`` runs.  The
    annotations name the sim classes as the reference implementation.
    """

    def __init__(self, pid: int, sim: Simulation, network: Network) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.incarnation = 0
        self._crashed = False
        self._started = False
        self._paused = False
        self._storage: StableStorage | None = None
        self._timers: dict[Hashable, _Timer] = {}
        self._held_messages: list[Message] = []
        self._missed_timers: list[Hashable] = []
        network.register(self)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    @property
    def crashed(self) -> bool:
        """Whether this process is down (permanent unless :meth:`recover`)."""
        return self._crashed

    @property
    def storage(self) -> StableStorage:
        """This process's stable storage, attached lazily on first use.

        Processes that never touch storage never build one (and pay
        nothing); processes that need configured storage call
        :meth:`attach_storage` before first use.
        """
        if self._storage is None:
            self._storage = StableStorage(self.pid, self.sim,
                                          hub=self.network.hub)
        return self._storage

    def attach_storage(self, storage: StableStorage) -> StableStorage:
        """Install a configured :class:`StableStorage` (before first use)."""
        if self._storage is not None:
            raise ProcessError(
                f"process {self.pid} already has stable storage attached")
        self._storage = storage
        return storage

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run."""
        return self._started

    @property
    def paused(self) -> bool:
        """Whether the process is currently frozen (see :meth:`pause`)."""
        return self._paused

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Run the ``on_start`` hook.  Idempotent; no-op when crashed."""
        if self._started or self._crashed:
            return
        self._started = True
        self.on_start()

    def crash(self) -> None:
        """Crash the process: cancel all timers and go silent (down).

        All volatile state — timers, pause buffers, unsynced storage
        writes — is lost.  Down is permanent under crash-stop; the
        crash-recovery extension may later call :meth:`recover`.
        """
        if self._crashed:
            return
        self._crashed = True
        self._paused = False
        for timer in self._timers.values():
            timer.handle.cancel()
        self._timers.clear()
        self._held_messages.clear()
        self._missed_timers.clear()
        if self._storage is not None:
            self._storage.note_crash()
        self.network.note_crash(self.pid)
        self.on_crash()

    def recover(self) -> None:
        """Bring a down process back as a fresh incarnation.

        Volatile state was already lost at crash time; durable storage
        survives.  The incarnation number increments (monotone across
        the process's lifetime), the network discards any still-in-flight
        messages sent by previous incarnations, and the ``on_recover``
        hook runs to reload durable state and re-arm timers.

        Raises :class:`ProcessError` if the process is not down —
        recovering an up process (including double-recovery) is a
        harness bug, not a fault to model.
        """
        if not self._crashed:
            raise ProcessError(
                f"process {self.pid} is up (incarnation {self.incarnation}); "
                f"recover() requires a crashed process")
        self._crashed = False
        self._paused = False
        self.incarnation += 1
        self.network.note_recover(self.pid, self.incarnation)
        self.on_recover()

    def pause(self) -> None:
        """Freeze the process: no sends, no handler dispatch, until resume.

        Idempotent; a no-op on crashed processes.  Deliveries and expired
        one-shot timers are queued and replayed by :meth:`resume`.
        """
        if self._crashed or self._paused:
            return
        self._paused = True
        self.network.hub.pause(self.sim.now, self.pid)

    def resume(self) -> None:
        """Unfreeze the process and replay what it missed while paused.

        One-shot timers that expired during the pause fire first (late,
        at the current time), then buffered deliveries are dispatched in
        arrival order.  Idempotent; a no-op on crashed processes.
        """
        if self._crashed or not self._paused:
            return
        self._paused = False
        self.network.hub.resume(self.sim.now, self.pid)
        missed, self._missed_timers = self._missed_timers, []
        held, self._held_messages = self._held_messages, []
        for position, key in enumerate(missed):
            if self._crashed:
                return
            if self._paused:  # handler re-paused us: keep the remainder
                self._missed_timers = missed[position:] + self._missed_timers
                self._held_messages = held + self._held_messages
                return
            self.on_timer(key)
        for position, message in enumerate(held):
            if self._crashed:
                return
            if self._paused:
                self._held_messages = held[position:] + self._held_messages
                return
            self.on_message(message)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, dst: int, message: Message) -> None:
        """Send a message to ``dst``; ignored while crashed or paused."""
        if self._crashed or self._paused:
            return
        self.network.send(self.pid, dst, message)

    def broadcast(self, message: Message) -> None:
        """Send to every other process; ignored while crashed or paused."""
        if self._crashed or self._paused:
            return
        self.network.broadcast(self.pid, message)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def set_timer(self, key: Hashable, delay: float) -> None:
        """Arm (or reset) the one-shot timer ``key`` to fire after ``delay``.

        Resetting an armed one-shot to the same or a later time only
        records the new deadline (see :meth:`_fire`); an earlier time, a
        periodic key or an unarmed key schedules a clock event.
        """
        if self._crashed:
            return
        deadline = self.sim.now + delay
        timer = self._timers.get(key)
        if (timer is not None and timer.period is None
                and deadline >= timer.due):
            timer.deadline = deadline
            return
        self.cancel_timer(key)
        action = partial(self._fire, key)
        self._timers[key] = _Timer(self.sim.call_after(delay, action),
                                   action, deadline, None)

    def set_periodic(self, key: Hashable, period: float,
                     first: float | None = None) -> None:
        """Arm the timer ``key`` to fire every ``period`` units until cancelled.

        The first fire is one ``period`` from now, or at the absolute
        time ``first`` when given — which lets a cycle that was
        cancelled resume on the grid it left.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        if self._crashed:
            return
        self.cancel_timer(key)
        action = partial(self._fire, key)
        handle = (self.sim.call_after(period, action) if first is None
                  else self.sim.call_at(first, action))
        self._timers[key] = _Timer(handle, action, 0.0, period)

    def cancel_timer(self, key: Hashable) -> None:
        """Disarm timer ``key`` (and stop its periodic cycle).  Idempotent."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.handle.cancel()

    def has_timer(self, key: Hashable) -> bool:
        """Whether timer ``key`` is currently armed."""
        return key in self._timers

    def _fire(self, key: Hashable) -> None:
        if self._crashed:  # crash raced the event; stay silent
            return
        timer = self._timers[key]
        period = timer.period
        if period is None:
            deadline = timer.deadline
            if deadline > self.sim.now:
                # Reset to a later time while queued: follow the deadline.
                timer.due = deadline
                timer.handle = self.sim.call_at(deadline, timer.action)
                return
            del self._timers[key]
            if self._paused:  # expiring under a pause: fires at resume
                self._missed_timers.append(key)
                return
        else:
            # Re-arm before dispatch so on_timer may cancel to stop the cycle.
            timer.handle = self.sim.call_after(period, timer.action)
            if self._paused:  # frozen: the cycle survives, the tick is lost
                return
        self.on_timer(key)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Entry point used by the network; dispatches to ``on_message``."""
        if self._crashed:
            return
        if self._paused:  # frozen endpoint: the kernel buffers for us
            self._held_messages.append(message)
            return
        self.on_message(message)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        """Initialization hook; default does nothing."""

    def on_message(self, message: Message) -> None:
        """Message hook; default does nothing."""

    def on_timer(self, key: Hashable) -> None:
        """Timer hook; default does nothing."""

    def on_crash(self) -> None:
        """Crash hook; default does nothing."""

    def on_recover(self) -> None:
        """Recovery hook (new incarnation); default does nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._crashed:
            state = "crashed"
        elif self._paused:
            state = "paused"
        else:
            state = "up" if self._started else "new"
        return f"<{type(self).__name__} pid={self.pid} {state}>"
