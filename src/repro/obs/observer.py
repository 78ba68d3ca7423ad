"""The observer protocol and its fan-out hub.

Everything observable in a run — wire traffic, process lifecycle, leader
changes, decisions, protocol phase spans — flows through exactly one
dispatch point: the :class:`ObserverHub` owned by each
:class:`~repro.sim.network.Network`.  An :class:`Observer` subclass
overrides only the hooks it cares about; the hub precomputes, per event
kind, the tuple of bound methods that actually do something, so

* attaching any number of observers never changes a run (observers are
  passive — they receive copies of event fields, not live objects), and
* a hub with no observer for an event kind costs the emitting hot path a
  single empty-tuple truthiness check, preserving the benchmark wins of
  the lazy-trace era.

Observers never raise into the simulation: a hook that throws is a bug
in the observer, and the exception propagates — determinism of the
*event schedule* is still guaranteed because observers cannot schedule,
send, or mutate simulation state through their hook arguments.

The :func:`capture` context manager solves the "instrument someone
else's run" problem: code that builds clusters deep inside a harness
(bench cases, soak campaigns) does not thread observer arguments through
every layer.  Instead, ``with capture(RunRecorder, TimelinessInspector)
as cap:`` registers factories; every network constructed inside the
``with`` body instantiates one observer per factory, attaches it to its
hub, and records itself on the capture, so the caller can harvest the
observers afterwards via ``cap.networks`` and ``hub.first(...)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

__all__ = ["Observer", "ObserverHub", "Capture", "capture", "attach_captured"]

ObserverT = TypeVar("ObserverT", bound="Observer")

# Event kinds dispatched by the hub; ``on_<kind>`` is the observer hook.
_EVENT_KINDS = (
    "send",
    "send_batch",
    "deliver",
    "drop",
    "packet_send",
    "packet_deliver",
    "crash",
    "recover",
    "pause",
    "resume",
    "sync",
    "leader_change",
    "decide",
    "span_begin",
    "span_end",
)


class Observer:
    """Base class for run observers: override only the hooks you need.

    Every hook is a no-op here; the hub inspects which methods a subclass
    actually overrides and dispatches only those, so an observer that
    only cares about leader changes adds nothing to the message hot
    path.  All ``time`` arguments are seconds of simulated time.
    """

    def on_send(self, time: float, src: int, dst: int, kind: str) -> None:
        """A message of ``kind`` was handed to the network on ``src -> dst``."""

    def on_send_batch(self, time: float, src: int,
                      dsts: tuple[int, ...], kind: str) -> None:
        """``src`` handed the network one message of ``kind`` per pid in ``dsts``.

        The batched form of :meth:`on_send`, dispatched once per
        broadcast fan-out instead of once per destination.  An observer
        that overrides this hook is *batch-aware*: for broadcast traffic
        it receives this single call and **not** n−1 :meth:`on_send`
        calls (unbatched ``Network.send`` traffic still arrives via
        :meth:`on_send`).  Observers that override only :meth:`on_send`
        keep receiving one call per destination, exactly as before the
        batched fast path existed.
        """

    def on_deliver(self, time: float, src: int, dst: int, kind: str,
                   sent_at: float) -> None:
        """A message was delivered; ``time - sent_at`` is its link delay."""

    def on_drop(self, time: float, src: int, dst: int, kind: str,
                reason: str) -> None:
        """A message was dropped (``reason`` as in :class:`~repro.sim.trace.DropRecord`)."""

    def on_packet_send(self, time: float, src: int, dst: int, kind: str,
                       size: int, packets: int) -> None:
        """A send cost ``size`` wire bytes in ``packets`` packets.

        Only dispatched when some observer overrides it: the network
        encodes messages (:mod:`repro.wire`) only then, so packet
        accounting is free for runs that do not ask for it.
        """

    def on_packet_deliver(self, time: float, src: int, dst: int, kind: str,
                          size: int, packets: int) -> None:
        """A delivery carried ``size`` wire bytes in ``packets`` packets."""

    def on_crash(self, time: float, pid: int) -> None:
        """Process ``pid`` crashed (down until a possible recovery)."""

    def on_recover(self, time: float, pid: int, incarnation: int) -> None:
        """Process ``pid`` recovered as ``incarnation`` (see :meth:`~repro.sim.process.Process.recover`)."""

    def on_sync(self, time: float, pid: int, keys: tuple, ok: bool) -> None:
        """Process ``pid``'s stable storage committed (or failed) a sync batch."""

    def on_pause(self, time: float, pid: int) -> None:
        """Process ``pid`` was frozen (see :meth:`~repro.sim.process.Process.pause`)."""

    def on_resume(self, time: float, pid: int) -> None:
        """Process ``pid`` was unfrozen and replayed what it missed."""

    def on_leader_change(self, time: float, pid: int, leader: int) -> None:
        """Process ``pid``'s Omega module changed its output to ``leader``."""

    def on_decide(self, time: float, pid: int, value: Any) -> None:
        """Process ``pid`` decided ``value`` (consensus instance or log slot)."""

    def on_span_begin(self, time: float, pid: int, name: str,
                      detail: Any) -> None:
        """Process ``pid`` entered the span ``name`` (election epoch, ballot phase)."""

    def on_span_end(self, time: float, pid: int, name: str,
                    detail: Any) -> None:
        """Process ``pid`` left the span ``name``; pairs with the open begin."""


class ObserverHub:
    """Fan-out dispatcher from one event source to any number of observers.

    The hub exposes one precomputed tuple of callbacks per event kind
    (``send_cbs``, ``deliver_cbs``, ...).  Hot paths iterate those
    directly; an empty tuple means "nobody is listening" and costs one
    truthiness check.  Cold events (crashes, leader changes, spans) go
    through the convenience dispatch methods below.
    """

    def __init__(self) -> None:
        self._observers: list[Observer] = []
        self._rebuild()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def observers(self) -> tuple[Observer, ...]:
        """The attached observers, in attachment order."""
        return tuple(self._observers)

    @property
    def active(self) -> bool:
        """Whether any observer is attached."""
        return bool(self._observers)

    def attach(self, observer: ObserverT) -> ObserverT:
        """Attach ``observer`` and return it (handy for inline construction)."""
        if not isinstance(observer, Observer):
            raise TypeError(
                f"observers must subclass Observer, got {type(observer).__name__}")
        self._observers.append(observer)
        self._rebuild()
        return observer

    def detach(self, observer: Observer) -> None:
        """Detach ``observer``; raises ValueError if it is not attached."""
        self._observers.remove(observer)
        self._rebuild()

    def first(self, cls: type[ObserverT]) -> ObserverT | None:
        """The earliest-attached observer of type ``cls``, or None."""
        for observer in self._observers:
            if isinstance(observer, cls):
                return observer
        return None

    def of_type(self, cls: type[ObserverT]) -> list[ObserverT]:
        """All attached observers of type ``cls``, in attachment order."""
        return [obs for obs in self._observers if isinstance(obs, cls)]

    def _rebuild(self) -> None:
        # Per event kind, keep only methods actually overridden — the
        # no-op base hooks would cost a call for nothing.
        for kind in _EVENT_KINDS:
            hook = "on_" + kind
            base = getattr(Observer, hook)
            callbacks = tuple(
                getattr(obs, hook) for obs in self._observers
                if getattr(type(obs), hook, base) is not base
            )
            setattr(self, kind + "_cbs", callbacks)
        # Batched fan-out support: observers that override on_send but
        # NOT on_send_batch still get per-destination calls on the
        # broadcast fast path; batch-aware observers get the one
        # on_send_batch call instead (never both).
        send_base = Observer.on_send
        batch_base = Observer.on_send_batch
        self.send_only_cbs = tuple(
            obs.on_send for obs in self._observers
            if getattr(type(obs), "on_send", send_base) is not send_base
            and getattr(type(obs), "on_send_batch", batch_base) is batch_base
        )

    # ------------------------------------------------------------------
    # Cold-path dispatch (hot paths inline the *_cbs tuples instead)
    # ------------------------------------------------------------------

    def crash(self, time: float, pid: int) -> None:
        """Dispatch a process crash to all interested observers."""
        for callback in self.crash_cbs:
            callback(time, pid)

    def recover(self, time: float, pid: int, incarnation: int) -> None:
        """Dispatch a process recovery."""
        for callback in self.recover_cbs:
            callback(time, pid, incarnation)

    def sync(self, time: float, pid: int, keys: tuple, ok: bool) -> None:
        """Dispatch a stable-storage sync completion."""
        for callback in self.sync_cbs:
            callback(time, pid, keys, ok)

    def pause(self, time: float, pid: int) -> None:
        """Dispatch a process pause."""
        for callback in self.pause_cbs:
            callback(time, pid)

    def resume(self, time: float, pid: int) -> None:
        """Dispatch a process resume."""
        for callback in self.resume_cbs:
            callback(time, pid)

    def leader_change(self, time: float, pid: int, leader: int) -> None:
        """Dispatch an Omega output change."""
        for callback in self.leader_change_cbs:
            callback(time, pid, leader)

    def decide(self, time: float, pid: int, value: Any) -> None:
        """Dispatch a consensus decision."""
        for callback in self.decide_cbs:
            callback(time, pid, value)

    def span_begin(self, time: float, pid: int, name: str,
                   detail: Any = None) -> None:
        """Dispatch the opening of a protocol span."""
        for callback in self.span_begin_cbs:
            callback(time, pid, name, detail)

    def span_end(self, time: float, pid: int, name: str,
                 detail: Any = None) -> None:
        """Dispatch the closing of a protocol span."""
        for callback in self.span_end_cbs:
            callback(time, pid, name, detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [type(obs).__name__ for obs in self._observers]
        return f"ObserverHub({', '.join(names)})"


class Capture:
    """Handle returned by :func:`capture`: the networks built under it.

    ``networks`` lists every network constructed while the capture was
    active, in construction order; query each network's hub (e.g.
    ``cap.networks[0].hub.first(RunRecorder)``) for the observers the
    capture instantiated.
    """

    def __init__(self, factories: tuple[Callable[[], Observer], ...]) -> None:
        self.factories = factories
        self.networks: list[Any] = []

    def instances(self, cls: type[ObserverT]) -> list[ObserverT]:
        """All captured observers of type ``cls`` across all networks."""
        out: list[ObserverT] = []
        for network in self.networks:
            out.extend(network.hub.of_type(cls))
        return out


_ACTIVE_CAPTURES: list[Capture] = []


@contextmanager
def capture(*factories: Callable[[], Observer]) -> Iterator[Capture]:
    """Attach one observer per factory to every network built in the body.

    Factories are zero-argument callables (typically the observer class
    itself).  Captures nest; each active capture contributes its own
    instances.  Observer instantiation order is deterministic, and the
    observers themselves cannot perturb a run, so wrapping any
    deterministic harness in a capture reproduces the identical run.
    """
    handle = Capture(factories)
    _ACTIVE_CAPTURES.append(handle)
    try:
        yield handle
    finally:
        _ACTIVE_CAPTURES.remove(handle)


def attach_captured(hub: ObserverHub, network: Any) -> None:
    """Instantiate active captures' observers onto ``hub``.

    Called by :class:`~repro.sim.network.Network` at construction — the
    single choke point through which every cluster and consensus system
    acquires its observers.
    """
    for handle in _ACTIVE_CAPTURES:
        for factory in handle.factories:
            hub.attach(factory())
        handle.networks.append(network)
