"""The live transport: :class:`~repro.transport.Transport` over UDP.

One :class:`LiveTransport` plays the role the sim's
:class:`~repro.sim.network.Network` plays: processes ``register`` with
it, ``send``/``broadcast`` through it, and every observable event is
dispatched through its :class:`~repro.obs.observer.ObserverHub` with
the exact vocabulary the sim uses — so :class:`~repro.obs.report.RunRecorder`,
:class:`~repro.sim.metrics.MetricsCollector` and the report builders
attach unchanged.

Topology is a static **endpoint map** ``{pid: (host, port)}`` covering
the whole ensemble; the subset in ``local_pids`` is hosted by this OS
process (one datagram endpoint each).  A per-OS-process node hosts one
pid; the in-loop conformance tests host all of them on loopback —
messages still cross real UDP sockets either way.

Link faults act at the socket boundary: :meth:`LiveTransport.apply_fault`
takes a nemesis ``degrade``/``dup``/``flap``/``netem``/``partition``
event and disturbs its ordered pairs for the event's window length,
through one kind→effect table (``_EFFECTS``).  Crash/pause faults act
on the *process* (SIGKILL/SIGSTOP from the cluster harness, or
``Process.crash`` in-loop), not on the transport.

Semantics versus the sim (the full table is in ``docs/TRANSPORT.md``):

* UDP may drop, duplicate, and reorder on its own; the base "link
  policy" of a live pair is whatever loopback or your network gives,
  plus any fault windows.
* The stale-incarnation rule is enforced at the **receiver**: frames
  stamped with an incarnation lower than the sender's newest known one
  are dropped as ``stale_incarnation`` (exact for senders hosted in the
  same loop, newest-seen for remote senders).
* A frame (:mod:`repro.live.codec`) is the :mod:`repro.wire` message
  plus incarnation and send time; packet accounting counts its message bytes, the sim's
  ``wire_size()``, so the backends' ``packets`` blocks compare directly.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.live.runtime import LiveClock
from repro.obs.observer import Observer, attach_captured, ObserverHub
from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector
from repro.transport import TransportError
from repro.live.codec import decode_frame, encode_frame, frame_overhead
from repro.sim.packets import DEFAULT_MTU, packet_count
from repro.wire import CodecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process

__all__ = ["LiveTransport"]


#: Burst allowance of the rate-cap token bucket, in seconds of the cap
#: (a 200 frames/s cap may burst ~20 frames before shedding).
_BURST_S = 0.1

#: Cap on a pareto jitter draw, in multiples of ``jitter`` — keeps the
#: heavy tail from exceeding protocol timeouts by unbounded amounts.
_PARETO_CAP = 4.0

#: Shape parameter of the pareto jitter distribution.  ``alpha = 2``
#: makes ``jitter * (X - 1)`` average ``jitter`` with a heavy tail, so
#: uniform and pareto windows are comparable at the same ``jitter``.
_PARETO_ALPHA = 2.0


@dataclass(frozen=True)
class _Effect:
    """What one link fault does to each frame on its ordered pairs.

    ``cut`` drops every frame (reason ``partition``); ``loss`` drops
    with that probability (reason ``link``); ``extra_delay`` adds a
    uniform ``[0, extra_delay)`` latency and ``delay`` a fixed one;
    ``jitter`` adds a spread drawn from ``dist`` (``uniform`` over
    ``[0, jitter)``, or a heavy-tailed ``pareto`` scaled so its mean is
    ``jitter`` and capped at 4x); ``duplicate`` is the probability of a
    second copy; ``reorder`` the probability that a frame skips its
    delay and overtakes in-flight traffic; ``rate`` a frames/second
    cap (``0`` = none) enforced by a token bucket, whose excess drops
    with reason ``rate_cap``.
    """

    cut: bool = False
    loss: float = 0.0
    extra_delay: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    dist: str = "uniform"
    reorder: float = 0.0
    rate: float = 0.0

    def __add__(self, other: "_Effect") -> "_Effect":
        """Two overlapping faults: losses compose multiplicatively,
        delays and jitters add, duplicate/reorder take the max, a
        pareto jitter makes the sum pareto, the tightest cap wins."""
        rates = [rate for rate in (self.rate, other.rate) if rate > 0.0]
        return _Effect(
            cut=self.cut or other.cut,
            loss=1.0 - (1.0 - self.loss) * (1.0 - other.loss),
            extra_delay=self.extra_delay + other.extra_delay,
            duplicate=max(self.duplicate, other.duplicate),
            delay=self.delay + other.delay,
            jitter=self.jitter + other.jitter,
            dist="pareto" if "pareto" in (self.dist, other.dist)
            else "uniform",
            reorder=max(self.reorder, other.reorder),
            rate=min(rates, default=0.0))


#: The live effect of each nemesis link-fault kind, the one place in
#: ``repro.live`` that reads a link fault's fields:
#:
#: =============  =====================================================
#: ``degrade``    extra ``loss`` plus a uniform extra delay up to
#:                ``delay``.
#: ``dup``        a second copy with probability ``p``.
#: ``flap``       a loss of ``1 - up`` for the whole window (the sim's
#:                square-wave up/down cycling has no socket-level
#:                equivalent here).
#: ``netem``      the full shape: fixed ``delay``, ``jitter`` drawn
#:                from ``dist``, ``reorder``, ``rate`` cap and ``loss``
#:                — per ordered direction, so asymmetric regimes apply
#:                as written.
#: ``partition``  every frame between two groups (or from or to a pid
#:                in no group) is cut, as on the sim's ``Network``.
#: =============  =====================================================
_EFFECTS: dict[str, Callable[[Any], _Effect]] = {
    "degrade": lambda event: _Effect(loss=event.loss,
                                     extra_delay=event.delay),
    "dup": lambda event: _Effect(duplicate=event.p),
    "flap": lambda event: _Effect(loss=1.0 - event.up),
    "netem": lambda event: _Effect(
        loss=event.loss, delay=event.delay, jitter=event.jitter,
        dist=event.dist, reorder=event.reorder, rate=event.rate),
    "partition": lambda event: _Effect(cut=True),
}


def _fault_pairs(event: Any,
                 pids: Iterable[int]) -> frozenset[tuple[int, int]]:
    """The ordered pairs a link fault disturbs among ``pids``."""
    if event.kind != "partition":
        return frozenset(event.link_pairs())
    return frozenset(
        (src, dst) for src in pids for dst in pids if src != dst
        and not any(src in group and dst in group
                    for group in event.groups))


class _Endpoint(asyncio.DatagramProtocol):
    """Datagram protocol for one locally hosted pid."""

    def __init__(self, transport: "LiveTransport", pid: int) -> None:
        self._owner = transport
        self._pid = pid

    def datagram_received(self, data: bytes,
                          addr: tuple) -> None:  # noqa: ARG002
        self._owner._on_datagram(self._pid, data)


class LiveTransport:
    """Message fabric over UDP datagram endpoints.

    Parameters
    ----------
    clock:
        The node's :class:`~repro.live.runtime.LiveClock`.
    endpoints:
        ``{pid: (host, port)}`` for the **whole** ensemble.  Port 0 is
        allowed for local pids: the bound port is written back into the
        map by :meth:`open` (in-loop tests use this).
    local_pids:
        Pids hosted by this OS process; each gets a datagram endpoint.
    observers:
        As for :class:`~repro.sim.network.Network`: ``None`` attaches a
        fresh :class:`~repro.sim.metrics.MetricsCollector`, an explicit
        empty tuple gives a bare hub.  Active
        :func:`~repro.obs.observer.capture` contexts contribute their
        observers here too.
    seed:
        Seed of the fault-window RNG (loss/delay/duplication draws).
        Live runs are not deterministic anyway, but a fixed seed keeps
        the *fault* draws reproducible given identical timing.
    """

    #: Frame bytes become packets at this size, as on the sim network.
    mtu = DEFAULT_MTU

    def __init__(self, clock: LiveClock,
                 endpoints: dict[int, tuple[str, int]],
                 local_pids: Iterable[int],
                 observers: Iterable[Observer] | None = None,
                 seed: int = 0) -> None:
        self.clock = clock
        self.hub = ObserverHub()
        if observers is None:
            self.hub.attach(MetricsCollector())
        else:
            for observer in observers:
                self.hub.attach(observer)
        attach_captured(self.hub, self)
        self.endpoints = {pid: (host, port)
                          for pid, (host, port) in endpoints.items()}
        self.local_pids = tuple(sorted(set(local_pids)))
        for pid in self.local_pids:
            if pid not in self.endpoints:
                raise TransportError(f"local pid {pid} has no endpoint")
        self._processes: dict[int, "Process"] = {}
        self._sockets: dict[int, asyncio.DatagramTransport] = {}
        # Open link faults: (end, ordered pairs, effect), in apply order.
        self._windows: list[
            tuple[float, frozenset[tuple[int, int]], _Effect]] = []
        # Token buckets of rate-capped pairs: (src, dst) -> (tokens, last).
        self._buckets: dict[tuple[int, int], tuple[float, float]] = {}
        self._rng = random.Random(seed)
        # Newest incarnation seen per sender; the receiver-side
        # stale-incarnation filter (exact for in-loop senders).
        self._peer_incarnation: dict[int, int] = {}
        self.frames_sent = 0
        self.frames_received = 0

    # ------------------------------------------------------------------
    # Socket lifecycle
    # ------------------------------------------------------------------

    async def open(self) -> None:
        """Bind one datagram endpoint per local pid.

        Rewrites port-0 entries in :attr:`endpoints` with the bound
        port, so callers can read real addresses back afterwards.
        """
        loop = self.clock.loop
        for pid in self.local_pids:
            if pid in self._sockets:
                continue
            host, port = self.endpoints[pid]
            socket_transport, _protocol = await loop.create_datagram_endpoint(
                lambda pid=pid: _Endpoint(self, pid),
                local_addr=(host, port))
            bound = socket_transport.get_extra_info("sockname")
            self.endpoints[pid] = (host, bound[1])
            self._sockets[pid] = socket_transport

    def close(self) -> None:
        """Close all local endpoints.  Idempotent."""
        for socket_transport in self._sockets.values():
            socket_transport.close()
        self._sockets.clear()

    # ------------------------------------------------------------------
    # Transport protocol: topology
    # ------------------------------------------------------------------

    def register(self, process: "Process") -> None:
        """Attach a locally hosted process (called by ``Process.__init__``)."""
        pid = process.pid
        if not isinstance(pid, int) or isinstance(pid, bool) or pid < 0:
            raise TransportError(f"pids must be nonnegative ints, got {pid!r}")
        if pid in self._processes:
            raise TransportError(f"duplicate pid {pid}")
        if pid not in self.endpoints:
            raise TransportError(
                f"pid {pid} has no endpoint; known: {self.pids}")
        self._processes[pid] = process

    def process(self, pid: int) -> "Process":
        """The locally hosted process with this pid."""
        try:
            return self._processes[pid]
        except KeyError:
            raise TransportError(
                f"pid {pid} is not hosted by this transport "
                f"(local: {sorted(self._processes)})") from None

    @property
    def pids(self) -> list[int]:
        """All ensemble pids (local and remote), sorted."""
        return sorted(self.endpoints)

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------

    def apply_fault(self, event: Any) -> None:
        """Apply a nemesis link fault from now for its window's length.

        ``event`` is a parsed :mod:`repro.sim.nemesis` event; its
        effect comes from the kind→effect table above.  A process
        fault (crash, recover, pause) acts on the OS process, not on
        the sockets, and raises :class:`ValueError`.
        """
        effect = _EFFECTS.get(event.kind)
        if effect is None:
            raise ValueError(f"{event.kind} is a process fault; only "
                             f"link faults ({', '.join(_EFFECTS)}) "
                             f"apply to a transport")
        start, end = event.window()
        window = (self.clock.now + end - start,
                  _fault_pairs(event, self.pids), effect(event))
        self._windows.append(window)
        # Once healed, the fault costs a send nothing.
        self.clock.post_after(end - start,
                              lambda: self._windows.remove(window))

    def _effect(self, src: int, dst: int, now: float) -> _Effect | None:
        """The composed effect of the faults open on ``src -> dst``."""
        effect = None
        for end, pairs, window in self._windows:
            if now < end and (src, dst) in pairs:
                effect = window if effect is None else effect + window
        return effect

    def _sample_jitter(self, jitter: float, dist: str) -> float:
        """One per-frame jitter draw: uniform spread or capped pareto."""
        if jitter <= 0.0:
            return 0.0
        if dist == "pareto":
            spread = jitter * (self._rng.paretovariate(_PARETO_ALPHA) - 1.0)
            return min(spread, jitter * _PARETO_CAP)
        return self._rng.uniform(0.0, jitter)

    def _rate_admit(self, src: int, dst: int, rate: float,
                    now: float) -> bool:
        """Token-bucket admission for a rate-capped pair."""
        tokens, last = self._buckets.get((src, dst), (rate * _BURST_S, now))
        burst = max(2.0, rate * _BURST_S)
        tokens = min(burst, tokens + (now - last) * rate)
        if tokens < 1.0:
            self._buckets[(src, dst)] = (tokens, now)
            return False
        self._buckets[(src, dst)] = (tokens - 1.0, now)
        return True

    # ------------------------------------------------------------------
    # Transport protocol: messaging
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: Message) -> None:
        """Send ``message`` from the local ``src`` to ``dst`` over UDP."""
        if src == dst:
            raise TransportError("processes do not send to themselves")
        sender = self._processes.get(src)
        if sender is None:
            raise TransportError(f"pid {src} is not hosted here")
        if dst not in self.endpoints:
            raise TransportError(f"unknown pid {dst}")
        now = self.clock.now
        kind = message.kind
        hub = self.hub
        if sender.crashed:
            # Mirror the sim: a dead process cannot emit; record loudly.
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, "src_crashed")
            raise TransportError(f"crashed process {src} attempted to send")
        send_cbs = hub.send_cbs
        if send_cbs:
            for callback in send_cbs:
                callback(now, src, dst, kind)
        frame = self._encode(message, sender.incarnation, now)
        self._transmit(src, dst, kind, frame, sender.incarnation, now)

    def broadcast(self, src: int, message: Message) -> None:
        """Send ``message`` from ``src`` to every other ensemble pid.

        Observer semantics match :meth:`~repro.sim.network.Network.broadcast`:
        batch-aware observers get one ``on_send_batch``, the rest one
        ``on_send`` per destination.
        """
        sender = self._processes.get(src)
        if sender is None:
            raise TransportError(f"pid {src} is not hosted here")
        if sender.crashed:
            for dst in self.pids:
                if dst != src:
                    self.send(src, dst, message)  # raises on the first
            return
        now = self.clock.now
        kind = message.kind
        hub = self.hub
        batch_cbs = hub.send_batch_cbs
        if batch_cbs:
            dsts = tuple(dst for dst in self.pids if dst != src)
            for callback in batch_cbs:
                callback(now, src, dsts, kind)
        send_cbs = hub.send_only_cbs
        incarnation = sender.incarnation
        frame = self._encode(message, incarnation, now)
        for dst in self.pids:
            if dst == src:
                continue
            if send_cbs:
                for callback in send_cbs:
                    callback(now, src, dst, kind)
            self._transmit(src, dst, kind, frame, incarnation, now)

    @staticmethod
    def _encode(message: Message, incarnation: int,
                now: float) -> bytes | None:
        """The one frame of a send or broadcast; ``None`` if oversized."""
        try:
            return encode_frame(message, incarnation, now)
        except CodecError as error:
            if error.reason != "oversized_frame":
                raise  # an unencodable field is a bug, not a link event
            return None

    def _transmit(self, src: int, dst: int, kind: str, frame: bytes | None,
                  incarnation: int, now: float) -> None:
        """Push one frame toward the socket, through any fault windows."""
        drop_cbs = self.hub.drop_cbs
        if frame is None:
            for callback in drop_cbs:
                callback(now, src, dst, kind, "oversized_frame")
            return
        packet_cbs = self.hub.packet_send_cbs
        if packet_cbs:
            size = len(frame) - frame_overhead(incarnation)
            packets = packet_count(size, self.mtu)
            for callback in packet_cbs:
                callback(now, src, dst, kind, size, packets)
        effect = self._effect(src, dst, now) if self._windows else None
        if effect is None:
            self._send_frame(src, dst, frame)
            return
        if effect.cut:
            for callback in drop_cbs:
                callback(now, src, dst, kind, "partition")
            return
        if effect.rate and not self._rate_admit(src, dst, effect.rate, now):
            for callback in drop_cbs:
                callback(now, src, dst, kind, "rate_cap")
            return
        if effect.loss and self._rng.random() < effect.loss:
            for callback in drop_cbs:
                callback(now, src, dst, kind, "link")
            return
        copies = (2 if effect.duplicate
                  and self._rng.random() < effect.duplicate else 1)
        for _ in range(copies):
            delay = effect.delay + self._sample_jitter(effect.jitter,
                                                       effect.dist)
            if effect.extra_delay:
                delay += self._rng.uniform(0.0, effect.extra_delay)
            if effect.reorder and self._rng.random() < effect.reorder:
                # netem reorder semantics: this frame bypasses the
                # shaped queue and overtakes delayed in-flight traffic.
                delay = 0.0
            if delay:
                self.clock.post_after(
                    delay, lambda: self._send_frame(src, dst, frame))
            else:
                self._send_frame(src, dst, frame)

    def _send_frame(self, src: int, dst: int, frame: bytes) -> None:
        socket_transport = self._sockets.get(src)
        if socket_transport is None or socket_transport.is_closing():
            return  # node shutting down; frames in flight are just lost
        socket_transport.sendto(frame, self.endpoints[dst])
        self.frames_sent += 1

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _on_datagram(self, dst: int, data: bytes) -> None:
        now = self.clock.now
        hub = self.hub
        try:
            message, incarnation, sent_at = decode_frame(data)
        except CodecError as error:
            # Oversized, truncated, garbage, or unknown-kind frames all
            # account under the decoder's precise reason; never raise
            # into the event loop off a datagram.
            for callback in hub.drop_cbs:
                callback(now, -1, dst, "?", error.reason)
            return
        self.frames_received += 1
        src = message.sender
        kind = message.kind
        local_sender = self._processes.get(src)
        if local_sender is not None:
            # Same-loop sender: the exact check the sim performs.
            newest = local_sender.incarnation
        else:
            newest = max(self._peer_incarnation.get(src, 0), incarnation)
            self._peer_incarnation[src] = newest
        if incarnation < newest:
            # The sending incarnation died while the frame was in
            # flight; its successor never sent it.
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, "stale_incarnation")
            return
        receiver = self._processes.get(dst)
        if receiver is None:
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, "dst_unknown")
            return
        if receiver.crashed or not receiver.started:
            reason = "dst_crashed" if receiver.crashed else "dst_not_started"
            for callback in hub.drop_cbs:
                callback(now, src, dst, kind, reason)
            return
        deliver_cbs = hub.deliver_cbs
        if deliver_cbs:
            # sent_at is the *sender's* clock; the difference is a true
            # delay only for same-loop senders (cross-process epochs
            # differ by the spawn stagger).
            for callback in deliver_cbs:
                callback(now, src, dst, kind, sent_at)
        packet_cbs = hub.packet_deliver_cbs
        if packet_cbs:
            size = len(data) - frame_overhead(incarnation)
            packets = packet_count(size, self.mtu)
            for callback in packet_cbs:
                callback(now, src, dst, kind, size, packets)
        receiver.deliver(message)

    # ------------------------------------------------------------------
    # Lifecycle bookkeeping (called by Process.crash / Process.recover)
    # ------------------------------------------------------------------

    def note_crash(self, pid: int) -> None:
        """Dispatch a crash to the observers."""
        self.hub.crash(self.clock.now, pid)

    def note_recover(self, pid: int, incarnation: int) -> None:
        """Dispatch a recovery (stale frames of older incarnations drop)."""
        self._peer_incarnation[pid] = max(
            self._peer_incarnation.get(pid, 0), incarnation)
        self.hub.recover(self.clock.now, pid, incarnation)
