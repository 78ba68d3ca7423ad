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

Fault injection happens at the socket boundary: a :class:`LinkWindow`
overlays extra loss, delay, and duplication on chosen ordered pairs for
a time window, which is how the nemesis ``degrade``/``flap``/``dup``
events (and partitions, as loss-1.0 windows) map onto live runs.
Crash/pause faults act on the *process* (SIGKILL/SIGSTOP from the
cluster harness, or ``Process.crash`` in-loop), not on the transport.

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
from typing import TYPE_CHECKING, Iterable

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

__all__ = ["LinkWindow", "LiveTransport"]


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
class LinkWindow:
    """A socket-level disturbance window on chosen ordered pairs.

    ``pairs`` is a tuple of ``(src, dst)`` ordered pairs, or ``()`` for
    *all* pairs.  ``loss`` is an extra drop probability, ``extra_delay``
    an extra uniform-[0, extra_delay] latency, ``duplicate`` a
    probability of sending a second copy — the live analogue of
    :class:`~repro.sim.links.DegradedWindow`.  Times are seconds on the
    applying transport's clock.

    The netem-style fields extend the window into the shapes a
    ``tc netem`` qdisc produces (nemesis ``netem`` events map here):
    ``delay`` is a *fixed* base latency; ``jitter`` an additional
    spread drawn per frame from ``dist`` (``uniform`` over
    ``[0, jitter)``, or a heavy-tailed ``pareto`` scaled so its mean is
    ``jitter`` and capped at 4x); ``reorder`` the probability that a
    frame skips its queued delay entirely and overtakes in-flight
    traffic; ``rate`` a frames/second cap (``0`` = uncapped) enforced
    by a token bucket — frames over the cap drop with reason
    ``rate_cap``.  Because pairs are ordered, asymmetric per-direction
    regimes are just two windows.
    """

    start: float
    end: float
    pairs: tuple[tuple[int, int], ...] = ()
    loss: float = 0.0
    extra_delay: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    dist: str = "uniform"
    reorder: float = 0.0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("window must have positive duration")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(
                f"duplicate must be a probability, got {self.duplicate}")
        if self.extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.dist not in ("uniform", "pareto"):
            raise ValueError(
                f"dist must be 'uniform' or 'pareto', got {self.dist!r}")
        if not 0.0 <= self.reorder <= 1.0:
            raise ValueError(
                f"reorder must be a probability, got {self.reorder}")
        if self.rate < 0:
            raise ValueError("rate must be >= 0 (0 = uncapped)")

    def applies(self, src: int, dst: int, now: float) -> bool:
        """Whether this window disturbs ``src -> dst`` at ``now``."""
        if not self.start <= now < self.end:
            return False
        return not self.pairs or (src, dst) in self.pairs


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
        self._windows: list[LinkWindow] = []
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
    # Fault windows
    # ------------------------------------------------------------------

    def add_window(self, window: LinkWindow) -> None:
        """Overlay a loss/delay/duplication window on outbound traffic."""
        self._windows.append(window)

    def degrade(self, duration: float,
                pairs: tuple[tuple[int, int], ...] = (),
                loss: float = 0.0, extra_delay: float = 0.0,
                duplicate: float = 0.0, start: float | None = None,
                delay: float = 0.0, jitter: float = 0.0,
                dist: str = "uniform", reorder: float = 0.0,
                rate: float = 0.0) -> LinkWindow:
        """Convenience: add a window starting now (or at ``start``)."""
        begin = self.clock.now if start is None else start
        window = LinkWindow(begin, begin + duration, pairs, loss,
                            extra_delay, duplicate, delay, jitter, dist,
                            reorder, rate)
        self.add_window(window)
        return window

    def _window_effects(self, src: int, dst: int, now: float) -> tuple[
            float, float, float, float, float, str, float, float]:
        """Composed disturbance on ``src -> dst`` at ``now``.

        Returns ``(loss, uniform_delay, duplicate, base_delay, jitter,
        dist, reorder, rate)``.  Losses compose multiplicatively,
        delays and jitters add, duplicate/reorder take the max, any
        pareto window makes the composed jitter pareto, and the
        tightest positive rate cap wins.
        """
        loss = 0.0
        uniform_delay = 0.0
        duplicate = 0.0
        base_delay = 0.0
        jitter = 0.0
        dist = "uniform"
        reorder = 0.0
        rate = 0.0
        for window in self._windows:
            if window.applies(src, dst, now):
                loss = 1.0 - (1.0 - loss) * (1.0 - window.loss)
                uniform_delay += window.extra_delay
                duplicate = max(duplicate, window.duplicate)
                base_delay += window.delay
                jitter += window.jitter
                if window.dist == "pareto":
                    dist = "pareto"
                reorder = max(reorder, window.reorder)
                if window.rate > 0.0:
                    rate = window.rate if rate == 0.0 else min(rate,
                                                               window.rate)
        return (loss, uniform_delay, duplicate, base_delay, jitter, dist,
                reorder, rate)

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
        (loss, uniform_delay, duplicate, base_delay, jitter, dist,
         reorder, rate) = self._window_effects(src, dst, now)
        if rate and not self._rate_admit(src, dst, rate, now):
            for callback in drop_cbs:
                callback(now, src, dst, kind, "rate_cap")
            return
        if loss and self._rng.random() < loss:
            for callback in drop_cbs:
                callback(now, src, dst, kind, "link")
            return
        copies = 2 if duplicate and self._rng.random() < duplicate else 1
        for _ in range(copies):
            delay = base_delay + self._sample_jitter(jitter, dist)
            if uniform_delay:
                delay += self._rng.uniform(0.0, uniform_delay)
            if reorder and self._rng.random() < reorder:
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
