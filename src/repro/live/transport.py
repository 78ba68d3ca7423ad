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
with the meaning the sim gives it: the nemesis' one kind→effect table
(:func:`~repro.sim.nemesis.link_effect`), pairs
(:func:`~repro.sim.nemesis.fault_pairs`) and applier
(:func:`~repro.sim.nemesis.apply_link_faults`), with "at once" as the
link underneath.  Crash/pause faults act on the *process* (SIGKILL/SIGSTOP
from the cluster harness, or ``Process.crash`` in-loop), not on the
transport.

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
from typing import TYPE_CHECKING, Any, Iterable

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


def _at_once() -> float:
    """The link under a live pair's faults: the socket, now."""
    return 0.0


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
        # Open link faults per ordered pair, in apply order
        # (FaultWindow); a pair with none has no entry.
        self._faults: dict[tuple[int, int], list[Any]] = {}
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

        ``event`` is a parsed :mod:`repro.sim.nemesis` event.  Each of
        its ordered pairs gets the kind's
        :class:`~repro.sim.nemesis.LinkEffect` for ``end - start``
        seconds of this clock, after the faults already open on it.  A
        process fault (crash, recover, pause) acts on the OS process,
        not on the sockets, and raises :class:`ValueError`.
        """
        # The nemesis loads with the first fault, never at node boot.
        from repro.sim.nemesis import FaultWindow, fault_pairs, link_effect

        effect = link_effect(event)
        start, end = event.window()
        now = self.clock.now
        opened = [(pair, FaultWindow(now, now + end - start, effect))
                  for pair in sorted(fault_pairs(event, self.pids))]
        for pair, window in opened:
            self._faults.setdefault(pair, []).append(window)
        self.clock.post_after(end - start, lambda: self._heal(opened))

    def _heal(self, opened: list[tuple[tuple[int, int], Any]]) -> None:
        """Close a healed fault; a pair left with none costs a send nothing."""
        for pair, window in opened:
            windows = self._faults[pair]
            windows.remove(window)
            if not windows:
                del self._faults[pair]

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
        faults = self._faults.get((src, dst)) if self._faults else None
        if faults is None:
            self._send_frame(src, dst, frame)
            return
        from repro.sim.nemesis import apply_link_faults

        delays, reason = apply_link_faults(faults, now, self._rng, _at_once)
        if not delays:
            for callback in drop_cbs:
                callback(now, src, dst, kind, reason)
            return
        for delay in delays:
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
