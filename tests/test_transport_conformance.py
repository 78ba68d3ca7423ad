"""Transport-seam conformance: the sim and live backends obey one contract.

``docs/TRANSPORT.md`` promises that protocol code written against the
:class:`~repro.transport.Clock`/:class:`~repro.transport.Transport`
surfaces behaves the same on the deterministic simulator and on the
asyncio/UDP backend.  This suite pins that promise: every test body is
written once, as a generator that yields "settle for this many seconds"
between actions, and runs against both backends — the sim driver turns
each yield into ``run_until``, the live driver into ``asyncio.sleep``
on a loopback cluster of real UDP sockets hosted in one loop.

Covered, per the issue: loopback delivery (with observer dispatch), a
3-process cluster electing one stable leader, and crash+restart keeping
the incarnation semantics (stale frames dropped, successor incarnation
heard).  Live timings are real wall time, so the live settles are short
but generous; the protocol configs use a small η to stabilize well
within them.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import OmegaConfig
from repro.core.registry import make_factory
from repro.obs.report import RunRecorder
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.process import Process
from repro.transport import Clock, TimerHandle, Transport

CONFIG = OmegaConfig(eta=0.05, initial_timeout=0.25)
SETTLE = 1.0


class Recorder(Process):
    """A process that just records what it is handed."""

    def __init__(self, pid, sim, network) -> None:
        super().__init__(pid, sim, network)
        self.received = []

    def on_message(self, message) -> None:
        self.received.append(message)


class SimBackend:
    """The deterministic backend: virtual time, in-memory links."""

    name = "sim"

    def __init__(self, n: int) -> None:
        self.n = n
        self.clock = Simulation(seed=1)
        self.transport = Network(self.clock, observers=(RunRecorder(),))

    def settle(self, seconds: float) -> None:
        self.clock.run_until(self.clock.now + seconds)


class LiveBackend:
    """The live backend: monotonic time, loopback UDP, one loop."""

    name = "live"

    def __init__(self, n: int) -> None:
        from repro.live import LiveClock, LiveTransport

        self.n = n
        self.clock = LiveClock()
        endpoints = {pid: ("127.0.0.1", 0) for pid in range(n)}
        self.transport = LiveTransport(self.clock, endpoints, range(n),
                                       observers=(RunRecorder(),), seed=1)


def run_conformance(backend_name: str, n: int, body) -> None:
    """Drive one generator-style test body on the named backend."""
    if backend_name == "sim":
        backend = SimBackend(n)
        for seconds in body(backend):
            backend.settle(seconds)
        return

    async def main() -> None:
        backend = LiveBackend(n)
        await backend.transport.open()
        try:
            for seconds in body(backend):
                await asyncio.sleep(seconds)
        finally:
            backend.transport.close()

    asyncio.run(main())


def recorder_of(backend) -> RunRecorder:
    return backend.transport.hub.first(RunRecorder)


@pytest.fixture(params=["sim", pytest.param("live", marks=pytest.mark.live)])
def backend_name(request) -> str:
    return request.param


class TestSeamShape:
    def test_both_backends_satisfy_the_protocols(self, backend_name) -> None:
        def body(backend):
            assert isinstance(backend.clock, Clock)
            assert isinstance(backend.transport, Transport)
            handle = backend.clock.call_after(60.0, lambda: None)
            assert isinstance(handle, TimerHandle)
            handle.cancel()
            handle.cancel()  # idempotent
            return
            yield  # pragma: no cover - makes body a generator

        run_conformance(backend_name, 2, body)

    def test_clock_advances_across_a_settle(self, backend_name) -> None:
        def body(backend):
            before = backend.clock.now
            yield 0.05
            assert backend.clock.now >= before + 0.04

        run_conformance(backend_name, 2, body)


class TestLoopbackDelivery:
    def test_send_delivers_and_observers_fire(self, backend_name) -> None:
        from repro.core.messages import Heartbeat

        def body(backend):
            a = Recorder(0, backend.clock, backend.transport)
            b = Recorder(1, backend.clock, backend.transport)
            a.start()
            b.start()
            backend.transport.send(0, 1, Heartbeat(sender=0))
            yield 0.5
            assert b.received == [Heartbeat(sender=0)]
            assert a.received == []
            recorder = recorder_of(backend)
            assert recorder.sent_by_kind["Heartbeat"] == 1

        run_conformance(backend_name, 2, body)

    def test_broadcast_reaches_every_other_pid(self, backend_name) -> None:
        from repro.core.messages import Heartbeat

        def body(backend):
            nodes = [Recorder(pid, backend.clock, backend.transport)
                     for pid in range(3)]
            for node in nodes:
                node.start()
            backend.transport.broadcast(0, Heartbeat(sender=0))
            yield 0.5
            assert nodes[0].received == []
            assert nodes[1].received == [Heartbeat(sender=0)]
            assert nodes[2].received == [Heartbeat(sender=0)]

        run_conformance(backend_name, 3, body)

    def test_crashed_sender_raises_runtime_error(self, backend_name) -> None:
        from repro.core.messages import Heartbeat

        def body(backend):
            a = Recorder(0, backend.clock, backend.transport)
            Recorder(1, backend.clock, backend.transport).start()
            a.start()
            a.crash()
            # NetworkError on the sim, TransportError live — the seam
            # promises a RuntimeError either way.
            with pytest.raises(RuntimeError):
                backend.transport.send(0, 1, Heartbeat(sender=0))
            return
            yield  # pragma: no cover - makes body a generator

        run_conformance(backend_name, 2, body)


class TestElection:
    def test_three_processes_elect_one_stable_leader(self,
                                                     backend_name) -> None:
        def body(backend):
            factory = make_factory("comm-efficient", CONFIG)
            nodes = [factory(pid, backend.clock, backend.transport)
                     for pid in range(3)]
            for node in nodes:
                node.start()
            yield SETTLE
            leaders = {node.leader() for node in nodes}
            assert len(leaders) == 1
            assert leaders.pop() in range(3)

        run_conformance(backend_name, 3, body)


def _heartbeat_frame() -> bytes:
    from repro.core.messages import Heartbeat
    from repro.live.codec import encode_frame

    return encode_frame(Heartbeat(sender=0), 0, 0.0)


def _propose_frame_with_value(value: bytes) -> bytes:
    """A ``Propose`` frame whose ``value`` field is ``value`` verbatim."""
    from repro.consensus.messages import Ballot, Propose
    from repro.live.codec import encode_frame
    from repro.wire import encode_value

    marker = "value-marker"
    frame = encode_frame(Propose(0, Ballot(0, 0), 0, marker, 0), 0, 0.0)
    return frame.replace(encode_value(marker), value)


def _corrupt_frames():
    from repro.core.messages import Alive, Heartbeat
    from repro.wire import KINDS, encode, encode_value

    frame = _heartbeat_frame()
    tail = frame[len(encode(Heartbeat(sender=0))):]  # incarnation, sent_at
    alive_id = encode(Alive(0, 0, 0))[0]
    # {[]: None}: a dict entry whose key is a list, not hashable.
    entry = encode_value({(1,): None})
    unhashable = entry[:2] + encode_value([])[:1] + entry[3:]
    overlong = b"\x80" * 10 + b"\x00"  # an 11-byte varint
    return [
        pytest.param(frame[:2], "truncated_frame", id="short-frame"),
        pytest.param(frame[:-3], "truncated_frame",
                     id="length-short-of-its-fields"),
        pytest.param(encode(Heartbeat(sender=0)), "truncated_frame",
                     id="missing-envelope"),  # no incarnation, no sent_at
        pytest.param(frame[:1] + b"\xff" * 12, "corrupt_frame",
                     id="garbage-body"),
        pytest.param(frame + b"\x00", "corrupt_frame", id="trailing-bytes"),
        pytest.param(bytes([alive_id]) + frame[1:], "truncated_frame",
                     id="fields-off-schema"),
        pytest.param(_propose_frame_with_value(b"\xee"), "corrupt_frame",
                     id="unknown-value-tag"),
        pytest.param(_propose_frame_with_value(unhashable), "corrupt_frame",
                     id="malformed-dict-entry"),
        pytest.param(frame[:1] + overlong + tail, "corrupt_frame",
                     id="non-int-sender"),
        pytest.param(encode(Heartbeat(sender=0)) + overlong + tail[1:],
                     "corrupt_frame", id="non-int-incarnation"),
        pytest.param(bytes([len(KINDS) + 1]) + frame[1:], "unknown_kind",
                     id="unknown-kind"),
        pytest.param(b"\x00" + frame[1:], "unknown_kind",
                     id="unlisted-kind"),
    ]


class TestCodecRobustness:
    """Malformed datagrams drop with a precise reason; never a raise.

    The codec surface only exists on the live backend (the sim has no
    datagrams), so these ride the live half of the conformance driver:
    raw bytes go in through a real UDP socket, the drop is observed via
    the same ``on_drop`` hub dispatch both backends share, and a good
    frame afterwards proves the handler survived.
    """

    @pytest.mark.parametrize("data,reason", _corrupt_frames())
    def test_malformed_datagram_drops_with_reason(self, data,
                                                  reason) -> None:
        import socket

        from repro.core.messages import Heartbeat

        async def main() -> None:
            backend = LiveBackend(2)
            await backend.transport.open()
            try:
                Recorder(0, backend.clock, backend.transport).start()
                b = Recorder(1, backend.clock, backend.transport)
                b.start()
                with socket.socket(socket.AF_INET,
                                   socket.SOCK_DGRAM) as raw:
                    raw.sendto(data, backend.transport.endpoints[1])
                recorder = recorder_of(backend)
                deadline = asyncio.get_running_loop().time() + 2.0
                while (not recorder.dropped_by_reason.get(reason)
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.02)
                assert recorder.dropped_by_reason[reason] == 1, \
                    dict(recorder.dropped_by_reason)
                # The handler survived: a well-formed frame still flows.
                backend.transport.send(0, 1, Heartbeat(sender=0))
                deadline = asyncio.get_running_loop().time() + 2.0
                while (not b.received
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.02)
                assert b.received == [Heartbeat(sender=0)]
            finally:
                backend.transport.close()

        asyncio.run(main())

    def test_oversized_outgoing_message_drops_with_reason(self) -> None:
        # The send side of the same rule: a body over MAX_FRAME is a
        # drop the observers see, not a CodecError in the sender's loop.
        from repro.consensus.messages import Forwards
        from repro.core.messages import Heartbeat
        from repro.live.codec import MAX_FRAME
        from repro.wire import CodecError

        async def main() -> None:
            backend = LiveBackend(2)
            await backend.transport.open()
            try:
                Recorder(0, backend.clock, backend.transport).start()
                b = Recorder(1, backend.clock, backend.transport)
                b.start()
                bulky = Forwards(0, ((("c", 0), "x" * (MAX_FRAME + 1)),))
                backend.transport.send(0, 1, bulky)
                recorder = recorder_of(backend)
                assert dict(recorder.dropped_by_reason) == {
                    "oversized_frame": 1}
                assert backend.transport.frames_sent == 0
                # An unencodable field is a bug and stays loud.
                with pytest.raises(CodecError, match="no wire encoding"):
                    backend.transport.send(
                        0, 1, Forwards(0, ((("c", 1), object()),)))
                backend.transport.send(0, 1, Heartbeat(sender=0))
                deadline = asyncio.get_running_loop().time() + 2.0
                while (not b.received
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.02)
                assert b.received == [Heartbeat(sender=0)]
            finally:
                backend.transport.close()

        asyncio.run(main())


class TestIncarnations:
    def test_crash_restart_keeps_incarnation_semantics(self,
                                                       backend_name) -> None:
        def body(backend):
            # The crash-recovery algorithm is the one whose on_recover
            # hook restarts the protocol; the plain variants are
            # crash-stop by design.
            factory = make_factory("crash-recovery", CONFIG)
            nodes = [factory(pid, backend.clock, backend.transport)
                     for pid in range(3)]
            for node in nodes:
                node.start()
            yield SETTLE
            leader = nodes[0].leader()
            assert {node.leader() for node in nodes} == {leader}

            nodes[leader].crash()
            assert nodes[leader].crashed
            yield SETTLE
            survivors = [node for node in nodes if not node.crashed]
            new_leaders = {node.leader() for node in survivors}
            assert len(new_leaders) == 1
            assert new_leaders.pop() != leader

            nodes[leader].recover()
            assert nodes[leader].incarnation == 1
            yield SETTLE
            # The restarted node reaches agreement again under its new
            # incarnation, and nothing from incarnation 0 poisons it.
            final = {node.leader() for node in nodes}
            assert len(final) == 1

        run_conformance(backend_name, 3, body)

    def test_stale_incarnation_frames_are_dropped(self, backend_name) -> None:
        from repro.core.messages import Heartbeat

        def body(backend):
            a = Recorder(0, backend.clock, backend.transport)
            b = Recorder(1, backend.clock, backend.transport)
            a.start()
            b.start()
            backend.transport.send(0, 1, Heartbeat(sender=0))
            # Crash+recover before the frame can be processed after the
            # settle: on the sim the delivery event is in flight; live
            # the datagram sits in the socket until the loop runs.
            a.crash()
            a.recover()
            assert a.incarnation == 1
            yield 0.5
            assert b.received == []
            recorder = recorder_of(backend)
            assert recorder.dropped_by_reason["stale_incarnation"] == 1

        run_conformance(backend_name, 2, body)
