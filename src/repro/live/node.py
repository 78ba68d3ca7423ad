"""One OS process of a live cluster.

``python -m repro.live.node --spec node.json`` boots this module: it
builds a :class:`~repro.live.runtime.LiveClock`, one
:class:`~repro.live.transport.LiveTransport` per network plane
(failure-detector always, agreement when consensus is on), instantiates
the configured Omega algorithm — the *same* class the simulator runs —
plus optionally a :class:`~repro.consensus.single.SingleDecreeConsensus`,
then lets the asyncio loop run until the horizon.

While running, the node serves a tiny **control channel** (newline-
delimited JSON over TCP on localhost) so the cluster harness and the
HTTP control plane can reach inside:

``{"op": "status"}``
    → ``{"pid", "now", "incarnation", "leader", "decision"}`` (plus
    ``commit_index``/``committed`` on a replicated-log node).

``{"op": "degrade", "plane": "fd"|"agreement"|"both", "duration": s,
"pairs": [[src, dst], ...], "loss": p, "extra_delay": s,
"duplicate": p, "delay": s, "jitter": s, "dist": "uniform"|"pareto",
"reorder": p, "rate": fps}``
    Overlay a :class:`~repro.live.transport.LinkWindow` starting now —
    the live form of the nemesis ``degrade``/``flap``/``dup``/``netem``
    faults (the netem fields default to off).

``{"op": "submit", "id": [client, seq], "command": ...}``
    Replicated-log nodes only: hand a client command to this replica
    (at-least-once ids, exactly the :mod:`repro.load` convention).  The
    submit instant is recorded on the node's own clock, and the first
    commit of the id stamps its end-to-end latency — so the percentiles
    in the report are measured on one clock, not across process epochs.

``{"op": "stop"}``
    Finish early: write the node report and exit cleanly.

With ``log: true`` in the spec the agreement plane runs a
:class:`~repro.consensus.replica.LogReplica` instead of single-decree
consensus; ``persist: true`` attaches a
:class:`~repro.live.storage.FileStorage` at ``storage_path`` (stable
across incarnations), and a respawned node (``incarnation`` > 0)
restores its promise, accepted map, and learned log from that snapshot
before starting — the live crash→SIGKILL→respawn path goes through
real storage-backed recovery.

At the horizon (or on ``stop`` / SIGTERM) the node writes its **node
report** — leader history, decision, clock counters, and the serialized
:class:`~repro.obs.report.RunRecorder` of every plane — to the path
named in the spec.  A SIGKILLed node writes nothing, which is exactly
the crash-stop notion the checkers expect (see
:func:`repro.live.report.analyze_live_run`).

Every node process pays this module's import before it runs a line, so
it loads only the live stack: the protocol modules import the sim kernel
for type checking only, and the entry point is this module rather than
the ``python -m repro`` CLI, which would load the simulator, the
harness and the nemesis.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

from repro.consensus.config import ConsensusConfig
from repro.consensus.replica import LogReplica, entry_commands
from repro.consensus.single import SingleDecreeConsensus
from repro.core.config import OmegaConfig
from repro.core.registry import make_factory
from repro.live.runtime import LiveClock
from repro.live.storage import FileStorage
from repro.live.transport import LiveTransport
from repro.live.report import recorder_to_json
from repro.obs.observer import Observer
from repro.obs.report import RunRecorder

__all__ = ["NodeSpec", "main", "run_node"]


def _endpoint_map(raw: dict[str, Any]) -> dict[int, tuple[str, int]]:
    return {int(pid): (host, int(port))
            for pid, (host, port) in raw.items()}


def _command_id(raw: Any) -> Any:
    """A hashable command id from its JSON form (lists become tuples)."""
    if isinstance(raw, list):
        return tuple(_command_id(item) for item in raw)
    return raw


@dataclass
class NodeSpec:
    """Everything one node needs, carried as a JSON file.

    ``endpoints``/``ag_endpoints`` map every ensemble pid to its
    ``(host, port)`` on the failure-detector respectively agreement
    plane (``ag_endpoints`` empty when consensus is off).  A respawned
    node carries ``incarnation`` > 0; its peers learn the bump from the
    incarnation stamps on its frames.
    """

    pid: int
    n: int
    endpoints: dict[int, tuple[str, int]]
    control_port: int
    report_path: str
    algorithm: str = "comm-efficient"
    eta: float = 0.1
    initial_timeout: float = 0.5
    f: int | None = None
    horizon: float = 3.0
    seed: int = 0
    incarnation: int = 0
    consensus: bool = False
    proposal: Any = None
    tick: float = 0.25
    ag_endpoints: dict[int, tuple[str, int]] = field(default_factory=dict)
    log: bool = False
    persist: bool = False
    storage_path: str = ""
    batch_size: int = 1

    @classmethod
    def from_json(cls, document: dict[str, Any]) -> "NodeSpec":
        """Rebuild a spec from its JSON form (inverse of :meth:`to_json`)."""
        document = dict(document)
        document["endpoints"] = _endpoint_map(document["endpoints"])
        document["ag_endpoints"] = _endpoint_map(
            document.get("ag_endpoints", {}))
        return cls(**document)

    def to_json(self) -> dict[str, Any]:
        """A JSON-serialisable dict (int keys become strings)."""
        document = asdict(self)
        document["endpoints"] = {str(pid): list(addr) for pid, addr
                                 in self.endpoints.items()}
        document["ag_endpoints"] = {str(pid): list(addr) for pid, addr
                                    in self.ag_endpoints.items()}
        return document


class _LatencyWatch(Observer):
    """Per-command commit latency, submit and decide on one clock.

    ``note_submit`` stamps the first submit of an id; ``on_decide``
    (the replicated log dispatches ``(instance, entry)`` decisions)
    stamps the first commit.  The difference is an exact end-to-end
    latency because both reads come from the same node-local clock.
    """

    def __init__(self) -> None:
        self.submitted_at: dict[Any, float] = {}
        self.latencies: dict[Any, float] = {}

    def note_submit(self, command_id: Any, now: float) -> None:
        self.submitted_at.setdefault(command_id, now)

    def on_decide(self, time: float, pid: int, value: Any) -> None:
        _instance, entry = value
        for command_id, _command in entry_commands(entry):
            started = self.submitted_at.get(command_id)
            if started is not None and command_id not in self.latencies:
                self.latencies[command_id] = time - started


class _Node:
    """The running node: protocol stack + control channel + report."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.clock: LiveClock | None = None
        self.fd: LiveTransport | None = None
        self.ag: LiveTransport | None = None
        self.omega = None
        self.consensus: SingleDecreeConsensus | None = None
        self.replica: LogReplica | None = None
        self.latency = _LatencyWatch()
        self._stop = asyncio.Event()

    # -- lifecycle ------------------------------------------------------

    async def run(self) -> None:
        spec = self.spec
        self.clock = LiveClock()
        self.fd = LiveTransport(
            self.clock, spec.endpoints, {spec.pid},
            observers=(RunRecorder(),), seed=spec.seed + spec.pid)
        await self.fd.open()
        config = OmegaConfig(eta=spec.eta,
                             initial_timeout=spec.initial_timeout)
        f = spec.f if spec.f is not None else max(1, (spec.n - 1) // 2)
        factory = make_factory(spec.algorithm, config, n=spec.n, f=f)
        self.omega = factory(spec.pid, self.clock, self.fd)
        self.omega.incarnation = spec.incarnation
        self.omega.start()
        if spec.consensus or spec.log:
            ag_observers: tuple = (RunRecorder(),)
            if spec.log:
                # Only the replicated log dispatches (instance, entry)
                # decisions the latency watch can unpack.
                ag_observers += (self.latency,)
            self.ag = LiveTransport(
                self.clock, spec.ag_endpoints, {spec.pid},
                observers=ag_observers, seed=spec.seed + spec.pid + 1)
            await self.ag.open()
        if spec.log:
            self.replica = LogReplica(
                spec.pid, self.clock, self.ag, spec.n,
                leader_of=self.omega.leader,
                config=ConsensusConfig(tick=spec.tick,
                                       batch_size=spec.batch_size,
                                       sync_latency=0.0))
            if spec.persist:
                if not spec.storage_path:
                    raise ValueError("persist=True needs a storage_path")
                self.replica.persist = True
                self.replica.attach_storage(FileStorage(
                    spec.pid, self.clock, spec.storage_path,
                    hub=self.ag.hub))
            self.replica.omega = self.omega
            self.replica.incarnation = spec.incarnation
            if spec.incarnation > 0 and spec.persist:
                # Respawn after SIGKILL: rebuild promise/accepted/log
                # from the storage snapshot before joining the ensemble.
                self.replica.on_recover()
            self.replica.start()
        elif spec.consensus:
            self.consensus = SingleDecreeConsensus(
                spec.pid, self.clock, self.ag, spec.n, spec.proposal,
                leader_of=self.omega.leader,
                config=ConsensusConfig(tick=spec.tick))
            self.consensus.omega = self.omega
            self.consensus.incarnation = spec.incarnation
            self.consensus.start()
        server = await asyncio.start_server(
            self._control_connection, "127.0.0.1", spec.control_port)
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, self._stop.set)
        try:
            await asyncio.wait_for(self._stop.wait(), timeout=spec.horizon)
        except asyncio.TimeoutError:
            pass  # the normal ending: the horizon elapsed
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            self._write_report()
            server.close()
            self.fd.close()
            if self.ag is not None:
                self.ag.close()

    # -- control channel ------------------------------------------------

    async def _control_connection(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> None:
        try:
            while not reader.at_eof():
                line = await reader.readline()
                if not line.strip():
                    break
                try:
                    request = json.loads(line)
                    response = self._dispatch(request)
                except (ValueError, KeyError, TypeError) as error:
                    response = {"ok": False, "error": str(error)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "status":
            status = {
                "ok": True,
                "pid": self.spec.pid,
                "now": self.clock.now,
                "incarnation": self.omega.incarnation,
                "leader": self.omega.leader(),
                "decision": (self.consensus.decision
                             if self.consensus is not None else None),
            }
            if self.replica is not None:
                status["commit_index"] = self.replica.commit_index
                status["committed"] = len(self.replica.committed_ids)
            return status
        if op == "degrade":
            pairs = tuple((int(src), int(dst))
                          for src, dst in request.get("pairs", []))
            planes = {"fd": [self.fd], "agreement": [self.ag],
                      "both": [self.fd, self.ag]}[request.get("plane", "fd")]
            for transport in planes:
                if transport is not None:
                    transport.degrade(
                        float(request["duration"]), pairs,
                        loss=float(request.get("loss", 0.0)),
                        extra_delay=float(request.get("extra_delay", 0.0)),
                        duplicate=float(request.get("duplicate", 0.0)),
                        delay=float(request.get("delay", 0.0)),
                        jitter=float(request.get("jitter", 0.0)),
                        dist=str(request.get("dist", "uniform")),
                        reorder=float(request.get("reorder", 0.0)),
                        rate=float(request.get("rate", 0.0)))
            return {"ok": True}
        if op == "submit":
            if self.replica is None:
                raise ValueError("submit needs a replicated-log node")
            command_id = _command_id(request["id"])
            self.latency.note_submit(command_id, self.clock.now)
            accepted = self.replica.submit(command_id, request["command"])
            return {"ok": True, "accepted": accepted,
                    "commit_index": self.replica.commit_index}
        if op == "stop":
            self.clock.loop.call_soon(self._stop.set)
            return {"ok": True}
        raise ValueError(f"unknown control op {op!r}")

    # -- the node report ------------------------------------------------

    def _write_report(self) -> None:
        planes = {"fd": recorder_to_json(self.fd.hub.first(RunRecorder))}
        if self.ag is not None:
            planes["agreement"] = recorder_to_json(
                self.ag.hub.first(RunRecorder))
        document = {
            "pid": self.spec.pid,
            "incarnation": self.omega.incarnation,
            "clock": {
                "now": self.clock.now,
                "events_executed": self.clock.events_executed,
                "profile": self.clock.profile(),
            },
            "leader_history": [list(entry) for entry in self.omega.history],
            "final_leader": self.omega.leader(),
            "leader_changes": self.omega.leader_changes,
            "decision": (self.consensus.decision
                         if self.consensus is not None else None),
            "decision_time": (self.consensus.decision_time
                              if self.consensus is not None else None),
            "frames": {"sent": self.fd.frames_sent,
                       "received": self.fd.frames_received},
            "planes": planes,
        }
        if self.replica is not None:
            storage = self.replica._storage
            document["log"] = {
                "commit_index": self.replica.commit_index,
                # The state machine's view, in commit order — cluster-
                # side judging compares these across nodes for prefix
                # consistency and against the submitted set for
                # liveness.  Ids are JSON lists of their tuple form.
                "applied_ids": [
                    list(command_id) if isinstance(command_id, tuple)
                    else command_id
                    for entry in self.replica.committed_prefix()
                    for command_id, _ in entry_commands(entry)],
                "latencies": [
                    [list(command_id) if isinstance(command_id, tuple)
                     else command_id, latency]
                    for command_id, latency
                    in sorted(self.latency.latencies.items())],
                "load": self.replica.load_stats(),
                "syncs_ok": storage.syncs_ok if storage is not None else 0,
            }
        with open(self.spec.report_path, "w") as handle:
            json.dump(document, handle)


def run_node(spec: NodeSpec) -> None:
    """Run one node to its horizon (blocking)."""
    asyncio.run(_Node(spec).run())


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.live.node --spec NODE.json``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.node",
        description="one node of a live cluster (spawned by LiveCluster)")
    parser.add_argument("--spec", required=True, metavar="NODE.json",
                        help="NodeSpec JSON written by the cluster harness")
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        run_node(NodeSpec.from_json(json.load(handle)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
