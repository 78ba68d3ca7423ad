"""Spawn and drive a live cluster of node subprocesses.

:class:`LiveCluster` is the live analogue of the sim harness: it
allocates loopback ports, writes one :class:`~repro.live.node.NodeSpec`
per pid, spawns ``python -m repro.live.node`` subprocesses, executes a
nemesis :class:`~repro.sim.nemesis.FaultPlan` against them in **wall
time**, then collects the node reports and merges them into one
schema-valid ``repro-report/v1`` document judged by the standard
checkers.

Fault mapping (the live meaning of each nemesis event):

=================  ====================================================
``crash``          SIGKILL the node (it writes no report — crash-stop);
                   with ``recover=``, respawn it later with
                   ``incarnation + 1`` and the remaining horizon.
``recover``        Respawn a killed node (fresh OS process, same ports).
``pause``          SIGSTOP, then SIGCONT after the duration — a real
                   scheduler freeze instead of a simulated one.
link faults        The event's repro token, sent in one ``fault``
                   control op to each node hosting a sending pid of
                   the event (every node, for a partition); the node's
                   transports apply it through their kind→effect table
                   (``repro.live.transport``).
=================  ====================================================

The same actions run a spec's plan and the events that
:meth:`LiveCluster.inject` queues while the run is going (the HTTP
control plane's ``POST /clusters/<id>/faults``).

Wall-time caveat: fault times are offsets from cluster start, but nodes
boot one spawn-stagger apart and their clocks are per-node; live fault
timing is approximate where sim timing is exact.  Verdicts never
depend on exact fault instants, only on disturbances healing with calm
left before the horizon — same rule as the sim's model envelope.

Supervision: every control-plane interaction (spawn handshake, TCP
control rounds) runs under a bounded-exponential jittered
:class:`~repro.live.runtime.Backoff` and an overall deadline.  A node
that stays unreachable past its retries raises :class:`ControlError` —
a one-line error naming the node, endpoint, attempt count, and elapsed
backoff — and the cluster tears down **all** spawned processes
(SIGCONT-ing paused ones first) in a ``finally`` path, so a wedged or
half-started campaign never leaks orphan processes.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.checker import OmegaRunReport
from repro.live.node import NodeSpec
from repro.live.report import (
    analyze_live_run,
    consensus_verdict,
    latency_block,
    live_latencies,
    log_verdict,
    merged_live_report,
)
from repro.live.runtime import Backoff, Deadline
from repro.obs.verdict import Verdict
from repro.sim.nemesis import (
    CrashFault,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    PartitionFault,
    PauseFault,
    RecoverFault,
)

__all__ = ["ControlError", "LiveClusterSpec", "LiveCluster",
           "LiveRunOutcome"]

#: Wall seconds granted past the horizon for nodes to flush reports.
_GRACE = 5.0

#: Wall seconds a freshly spawned node gets to answer its first status
#: probe before the spawn handshake declares it wedged.
_READY_S = 10.0


class ControlError(RuntimeError):
    """A node's control channel stayed unreachable through its retries.

    One line, in the :class:`~repro.sim.nemesis.FaultPlanError` style:
    names the node id, the endpoint tried, how many attempts were made,
    and how much backoff elapsed — everything needed to read a campaign
    log without the stack trace.
    """

    def __init__(self, pid: int, endpoint: tuple[str, int], attempts: int,
                 elapsed: float, cause: str) -> None:
        self.pid = pid
        self.endpoint = endpoint
        self.attempts = attempts
        self.elapsed = elapsed
        super().__init__(
            f"control channel of node {pid} at "
            f"{endpoint[0]}:{endpoint[1]} failed after {attempts} "
            f"attempt{'s' if attempts != 1 else ''} over {elapsed:.2f}s "
            f"of backoff: {cause}")


def _free_port(host: str, kind: int) -> int:
    """One currently free port (racy by nature; fine on loopback)."""
    with socket.socket(socket.AF_INET, kind) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


@dataclass(frozen=True)
class LiveClusterSpec:
    """Parameters of one live run (the live mirror of a sim scenario).

    ``log=True`` runs a replicated log on the agreement plane instead
    of single-decree consensus; ``persist=True`` backs each replica
    with a :class:`~repro.live.storage.FileStorage` snapshot (stable
    across incarnations), so crash→respawn faults go through real
    storage-backed recovery.  ``workload`` > 0 drives that many client
    commands from the cluster process through the nodes' ``submit``
    control op — the live form of a :mod:`repro.load` client fleet,
    with the same at-least-once ``(client, seq)`` id convention —
    spaced ``workload_period`` apart from ``workload_start``, spread
    over ``workload_clients`` logical clients.
    """

    n: int
    algorithm: str = "comm-efficient"
    eta: float = 0.1
    initial_timeout: float = 0.5
    horizon: float = 3.0
    seed: int = 0
    consensus: bool = False
    proposals: dict[int, Any] | None = None
    faults: str = ""
    tick: float = 0.25
    host: str = "127.0.0.1"
    log: bool = False
    persist: bool = False
    batch_size: int = 1
    workload: int = 0
    workload_period: float = 0.25
    workload_start: float = 0.5
    workload_clients: int = 2

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a live cluster needs n >= 2")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.consensus and self.log:
            raise ValueError("pick one agreement stack: consensus or log")
        if self.workload and not self.log:
            raise ValueError("a client workload needs log=True")
        if self.workload < 0 or self.workload_clients < 1:
            raise ValueError("workload must be >= 0 over >= 1 clients")
        if self.workload_period <= 0:
            raise ValueError("workload_period must be positive")

    def proposal_of(self, pid: int) -> Any:
        """The value ``pid`` proposes when consensus is on."""
        if self.proposals is not None:
            return self.proposals[pid]
        return f"value-{pid}"


@dataclass
class LiveRunOutcome:
    """Everything :meth:`LiveCluster.run` learned from one live run."""

    node_reports: list[dict[str, Any]]
    omega: OmegaRunReport
    verdict: Verdict
    document: dict[str, Any]
    rundir: Path
    #: The ids applied on the most advanced node (empty without a log).
    applied_ids: list[Any] = field(default_factory=list)


class LiveCluster:
    """Owner of one live run: ports, subprocesses, faults, reports."""

    def __init__(self, spec: LiveClusterSpec, rundir: str | Path) -> None:
        self.spec = spec
        self.rundir = Path(rundir)
        self.rundir.mkdir(parents=True, exist_ok=True)
        self.plan = (FaultPlan.from_repro(spec.faults) if spec.faults
                     else FaultPlan())
        host = spec.host
        self.endpoints = {pid: (host, _free_port(host, socket.SOCK_DGRAM))
                          for pid in range(spec.n)}
        self.ag_endpoints = ({pid: (host, _free_port(host,
                                                     socket.SOCK_DGRAM))
                              for pid in range(spec.n)}
                             if spec.consensus or spec.log else {})
        self.control_ports = {pid: _free_port("127.0.0.1",
                                              socket.SOCK_STREAM)
                              for pid in range(spec.n)}
        self._procs: dict[int, subprocess.Popen] = {}
        self._incarnations = {pid: 0 for pid in range(spec.n)}
        # Pids the fault plan currently has down (killed awaiting
        # respawn, or SIGSTOP-frozen): the workload driver routes
        # around them, and teardown SIGCONTs the paused ones.
        self._down: set[int] = set()
        self._paused: set[int] = set()
        # The wall-clock action queue of :meth:`_drive`: (offset from
        # ``_started``, tie-break, action), filled by the plan, the
        # workload and :meth:`inject`.
        self._pending: list[tuple[float, int, Callable[[], None]]] = []
        self._order = itertools.count()
        self._wake = threading.Condition()
        self._started: float | None = None  # set when run() starts
        self._stopped = False  # the drive is over; inject() refuses
        # The at-least-once client workload's ledger: id -> command.
        self.submitted: dict[Any, Any] = {}
        self._rng = random.Random(f"live-cluster/{spec.seed}")
        self._queue(self._plan_actions(self.plan)
                    + self._workload_actions())

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------

    def _node_spec(self, pid: int, horizon: float,
                   incarnation: int) -> NodeSpec:
        spec = self.spec
        return NodeSpec(
            pid=pid, n=spec.n, endpoints=self.endpoints,
            control_port=self.control_ports[pid],
            report_path=str(self.rundir / f"node{pid}.json"),
            algorithm=spec.algorithm, eta=spec.eta,
            initial_timeout=spec.initial_timeout, horizon=horizon,
            seed=spec.seed, incarnation=incarnation,
            consensus=spec.consensus,
            proposal=(spec.proposal_of(pid) if spec.consensus else None),
            tick=spec.tick, ag_endpoints=self.ag_endpoints,
            log=spec.log, persist=spec.persist,
            storage_path=(str(self.rundir / f"node{pid}.storage")
                          if spec.persist else ""),
            batch_size=spec.batch_size)

    def _spawn(self, pid: int, horizon: float, incarnation: int) -> None:
        node_spec = self._node_spec(pid, horizon, incarnation)
        spec_path = self.rundir / f"node{pid}.spec.json"
        spec_path.write_text(json.dumps(node_spec.to_json()))
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
        log = open(self.rundir / f"node{pid}.log", "a")
        self._procs[pid] = subprocess.Popen(
            [sys.executable, "-m", "repro.live.node", "--spec",
             str(spec_path)],
            env=env, stdout=log, stderr=subprocess.STDOUT)
        log.close()
        self._incarnations[pid] = incarnation

    def _control_once(self, pid: int, request: dict[str, Any],
                      timeout: float) -> dict[str, Any]:
        """One unsupervised request/response round (may raise OSError)."""
        with socket.create_connection(
                ("127.0.0.1", self.control_ports[pid]),
                timeout=timeout) as conn:
            conn.sendall(json.dumps(request).encode() + b"\n")
            conn.settimeout(timeout)
            data = b""
            while not data.endswith(b"\n"):
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
        return json.loads(data)

    def control(self, pid: int, request: dict[str, Any],
                timeout: float = 2.0,
                backoff: Backoff | None = None) -> dict[str, Any]:
        """A supervised request/response round on a node's control channel.

        Transient failures (refused connections during boot, timeouts
        under load) are retried on a jittered bounded-exponential
        schedule; a node still unreachable after the last attempt is
        declared dead with a :class:`ControlError` naming the node,
        endpoint, attempt count, and elapsed backoff.
        """
        backoff = backoff if backoff is not None else Backoff()
        endpoint = ("127.0.0.1", self.control_ports[pid])
        delays = backoff.delays(self._rng)
        started = time.monotonic()
        cause = "unknown"
        for attempt in range(backoff.attempts):
            try:
                return self._control_once(pid, request, timeout)
            except (OSError, ValueError) as error:
                cause = f"{type(error).__name__}: {error}"
            if attempt < len(delays):
                time.sleep(delays[attempt])
        raise ControlError(pid, endpoint, backoff.attempts,
                           time.monotonic() - started, cause)

    def _await_ready(self, pid: int, budget_s: float = _READY_S) -> None:
        """Block until the node answers a status probe (spawn handshake).

        Probes on the standard backoff schedule, repeated under one
        overall :class:`~repro.live.runtime.Deadline` — a node that
        never comes up costs ``budget_s``, not a hang.
        """
        deadline = Deadline(budget_s)
        attempts = 0
        cause = "unknown"
        while not deadline.expired:
            attempts += 1
            try:
                response = self._control_once(pid, {"op": "status"},
                                              timeout=1.0)
                if response.get("ok"):
                    return
                cause = f"status answered {response!r}"
            except (OSError, ValueError) as error:
                cause = f"{type(error).__name__}: {error}"
            time.sleep(min(0.1 * self._rng.uniform(0.5, 1.0),
                           max(deadline.remaining, 0.01)))
        raise ControlError(pid, ("127.0.0.1", self.control_ports[pid]),
                           attempts, deadline.elapsed, cause)

    # ------------------------------------------------------------------
    # Fault plan → wall-clock actions
    # ------------------------------------------------------------------

    def _link_fault(self, event: FaultEvent) -> Callable[[], None]:
        token = event.to_repro()
        senders = (range(self.spec.n) if isinstance(event, PartitionFault)
                   else sorted({src for src, _dst in event.link_pairs()}))

        def act() -> None:
            for pid in senders:
                try:
                    self.control(pid, {"op": "fault", "event": token},
                                 backoff=Backoff(attempts=2))
                except (OSError, ControlError):
                    pass  # the sending node is down; nothing to fault
        return act

    def _plan_actions(self, plan: FaultPlan, base: float = 0.0,
                      ) -> list[tuple[float, Callable[[], None]]]:
        """``plan`` as ``(offset_seconds, action)`` pairs, its times
        read from ``base`` seconds after cluster start."""
        spec = self.spec
        unknown = sorted(pid for pid in plan.involved_pids()
                         if not 0 <= pid < spec.n)
        if unknown:
            raise FaultPlanError(
                f"{plan.to_repro()} references pid {unknown[0]}, but the "
                f"cluster owns pids 0..{spec.n - 1} (n={spec.n})")
        actions: list[tuple[float, Callable[[], None]]] = []

        def kill(pid: int) -> Callable[[], None]:
            def act() -> None:
                proc = self._procs.get(pid)
                if proc is not None and proc.poll() is None:
                    proc.kill()
                self._down.add(pid)
            return act

        def respawn(pid: int, at: float) -> Callable[[], None]:
            def act() -> None:
                self._procs[pid].wait(timeout=_GRACE)
                self._spawn(pid, max(0.5, spec.horizon - at),
                            self._incarnations[pid] + 1)
                self._down.discard(pid)
            return act

        def sig(pid: int, signum: int) -> Callable[[], None]:
            def act() -> None:
                proc = self._procs.get(pid)
                if proc is not None and proc.poll() is None:
                    proc.send_signal(signum)
                if signum == signal.SIGSTOP:
                    self._paused.add(pid)
                    self._down.add(pid)
                elif signum == signal.SIGCONT:
                    self._paused.discard(pid)
                    self._down.discard(pid)
            return act

        for event in plan:
            if isinstance(event, CrashFault):
                actions.append((base + event.time, kill(event.pid)))
                if event.recover_at is not None:
                    at = base + event.recover_at
                    actions.append((at, respawn(event.pid, at)))
            elif isinstance(event, RecoverFault):
                at = base + event.time
                actions.append((at, respawn(event.pid, at)))
            elif isinstance(event, PauseFault):
                actions.append((base + event.time,
                                sig(event.pid, signal.SIGSTOP)))
                actions.append((base + event.time + event.duration,
                                sig(event.pid, signal.SIGCONT)))
            else:
                actions.append((base + event.window()[0],
                                self._link_fault(event)))
        return actions

    def _queue(self, actions: list[tuple[float, Callable[[], None]]],
               ) -> None:
        """Queue actions for :meth:`_drive`; ties keep queue order."""
        with self._wake:
            for offset, action in actions:
                heapq.heappush(self._pending,
                               (offset, next(self._order), action))
            self._wake.notify()

    def _drive(self) -> None:
        """Fire queued actions at their offsets until the horizon.

        An action due after the horizon never fires (the shutdown
        thaws a node whose pause outlasts the run).
        """
        horizon = self.spec.horizon
        while True:
            with self._wake:
                elapsed = time.monotonic() - self._started
                next_at = (self._pending[0][0] if self._pending
                           else float("inf"))
                if next_at <= min(elapsed, horizon):
                    action = heapq.heappop(self._pending)[2]
                elif elapsed < horizon:
                    self._wake.wait(min(next_at, horizon) - elapsed)
                    continue
                else:
                    self._stopped = True
                    return
            action()

    def inject(self, faults: str) -> int:
        """Queue a repro string's events on the running cluster.

        Their times are offsets from now (from the start, before the
        run starts); they run through the same actions as the spec's
        plan, on the run's own thread.  Returns the number of events;
        raises :class:`FaultPlanError` on a malformed string and
        :class:`ValueError` once the run has passed its horizon.
        """
        plan = FaultPlan.from_repro(faults)
        with self._wake:
            if self._stopped:
                raise ValueError("the cluster is past its horizon")
            base = (0.0 if self._started is None
                    else time.monotonic() - self._started)
            self._queue(self._plan_actions(plan, base))
        return len(plan)

    # ------------------------------------------------------------------
    # Client workload (live form of a repro.load fleet)
    # ------------------------------------------------------------------

    def _submit_action(self, index: int) -> Callable[[], None]:
        """One client command: submit to an up node, retry on shed.

        Ids follow the :mod:`repro.load` at-least-once convention
        ``(client, seq)``; the routing is leader-agnostic (any replica
        forwards), preferring nodes the fault plan currently has up.
        A command shed everywhere it was offered is re-offered to the
        next candidate; a command no *up* node will take is a supervisor
        failure (ControlError propagates and fails the run as a
        timeout).
        """
        spec = self.spec
        client = index % spec.workload_clients
        command_id = (f"c{client}", index // spec.workload_clients)

        def act() -> None:
            command = ("set", f"k{index % 8}", index)
            self.submitted[command_id] = command
            candidates = [pid for pid in range(spec.n)
                          if pid not in self._down] or list(range(spec.n))
            offset = index % len(candidates)
            ordered = candidates[offset:] + candidates[:offset]
            for pid in ordered[:-1]:
                try:
                    response = self.control(
                        pid, {"op": "submit",
                              "id": [command_id[0], command_id[1]],
                              "command": list(command)},
                        backoff=Backoff(attempts=2))
                except ControlError:
                    continue  # wedged mid-plan; the last candidate decides
                if response.get("accepted"):
                    return
            # The last candidate is load-bearing: a ControlError here
            # propagates, turning an unreachable-but-expected-up
            # ensemble into a named timeout verdict.
            self.control(ordered[-1],
                         {"op": "submit",
                          "id": [command_id[0], command_id[1]],
                          "command": list(command)})
        return act

    def _workload_actions(self) -> list[tuple[float, Callable[[], None]]]:
        spec = self.spec
        return [(spec.workload_start + index * spec.workload_period,
                 self._submit_action(index))
                for index in range(spec.workload)]

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def run(self) -> LiveRunOutcome:
        """Spawn, handshake, fault + drive load, wait, collect, judge.

        Blocking.  Whatever happens — a node that never boots, a wedged
        control channel mid-plan, an interrupt — the ``finally`` path
        tears down every spawned process (SIGCONT-ing paused ones
        first), so no orphan survives a failed run.
        """
        spec = self.spec
        self._started = time.monotonic()
        try:
            for pid in range(spec.n):
                self._spawn(pid, spec.horizon, incarnation=0)
            for pid in range(spec.n):
                self._await_ready(pid)
            self._drive()
            self._shutdown()
            node_reports = self._collect()
            wall = time.monotonic() - self._started
            return self._judge(node_reports, wall)
        finally:
            self._stopped = True
            self.teardown()

    def _shutdown(self) -> None:
        deadline = time.monotonic() + _GRACE
        for pid in sorted(self._paused):
            # A frozen node cannot reach its horizon (or honor SIGTERM);
            # thaw it so the graceful path below applies to it too.
            proc = self._procs.get(pid)
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGCONT)
        self._paused.clear()
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.terminate()
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=_GRACE)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def teardown(self) -> None:
        """Kill every spawned node process outright.  Idempotent.

        The safety net under :meth:`run` (and the control plane's
        cluster deletion): SIGCONT anything SIGSTOP-paused — a stopped
        process ignores SIGTERM — then SIGKILL and reap whatever is
        still alive.  After a clean :meth:`_shutdown` this is a no-op.
        """
        for pid, proc in self._procs.items():
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGCONT)
                except OSError:
                    pass
                proc.kill()
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=_GRACE)
                except subprocess.TimeoutExpired:
                    pass  # unreapable; nothing more the harness can do
        self._paused.clear()

    def _collect(self) -> list[dict[str, Any]]:
        reports = []
        for pid in range(self.spec.n):
            path = self.rundir / f"node{pid}.json"
            if path.exists():
                reports.append(json.loads(path.read_text()))
        return reports

    def _judge(self, node_reports: list[dict[str, Any]],
               wall: float) -> LiveRunOutcome:
        spec = self.spec
        omega = analyze_live_run(node_reports)
        verdict = omega.verdict()
        if spec.consensus:
            proposals = {pid: spec.proposal_of(pid)
                         for pid in range(spec.n)}
            verdict = verdict.merge(
                consensus_verdict(node_reports, proposals))
        if spec.log:
            verdict = verdict.merge(
                log_verdict(node_reports, self.submitted))
        if not node_reports:
            verdict = verdict.merge(Verdict.failed(
                "no node wrote a report; every process died before "
                "its horizon"))
        target = (f"live/{spec.algorithm} n={spec.n} "
                  f"horizon={spec.horizon:g} seed={spec.seed}")
        params = {
            "algorithm": spec.algorithm, "n": spec.n, "eta": spec.eta,
            "initial_timeout": spec.initial_timeout,
            "horizon": spec.horizon, "seed": spec.seed,
            "consensus": spec.consensus, "faults": spec.faults,
            "log": spec.log, "persist": spec.persist,
            "workload": spec.workload,
        }
        document = merged_live_report(node_reports, target, params,
                                      verdict, spec.horizon, wall_s=wall)
        applied = max((report.get("log", {}).get("applied_ids", [])
                       for report in node_reports), key=len, default=[])
        if spec.log:
            latencies = live_latencies(node_reports)
            # Committed = ids applied on the most advanced node.
            document["workload"] = {
                "submitted": len(self.submitted),
                "committed": len(applied),
                "throughput_cps": (len(applied) / wall if wall else None),
                "latency_s": latency_block(latencies),
                **{key: sum(report.get("log", {}).get("load", {}).get(key, 0)
                            for report in node_reports)
                   for key in ("retransmits_sent", "retransmits_gated")},
            }
        return LiveRunOutcome(node_reports=node_reports, omega=omega,
                              verdict=verdict, document=document,
                              rundir=self.rundir, applied_ids=applied)
