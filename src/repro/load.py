"""Population-scale client load for the replicated state machine.

The workloads in :mod:`repro.consensus.workload` drip a fixed count of
commands — fine for correctness, useless for throughput.  This module
drives the consensus stack the way the ROADMAP's north star demands:
with a **client fleet** — up to millions of logical clients — hitting a
(possibly sharded) replicated log, and measures what production cares
about: committed-command throughput and commit-latency percentiles
(p50/p95/p99).

The pieces, in the repository's usual spec → build → run shape:

* :class:`ZipfSampler` — O(1) rejection-inversion sampling from a
  Zipf(s) distribution over a huge key space (Hörmann & Derflinger's
  algorithm, the one production generators like YCSB approximate).
  ``s=0`` degenerates to uniform.
* :class:`ClientFleet` — the client population.  **Open loop**: command
  arrivals follow a Poisson (or fixed-interval) process at an aggregate
  rate, regardless of how the system keeps up — queueing builds and the
  tail latencies show it.  **Closed loop**: each client submits, waits
  for its commit, thinks, and submits again — throughput self-limits.
  Either way every command has an at-least-once id ``(client, seq)``,
  is routed to its key's group, retried until committed, and counted as
  **shed** each time a bounded leader queue refuses it
  (``ConsensusConfig.queue_limit`` backpressure).
* :class:`LoadSpec` — frozen description of fleet + cluster;
  :meth:`LoadSpec.build` assembles a
  :class:`~repro.consensus.sharding.ShardedLog` and attaches the fleet,
  :meth:`LoadRun.run` executes to the horizon and distills a
  :class:`LoadOutcome` (throughput, percentiles, retry/shed counts, and
  one consensus-checker verdict **per group**).

Everything is deterministic: all randomness comes from the simulation's
:class:`~repro.sim.rng.RngFabric` streams, so a given spec yields a
byte-identical outcome at any ``--jobs`` level (experiment E19).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Hashable

from repro.consensus.config import ConsensusConfig
from repro.consensus.replica import entry_commands
from repro.consensus.sharding import ShardedLog
from repro.obs.observer import Observer
from repro.obs.verdict import Verdict
from repro.sim.topology import LinkTimings, multi_source_links

__all__ = [
    "ZipfSampler",
    "ClientFleet",
    "LoadSpec",
    "LoadRun",
    "LoadOutcome",
]

_ARRIVALS = ("poisson", "steady")
_MODES = ("open", "closed")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class ZipfSampler:
    """Zero-based Zipf(s) ranks over ``n`` items in O(1) per sample.

    Rank 0 is the most popular item; the probability of rank ``k`` is
    proportional to ``1 / (k + 1) ** s``.  Uses rejection-inversion
    (Hörmann & Derflinger 1996), so ``n`` can be millions without any
    per-item precomputation; ``s=0`` is plain uniform.  All randomness
    comes from the ``random.Random`` handed in, keeping samples on the
    simulation's deterministic fabric.
    """

    def __init__(self, n: int, s: float) -> None:
        _require(n >= 1, f"n must be at least 1, got {n!r}")
        _require(_finite(s) and s >= 0,
                 f"s must be non-negative and finite, got {s!r}")
        self.n = n
        self.s = float(s)
        if self.s > 0:
            self._hx0 = self._h_integral(0.5)
            self._hn = self._h_integral(n + 0.5)
            self._threshold = 2.0 - self._h_integral_inv(
                self._h_integral(2.5) - self._h(2.0))

    def _h(self, x: float) -> float:
        return math.exp(-self.s * math.log(x))

    def _h_integral(self, x: float) -> float:
        log_x = math.log(x)
        if self.s == 1.0:
            return log_x
        return math.expm1((1.0 - self.s) * log_x) / (1.0 - self.s)

    def _h_integral_inv(self, u: float) -> float:
        if self.s == 1.0:
            return math.exp(u)
        base = 1.0 + u * (1.0 - self.s)
        if base <= 0:  # clamp numeric underflow at the tail
            base = 5e-324
        return math.exp(math.log(base) / (1.0 - self.s))

    def sample(self, rng: Any) -> int:
        """Draw one rank in ``[0, n)`` using ``rng.random()``."""
        if self.s == 0:
            return int(rng.random() * self.n) % self.n
        while True:
            u = self._hn + rng.random() * (self._hx0 - self._hn)
            x = self._h_integral_inv(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if (k - x <= self._threshold
                    or u >= self._h_integral(k + 0.5) - self._h(k)):
                return k - 1


@dataclass(frozen=True)
class LoadSpec:
    """Declarative description of one load experiment.

    Cluster shape
    -------------
    ``n`` machines run ``groups`` independent replicated logs
    (:class:`~repro.consensus.sharding.ShardedLog`; ``shared_omega``
    picks the failure-detector layout), links come up timely after
    ``gst``.  ``batch_size``/``window``/``queue_limit`` map onto
    :class:`~repro.consensus.config.ConsensusConfig` — ``window`` is the
    pipelining depth (``max_batch``).  ``compacting=True`` runs
    compacting replicas (journal machines, ``keep_tail`` retained
    entries) so snapshots happen under sustained write load; they are
    crash-stop, so combining it with ``persist=True`` is rejected.

    Fleet shape
    -----------
    ``clients`` logical clients touch ``keys`` keys with Zipf(``zipf_s``)
    skew.  ``mode="open"`` offers an aggregate ``rate`` commands/s with
    ``arrival`` interarrivals over ``[start, start + duration)``;
    ``mode="closed"`` has every client loop submit → commit →
    ``think_time``.  Unfinished commands are re-offered every
    ``retry_period`` to a rotating target.  The run ends at ``horizon``
    (drain tail included).
    """

    n: int = 5
    groups: int = 1
    shared_omega: bool = True
    omega: str = "comm-efficient"
    gst: float = 2.0
    seed: int = 0
    batch_size: int = 8
    window: int = 8
    queue_limit: int | None = 128
    persist: bool = False
    compacting: bool = False
    keep_tail: int = 32

    clients: int = 1000
    keys: int = 256
    zipf_s: float = 1.1
    mode: str = "open"
    rate: float = 40.0
    arrival: str = "poisson"
    think_time: float = 4.0
    start: float = 5.0
    duration: float = 60.0
    horizon: float = 120.0
    retry_period: float = 4.0

    def __post_init__(self) -> None:
        _require(self.n >= 2, f"n must be at least 2, got {self.n!r}")
        _require(self.groups >= 1,
                 f"groups must be at least 1, got {self.groups!r}")
        _require(self.clients >= 1,
                 f"clients must be at least 1, got {self.clients!r}")
        _require(self.keys >= 1, f"keys must be at least 1, got {self.keys!r}")
        _require(_finite(self.zipf_s) and self.zipf_s >= 0,
                 f"zipf_s must be non-negative and finite, got {self.zipf_s!r}")
        _require(self.mode in _MODES,
                 f"mode must be one of {_MODES}, got {self.mode!r}")
        _require(self.arrival in _ARRIVALS,
                 f"arrival must be one of {_ARRIVALS}, got {self.arrival!r}")
        for name in ("rate", "think_time", "duration", "retry_period", "gst"):
            value = getattr(self, name)
            _require(_finite(value) and value > 0,
                     f"{name} must be positive and finite, got {value!r}")
        _require(_finite(self.start) and self.start >= 0,
                 f"start must be non-negative and finite, got {self.start!r}")
        _require(_finite(self.horizon)
                 and self.horizon > self.start + self.duration,
                 f"horizon must exceed start + duration, got {self.horizon!r}")
        _require(self.batch_size >= 1,
                 f"batch_size must be at least 1, got {self.batch_size!r}")
        _require(self.window >= 1,
                 f"window must be at least 1, got {self.window!r}")
        _require(self.queue_limit is None or self.queue_limit >= 1,
                 f"queue_limit must be None or at least 1, "
                 f"got {self.queue_limit!r}")
        _require(not (self.compacting and self.persist),
                 "compacting=True with persist=True is unsupported: "
                 "compacting replicas are crash-stop (no durable snapshots)")

    def consensus_config(self) -> ConsensusConfig:
        """The replica-side knobs this spec implies."""
        return ConsensusConfig(max_batch=self.window,
                               batch_size=self.batch_size,
                               queue_limit=self.queue_limit)

    def build(self) -> "LoadRun":
        """Assemble the sharded system and attach the client fleet."""
        from repro.consensus.statemachine import JournalMachine

        timings = LinkTimings(gst=self.gst)
        sources = (0, 1 % self.n)
        system = ShardedLog.build(
            n=self.n,
            groups=self.groups,
            links_factory=lambda: multi_source_links(
                self.n, sources, timings),
            omega_name=self.omega,
            consensus_config=self.consensus_config(),
            shared_omega=self.shared_omega,
            machine_factory=JournalMachine if self.compacting else None,
            keep_tail=self.keep_tail,
            seed=self.seed,
            persist=self.persist,
        )
        fleet = ClientFleet(self, system)
        fleet._attach()
        return LoadRun(self, system, fleet)

    def run(self) -> "LoadOutcome":
        """Convenience: build, execute to the horizon, distill."""
        return self.build().run()


class _CommitWatch(Observer):
    """Per-group observer handing the fleet the commands of each log
    instance at the first decide of each instance — the earliest, so the
    commit instant.  Every replica decides every instance; the later
    decides of an instance are skipped without a walk over its entry."""

    def __init__(self, fleet: "ClientFleet", group: int) -> None:
        self.fleet = fleet
        self.group = group
        self.seen: set[int] = set()

    def on_decide(self, time: float, pid: int, value: Any) -> None:
        instance, entry = value
        seen = self.seen
        if instance in seen:
            return
        seen.add(instance)
        on_commit = self.fleet._on_commit
        for command_id, _ in entry_commands(entry):
            on_commit(command_id, time)


class ClientFleet:
    """The client population driving one :class:`ShardedLog`.

    Construct through :meth:`LoadSpec.build`.  Logical clients are
    *virtual*: open-loop mode keeps per-client state only for clients
    that have actually issued a command, so fleets of millions cost
    memory proportional to traffic, not population.  Commit detection is
    an observer on every group's agreement network that reads only the
    first decide of each instance (the commit instant of every command
    it carries), so latency needs no polling.
    """

    def __init__(self, spec: LoadSpec, system: ShardedLog) -> None:
        self.spec = spec
        self.system = system
        self._rng = system.sim.rng.stream("load", "fleet")
        self._zipf = ZipfSampler(spec.keys, spec.zipf_s)
        self._next_seq: dict[int, int] = {}
        # command id -> (payload, group, first submit time)
        self.outstanding: dict[Hashable, tuple[Any, int, float]] = {}
        self.submit_times: dict[Hashable, float] = {}
        self.commit_times: dict[Hashable, float] = {}
        self.group_payloads: list[set[Any]] = [
            set() for _ in system.groups]
        self.issued = 0
        self.retries = 0
        self.shed = 0
        self._rr = 0
        self._attached = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _attach(self) -> None:
        if self._attached:
            raise RuntimeError("fleet already attached")
        self._attached = True
        for index, group in enumerate(self.system.groups):
            group.agreement_network.hub.attach(_CommitWatch(self, index))
        sim = self.system.sim
        if self.spec.mode == "open":
            sim.call_at(self.spec.start, self._open_arrival)
        else:
            for client in range(self.spec.clients):
                offset = self._rng.random() * self.spec.think_time
                sim.call_at(self.spec.start + offset,
                            self._closed_submit_factory(client))
        sim.call_at(self.spec.start + self.spec.retry_period, self._retry)

    # ------------------------------------------------------------------
    # Arrival processes
    # ------------------------------------------------------------------

    def _offering(self) -> bool:
        return self.system.sim.now < self.spec.start + self.spec.duration

    def _open_arrival(self) -> None:
        if not self._offering():
            return
        client = int(self._rng.random() * self.spec.clients) \
            % self.spec.clients
        self._issue(client)
        if self.spec.arrival == "poisson":
            gap = self._rng.expovariate(self.spec.rate)
        else:
            gap = 1.0 / self.spec.rate
        self.system.sim.call_after(gap, self._open_arrival)

    def _closed_submit_factory(self, client: int) -> Any:
        def submit_once() -> None:
            if self._offering():
                self._issue(client)
        return submit_once

    # ------------------------------------------------------------------
    # Submission / retry / commit
    # ------------------------------------------------------------------

    def _issue(self, client: int) -> None:
        seq = self._next_seq.get(client, 0)
        self._next_seq[client] = seq + 1
        key = self._zipf.sample(self._rng)
        command_id = (client, seq)
        payload = ("w", client, seq, key)
        group = self.system.group_of(key)
        now = self.system.sim.now
        self.issued += 1
        self.outstanding[command_id] = (payload, group, now)
        self.submit_times[command_id] = now
        self.group_payloads[group].add(payload)
        self._offer(command_id, payload, group)

    def _offer(self, command_id: Hashable, payload: Any, group: int) -> None:
        shard = self.system.groups[group]
        up = shard.up_pids()
        if not up:
            return
        target = up[self._rr % len(up)]
        self._rr += 1
        replica = shard.nodes[target].agreement
        if not replica.submit(command_id, payload):
            self.shed += 1  # deferred: the retry sweep re-offers it

    def _retry(self) -> None:
        for command_id, (payload, group, _) in list(self.outstanding.items()):
            self.retries += 1
            self._offer(command_id, payload, group)
        self.system.sim.call_after(self.spec.retry_period, self._retry)

    def _on_commit(self, command_id: Hashable, time: float) -> None:
        if command_id in self.commit_times:
            return
        if command_id not in self.submit_times:
            return  # not ours (foreign workload on the same system)
        self.commit_times[command_id] = time
        self.outstanding.pop(command_id, None)
        if self.spec.mode == "closed":
            client = command_id[0]
            self.system.sim.call_after(
                self.spec.think_time, self._closed_submit_factory(client))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def done(self) -> bool:
        """Whether every issued command has committed."""
        return not self.outstanding

    def latencies(self) -> array:
        """Per-command submit→commit latencies, sorted ascending, as a
        packed ``array('d')`` (callers keep one of these per run)."""
        return array("d", sorted(
            self.commit_times[cid] - self.submit_times[cid]
            for cid in self.commit_times))


@dataclass(frozen=True)
class LoadOutcome:
    """What a finished load run measured, end to end.

    ``throughput_cps`` is committed commands per simulated second of
    offered-load window; latency percentiles are over submit→commit
    times (``None`` when nothing committed).  ``per_group`` carries one
    consensus-checker verdict and commit count per group; ``verdict`` is
    their merge.  ``queue`` aggregates replica-side backpressure
    counters (sheds, queue high-water, batch-size histogram).
    ``retransmits_sent`` / ``retransmits_gated`` sum what the replicas'
    retransmission backoff gates admitted and suppressed; ``None``
    unless the run persisted — crash-stop stacks send ungated.
    """

    issued: int
    committed: int
    retries: int
    shed: int
    done: bool
    duration_s: float
    throughput_cps: float | None
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_p99_s: float | None
    per_group: tuple[dict[str, Any], ...]
    verdict: Verdict
    queue: dict[str, Any]
    retransmits_sent: int | None = None
    retransmits_gated: int | None = None

    def to_json(self) -> dict[str, Any]:
        """A plain-JSON rendering (used by E19 bench rows)."""
        document = {
            "issued": self.issued,
            "committed": self.committed,
            "retries": self.retries,
            "shed": self.shed,
            "done": self.done,
            "duration_s": self.duration_s,
            "throughput_cps": self.throughput_cps,
            "latency_s": {
                "p50": self.latency_p50_s,
                "p95": self.latency_p95_s,
                "p99": self.latency_p99_s,
            },
            "per_group": [dict(row) for row in self.per_group],
            "queue": dict(self.queue),
        }
        if self.retransmits_sent is not None:
            document["retransmits_sent"] = self.retransmits_sent
            document["retransmits_gated"] = self.retransmits_gated
        return document


class LoadRun:
    """An assembled load rig: sharded system + client fleet, ready to run."""

    def __init__(self, spec: LoadSpec, system: ShardedLog,
                 fleet: ClientFleet) -> None:
        self.spec = spec
        self.system = system
        self.fleet = fleet

    def run(self) -> LoadOutcome:
        """Start everything, run to the horizon, judge and distill."""
        self.system.start_all()
        self.system.run_until(self.spec.horizon)
        return self.outcome()

    def outcome(self) -> LoadOutcome:
        """Distill the run so far (checkers included) into an outcome."""
        from repro.consensus.checker import check_log
        from repro.consensus.compaction import check_compacting_log
        from repro.harness.stats import percentile

        spec, fleet = self.spec, self.fleet
        per_group: list[dict[str, Any]] = []
        verdicts: list[Verdict] = []
        for index, group in enumerate(self.system.groups):
            submitted = fleet.group_payloads[index]
            if spec.compacting:
                report = check_compacting_log(group, submitted)
                if report.agreement and report.validity:
                    verdict = Verdict.passed(
                        group=index, max_commit=report.max_commit)
                else:
                    verdict = Verdict.failed(
                        *(report.divergences
                          or (f"group {index}: validity violated",)),
                        group=index)
                committed = report.max_commit + 1
            else:
                log_report = check_log(group, submitted)
                verdict = log_report.verdict()
                committed = log_report.max_committed
            verdicts.append(verdict)
            per_group.append({
                "group": index,
                "submitted": len(submitted),
                "committed_entries": committed,
                "ok": verdict.ok,
            })
        merged = verdicts[0].merge(*verdicts[1:]) if verdicts else \
            Verdict.passed()

        shed_total = fleet.shed
        max_depth = 0
        histogram: dict[int, int] = {}
        sent = gated = 0
        for group in self.system.groups:
            for pid in group.pids:
                stats = group.nodes[pid].agreement.load_stats()
                shed_total += stats["shed"]
                max_depth = max(max_depth, stats["max_queue_depth"])
                for size, count in stats["batch_sizes"].items():
                    histogram[size] = histogram.get(size, 0) + count
                sent += stats["retransmits_sent"]
                gated += stats["retransmits_gated"]

        latencies = fleet.latencies()
        duration = min(self.system.sim.now - spec.start, spec.duration)
        duration = max(duration, 0.0)
        committed_count = len(fleet.commit_times)
        return LoadOutcome(
            issued=fleet.issued,
            committed=committed_count,
            retries=fleet.retries,
            shed=fleet.shed,
            done=fleet.done(),
            duration_s=duration,
            throughput_cps=(committed_count / duration if duration > 0
                            else None),
            latency_p50_s=percentile(latencies, 0.50) if latencies else None,
            latency_p95_s=percentile(latencies, 0.95) if latencies else None,
            latency_p99_s=percentile(latencies, 0.99) if latencies else None,
            per_group=tuple(per_group),
            verdict=merged,
            queue={
                "shed": shed_total,
                "max_queue_depth": max_depth,
                "batch_sizes": {str(size): histogram[size]
                                for size in sorted(histogram)},
            },
            retransmits_sent=sent if spec.persist else None,
            retransmits_gated=gated if spec.persist else None,
        )
