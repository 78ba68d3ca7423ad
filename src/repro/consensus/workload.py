"""Client workloads for the replicated log.

Workloads follow the same **spec → build → run** shape as
:class:`~repro.harness.scenarios.OmegaScenario`: a frozen
:class:`WorkloadSpec` describes the drip (how many commands, how fast,
when retries fire), :meth:`WorkloadSpec.build` attaches a
:class:`WorkloadDriver` to a system (this is the only step that
schedules timers), and :meth:`WorkloadDriver.outcome` distills the run
into a frozen :class:`WorkloadOutcome` — commit-latency percentiles,
retry and shed counts, throughput.

The driver plays the role of the paper-world "clients": it submits a
stream of commands into the system at a configurable rate and keeps
resubmitting every command until it observes it committed, giving
at-least-once delivery end to end (the log deduplicates by command id).
Submission targets rotate over the *currently up* nodes, so the workload
also exercises the forwarding path (non-leaders forward to their Omega
leader) and survives leader crashes.

For population-scale load (client fleets, Zipf skew, open/closed loops,
sharded logs) see :mod:`repro.load`, which builds on the same submit/
retry discipline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.consensus.node import ConsensusSystem
from repro.consensus.replica import LogReplica, entry_commands

__all__ = ["WorkloadSpec", "WorkloadDriver", "WorkloadOutcome"]


def _require_finite_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a fixed-count log workload.

    Attributes
    ----------
    count:
        Number of distinct commands (payloads ``cmd-0`` … ``cmd-{count-1}``).
    period:
        Simulated time between first submissions.
    start:
        Time of the first submission.
    retry_period:
        How often unfinished commands are resubmitted (to a possibly
        different node).

    All timing fields must be finite; NaN and infinities are rejected
    eagerly with an error naming the field.
    """

    count: int = 30
    period: float = 0.5
    start: float = 0.0
    retry_period: float = 5.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be at least 1")
        _require_finite_positive("period", self.period)
        _require_finite_positive("retry_period", self.retry_period)
        if not (isinstance(self.start, (int, float))
                and math.isfinite(self.start) and self.start >= 0):
            raise ValueError(
                f"start must be non-negative and finite, got {self.start!r}")

    def build(self, system: ConsensusSystem) -> "WorkloadDriver":
        """Attach a driver to ``system`` and schedule its timers."""
        driver = WorkloadDriver(self, system)
        driver._attach()
        return driver

    def run(self, system: ConsensusSystem, horizon: float,
            stagger: float = 0.0) -> "WorkloadOutcome":
        """Convenience: build, start every node, run, and distill.

        Schedule fault plans against ``system`` *before* calling this.
        """
        driver = self.build(system)
        system.start_all(stagger)
        system.run_until(horizon)
        return driver.outcome()


@dataclass(frozen=True)
class WorkloadOutcome:
    """What a finished workload run looked like, end to end.

    Latency percentiles are over per-command submit→commit latencies
    (first submission to earliest decide anywhere); ``None`` when no
    command committed.  ``throughput_cps`` is committed commands per
    simulated second between ``start`` and the snapshot time.
    """

    submitted: int
    committed: int
    retries: int
    shed: int
    done: bool
    duration_s: float
    throughput_cps: float | None
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_p99_s: float | None

    def to_json(self) -> dict[str, Any]:
        """A plain-JSON rendering (used by bench rows and reports)."""
        return {
            "submitted": self.submitted,
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
        }


class WorkloadDriver:
    """A built workload: submits, retries, and measures one system.

    Construct through :meth:`WorkloadSpec.build`; the driver itself
    never schedules anything from ``__init__``.
    """

    def __init__(self, spec: WorkloadSpec, system: ConsensusSystem) -> None:
        self.spec = spec
        self.system = system
        self.count = spec.count
        self.period = spec.period
        self.retry_period = spec.retry_period
        self.commands = {index: f"cmd-{index}" for index in range(spec.count)}
        self.submit_times: dict[int, float] = {}
        self.retries = 0
        self.shed = 0
        self._cursor = 0
        self._attached = False

    def _attach(self) -> None:
        if self._attached:
            raise RuntimeError("workload driver already attached")
        self._attached = True
        self.system.sim.call_at(self.spec.start, self._submit_next)
        self.system.sim.call_at(self.spec.start + self.retry_period,
                                self._retry)

    @property
    def submitted(self) -> set[Any]:
        """All command payloads this workload ever injected."""
        return set(self.commands.values())

    def commit_latency(self, pid: int) -> dict[int, float]:
        """Per-command submit→commit latency as observed at node ``pid``."""
        replica = self._replica(pid)
        out: dict[int, float] = {}
        for instance in range(replica.commit_index + 1):
            if instance not in replica.log:
                continue  # compacted away
            decided_at = replica.decision_times.get(instance)
            if decided_at is None:
                continue
            for command_id, _ in entry_commands(replica.log[instance]):
                if command_id in self.submit_times \
                        and command_id not in out:
                    out[command_id] = \
                        decided_at - self.submit_times[command_id]
        return out

    def done(self) -> bool:
        """Whether every command is committed at some up-to-date node."""
        committed = self._committed_ids()
        return set(self.commands) <= committed

    def outcome(self) -> WorkloadOutcome:
        """Distill the run so far into a frozen :class:`WorkloadOutcome`."""
        from repro.harness.stats import percentile  # local: avoid cycle

        committed = self._committed_ids() & set(self.commands)
        latencies = sorted(self._global_latencies().values())
        duration = max(self.system.sim.now - self.spec.start, 0.0)
        return WorkloadOutcome(
            submitted=len(self.submit_times),
            committed=len(committed),
            retries=self.retries,
            shed=self.shed,
            done=self.done(),
            duration_s=duration,
            throughput_cps=(len(committed) / duration if duration > 0
                            else None),
            latency_p50_s=percentile(latencies, 0.50) if latencies else None,
            latency_p95_s=percentile(latencies, 0.95) if latencies else None,
            latency_p99_s=percentile(latencies, 0.99) if latencies else None,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _replica(self, pid: int) -> LogReplica:
        replica = self.system.node(pid).agreement
        assert isinstance(replica, LogReplica)
        return replica

    def _committed_ids(self) -> set[int]:
        out: set[int] = set()
        for pid in self.system.up_pids():
            out |= {cid for cid in self._replica(pid).committed_ids}
        return out

    def _global_latencies(self) -> dict[int, float]:
        """Earliest observed commit latency per command across up nodes."""
        merged: dict[int, float] = {}
        for pid in self.system.up_pids():
            for command_id, latency in self.commit_latency(pid).items():
                if command_id not in merged or latency < merged[command_id]:
                    merged[command_id] = latency
        return merged

    def _pick_target(self, command_id: int) -> int | None:
        up = self.system.up_pids()
        if not up:
            return None
        return up[command_id % len(up)]

    def _submit_next(self) -> None:
        if self._cursor >= self.count:
            return
        command_id = self._cursor
        self._cursor += 1
        target = self._pick_target(command_id)
        if target is not None:
            self.submit_times.setdefault(command_id, self.system.sim.now)
            accepted = self._replica(target).submit(
                command_id, self.commands[command_id])
            if not accepted:
                self.shed += 1  # backpressure: the retry sweep re-offers it
        self.system.sim.call_after(self.period, self._submit_next)

    def _retry(self) -> None:
        committed = self._committed_ids()
        for command_id in range(min(self._cursor, self.count)):
            if command_id in committed:
                continue
            target = self._pick_target(command_id + 1)  # rotate targets
            if target is not None:
                self.retries += 1
                accepted = self._replica(target).submit(
                    command_id, self.commands[command_id])
                if not accepted:
                    self.shed += 1
        self.system.sim.call_after(self.retry_period, self._retry)

