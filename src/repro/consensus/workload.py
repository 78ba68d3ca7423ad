"""The fixed-count client drip for the replicated log.

A frozen :class:`WorkloadSpec` describes the drip (how many commands,
how fast, when retries fire); :meth:`WorkloadSpec.build` attaches a
:class:`WorkloadDriver` to a system, and that is the only step that
schedules timers.  The driver exposes what its callers judge a run by:
the :attr:`~WorkloadDriver.submitted` payloads and
:meth:`~WorkloadDriver.done`.

The driver plays the role of the paper-world "clients": it submits a
stream of commands into the system at a configurable rate and keeps
resubmitting every command until it observes it committed, giving
at-least-once delivery end to end (the log deduplicates by command id).
Submission targets rotate over the *currently up* nodes, so the workload
also exercises the forwarding path (non-leaders forward to their Omega
leader) and survives leader crashes.

Commit latency, throughput and population-scale load (client fleets,
Zipf skew, open/closed loops, sharded logs) are measured by
:mod:`repro.load`, which builds on the same submit/retry discipline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.consensus.node import ConsensusSystem
from repro.consensus.replica import LogReplica

__all__ = ["WorkloadSpec", "WorkloadDriver"]


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


class WorkloadDriver:
    """A built workload: submits and retries commands on one system.

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

    def done(self) -> bool:
        """Whether every command is committed at some up-to-date node."""
        committed = self._committed_ids()
        return set(self.commands) <= committed

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
            # A shed command (backpressure) is re-offered by the retry sweep.
            self._replica(target).submit(command_id, self.commands[command_id])
        self.system.sim.call_after(self.period, self._submit_next)

    def _retry(self) -> None:
        committed = self._committed_ids()
        for command_id in range(min(self._cursor, self.count)):
            if command_id in committed:
                continue
            target = self._pick_target(command_id + 1)  # rotate targets
            if target is not None:
                self._replica(target).submit(command_id,
                                             self.commands[command_id])
        self.system.sim.call_after(self.retry_period, self._retry)

