"""Run analysis: did Omega hold, when did it stabilize, who still talks.

The Omega property and communication efficiency are *limit* statements;
for finite runs the checker reports their finite-run analogues:

* **Omega verdict** — at the end of the run, do all correct (= up at
  the end) processes trust the same correct process?  The exact
  per-process output histories recorded by
  :class:`~repro.core.omega.OmegaProtocol` give the precise
  *stabilization time*: the last instant any correct process changed its
  output (valid because outputs never changed again afterwards).
* **Communication report** — who sent messages, and over which links,
  during a trailing window.  An algorithm behaves
  communication-efficiently in the run if the final window's sender set
  is exactly the elected leader (and hence at most ``n - 1`` links carry
  traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.omega import OmegaProtocol
from repro.obs.verdict import Verdict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cluster import Cluster

__all__ = [
    "OmegaRunReport",
    "CommunicationReport",
    "analyze_omega_run",
    "communication_report",
]


@dataclass(frozen=True)
class OmegaRunReport:
    """Verdict of an Omega run over one cluster."""

    correct: tuple[int, ...]
    final_outputs: dict[int, int]
    agreement: bool
    final_leader: int | None
    leader_is_correct: bool
    stabilization_time: float | None
    changes_by_pid: dict[int, int]

    @property
    def omega_holds(self) -> bool:
        """All correct processes agree on a correct leader."""
        return self.agreement and self.leader_is_correct

    @property
    def total_changes(self) -> int:
        """Total leader flaps across correct processes."""
        return sum(self.changes_by_pid.values())

    def verdict(self) -> Verdict:
        """This report as the shared :class:`~repro.obs.verdict.Verdict`.

        Ok iff the Omega property holds at the end of the run; violations
        name the failed sub-property, evidence carries the raw figures.
        """
        violations = []
        if not self.agreement:
            violations.append(
                f"correct processes disagree on the leader: {self.final_outputs}"
            )
        elif not self.leader_is_correct:
            violations.append(
                f"agreed leader {self.final_leader} is not a correct process"
            )
        evidence = {
            "correct": list(self.correct),
            "final_leader": self.final_leader,
            "stabilization_time": self.stabilization_time,
            "total_changes": self.total_changes,
        }
        if violations:
            return Verdict.failed(*violations, **evidence)
        return Verdict.passed(**evidence)


@dataclass(frozen=True)
class CommunicationReport:
    """Who communicated during a window of the run."""

    window_start: float
    window_end: float
    senders: frozenset[int]
    links: frozenset[tuple[int, int]]
    messages: int

    def is_communication_efficient(self, leader: int | None) -> bool:
        """True iff only the given leader sent during the window."""
        return leader is not None and self.senders == frozenset({leader})


def analyze_omega_run(cluster: Cluster) -> OmegaRunReport:
    """Analyze a finished run of Omega protocols on ``cluster``.

    Correct processes are those that are up at the end of the run.
    Under crash-stop that is exactly "never crashed"; under the
    crash-recovery extension it additionally counts every eventually-up
    process — one whose last recovery stuck — as correct, which is the
    standard correctness notion for that model.  All cluster processes
    must be :class:`OmegaProtocol` instances.
    """
    correct = tuple(cluster.up_pids())
    protocols: dict[int, OmegaProtocol] = {}
    for pid in correct:
        process = cluster.process(pid)
        if not isinstance(process, OmegaProtocol):
            raise TypeError(f"process {pid} is not an OmegaProtocol")
        protocols[pid] = process

    final_outputs = {pid: proto.leader() for pid, proto in protocols.items()}
    leaders = set(final_outputs.values())
    agreement = len(leaders) == 1 and bool(correct)
    final_leader = leaders.pop() if agreement else None
    leader_is_correct = final_leader in correct if agreement else False

    stabilization: float | None = None
    if agreement and leader_is_correct:
        stabilization = max(proto.history[-1][0] for proto in protocols.values())

    return OmegaRunReport(
        correct=correct,
        final_outputs=final_outputs,
        agreement=agreement,
        final_leader=final_leader,
        leader_is_correct=leader_is_correct,
        stabilization_time=stabilization,
        changes_by_pid={pid: proto.leader_changes
                        for pid, proto in protocols.items()},
    )


def communication_report(cluster: Cluster, window: float,
                         end: float | None = None) -> CommunicationReport:
    """Sender/link census for the trailing ``window`` of the run.

    ``end`` defaults to the cluster's current simulated time.  The census
    is based on whole metric windows overlapping the interval, so choose
    ``window`` a few multiples of the metrics collector's granularity.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    end_time = cluster.sim.now if end is None else end
    start = max(0.0, end_time - window)
    metrics = cluster.metrics
    return CommunicationReport(
        window_start=start,
        window_end=end_time,
        senders=frozenset(metrics.senders_between(start, end_time)),
        links=frozenset(metrics.links_between(start, end_time)),
        messages=metrics.messages_between(start, end_time),
    )
