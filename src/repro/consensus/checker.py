"""Consensus safety/liveness verdicts for finished runs.

Checks the three classic properties over the surviving processes:

* **Agreement** — no two processes decided differently (per instance for
  the replicated log).
* **Validity** — every decision was somebody's proposal / a submitted
  command.
* **Termination (finite-run analogue)** — which correct processes have
  decided by the end of the run, and when.

Each report's ``from_facts`` constructor is the one judge of its
property, fed plain per-pid facts.  :func:`check_single_decree` and
:func:`check_log` extract those facts from a sim
:class:`~repro.consensus.node.ConsensusSystem`; the live backend's
adapters (:mod:`repro.live.report`) extract them from node reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Iterable,
    Mapping,
    Sequence,
)

from repro.consensus.single import SingleDecreeConsensus
from repro.obs.verdict import Verdict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consensus.node import ConsensusSystem
    from repro.consensus.replica import LogReplica

__all__ = ["SingleDecreeReport", "check_single_decree", "LogReport", "check_log"]


@dataclass(frozen=True)
class SingleDecreeReport:
    """Verdict for one single-decree run."""

    correct: tuple[int, ...]
    decided: dict[int, Any]
    decision_times: dict[int, float]
    agreement: bool
    validity: bool

    @classmethod
    def from_facts(cls, correct: Iterable[int], proposals: Iterable[Any],
                   decided: Mapping[int, Any],
                   decision_times: Mapping[int, float]) -> SingleDecreeReport:
        """Judge one run from every proposal and the deciders' facts."""
        values = set(decided.values())
        return cls(
            correct=tuple(correct),
            decided=dict(decided),
            decision_times=dict(decision_times),
            agreement=len(values) <= 1,
            validity=values <= set(proposals),
        )

    @property
    def all_correct_decided(self) -> bool:
        """Termination analogue: every correct process decided."""
        return set(self.decided) >= set(self.correct)

    @property
    def latest_decision(self) -> float | None:
        """Time the last correct process decided, if all did."""
        if not self.all_correct_decided or not self.correct:
            return None
        return max(self.decision_times[pid] for pid in self.correct)

    def verdict(self) -> Verdict:
        """This report as the shared :class:`~repro.obs.verdict.Verdict`.

        Ok iff agreement and validity hold *and* every correct process
        decided (the finite-run termination analogue).
        """
        violations = []
        if not self.agreement:
            violations.append(
                f"agreement violated: decisions {sorted(set(map(repr, self.decided.values())))}"
            )
        if not self.validity:
            violations.append("validity violated: a decision was nobody's proposal")
        if not self.all_correct_decided:
            undecided = sorted(set(self.correct) - set(self.decided))
            violations.append(f"correct processes never decided: {undecided}")
        evidence = {
            "correct": list(self.correct),
            "decided": {pid: self.decided[pid] for pid in sorted(self.decided)},
            "latest_decision": self.latest_decision,
        }
        if violations:
            return Verdict.failed(*violations, **evidence)
        return Verdict.passed(**evidence)


def check_single_decree(system: "ConsensusSystem") -> SingleDecreeReport:
    """Check one finished single-decree run."""
    proposals = []
    decided: dict[int, Any] = {}
    times: dict[int, float] = {}
    for pid in system.pids:
        process = system.node(pid).agreement
        if not isinstance(process, SingleDecreeConsensus):
            raise TypeError(f"node {pid} does not run single-decree consensus")
        proposals.append(process.proposal)
        if process.decision is not None:
            decided[pid] = process.decision
            assert process.decision_time is not None
            times[pid] = process.decision_time
    return SingleDecreeReport.from_facts(system.up_pids(), proposals,
                                         decided, times)


@dataclass(frozen=True)
class LogReport:
    """Verdict for one replicated-log run."""

    correct: tuple[int, ...]
    agreement: bool
    validity: bool
    committed_by_pid: dict[int, int]
    divergences: tuple[str, ...]

    @classmethod
    def from_facts(cls, correct: Iterable[int],
                   logs: Mapping[int, Sequence[Any]],
                   commands_of: Callable[[Any], Iterable[Any]],
                   submitted: Collection[Any]) -> LogReport:
        """Judge one run from each pid's committed sequence, where
        ``commands_of(element)`` names the commands an element carries."""
        committed_by_pid = {pid: len(log) for pid, log in logs.items()}
        valid = all(command in submitted for log in logs.values()
                    for element in log for command in commands_of(element))
        divergences: list[str] = []
        pids = sorted(logs)
        for left_index, left in enumerate(pids):
            for right in pids[left_index + 1:]:
                shorter = min(committed_by_pid[left], committed_by_pid[right])
                if logs[left][:shorter] != logs[right][:shorter]:
                    divergences.append(
                        f"logs of {left} and {right} diverge within "
                        f"their common prefix of {shorter}"
                    )
        return cls(
            correct=tuple(correct),
            agreement=not divergences,
            validity=valid,
            committed_by_pid=committed_by_pid,
            divergences=tuple(divergences),
        )

    @property
    def max_committed(self) -> int:
        """Longest committed prefix across correct processes."""
        if not self.committed_by_pid:
            return 0
        return max(self.committed_by_pid.values())

    def verdict(self) -> Verdict:
        """This report as the shared :class:`~repro.obs.verdict.Verdict`.

        Ok iff no pair of committed prefixes diverges and every committed
        command was actually submitted.  Divergence strings become the
        violations verbatim.
        """
        violations = list(self.divergences)
        if not self.validity:
            violations.append("validity violated: committed an unsubmitted command")
        evidence = {
            "correct": list(self.correct),
            "committed_by_pid": dict(sorted(self.committed_by_pid.items())),
            "max_committed": self.max_committed,
        }
        if violations:
            return Verdict.failed(*violations, **evidence)
        return Verdict.passed(**evidence)


def check_log(system: "ConsensusSystem", submitted: set[Any]) -> LogReport:
    """Check a finished replicated-log run.

    ``submitted`` is the set of commands the workload injected; validity
    demands every committed command be one of them.
    """
    from repro.consensus.replica import (  # local: avoid cycle
        LogReplica,
        entry_commands,
    )

    logs: dict[int, list[Any]] = {}
    for pid in system.pids:
        process = system.node(pid).agreement
        if not isinstance(process, LogReplica):
            raise TypeError(f"node {pid} does not run the replicated log")
        logs[pid] = process.committed_prefix()
    return LogReport.from_facts(
        system.up_pids(), logs,
        lambda entry: [command for _, command in entry_commands(entry)],
        submitted)
