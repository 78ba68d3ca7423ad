"""Live-run reporting: node dumps, the merged ``repro-report/v1``, verdicts.

A live cluster is many OS processes, each carrying its own
:class:`~repro.obs.report.RunRecorder`(s); nothing holds the whole run
in one address space.  This module closes that gap:

* :func:`recorder_to_json` / :func:`recorder_from_json` round-trip a
  recorder through the node report file each node writes at its
  horizon;
* :func:`merged_live_report` reassembles the recorders of every node
  onto shim "plane" hubs and feeds them through the **existing**
  :class:`~repro.obs.report.RunReport` builder, so the live document is
  produced by the same code path (and validated by the same
  :func:`~repro.obs.report.validate_report`) as a sim report;
* :func:`analyze_live_run` builds the standard
  :class:`~repro.core.checker.OmegaRunReport` from the nodes' leader
  histories, so live runs are judged by the same checker/verdict
  plumbing as sim runs.

Clock caveat: each node's times are seconds since *its* boot.  Nodes of
one cluster boot within the spawn stagger of each other (tens of
milliseconds on localhost), so merged timelines are approximately —
not exactly — aligned; verdicts never depend on cross-node time
comparisons, only on per-node final states.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

from repro.core.checker import OmegaRunReport
from repro.live.codec import decode_value, encode_value
from repro.obs.observer import ObserverHub
from repro.obs.report import RunRecorder, RunReport
from repro.obs.verdict import Verdict

__all__ = [
    "recorder_to_json",
    "recorder_from_json",
    "analyze_live_run",
    "consensus_verdict",
    "log_verdict",
    "live_latencies",
    "latency_block",
    "merged_live_report",
]


def recorder_to_json(recorder: RunRecorder) -> dict[str, Any]:
    """Serialize a :class:`RunRecorder` for a node report file."""
    return {
        "sent_by_kind": dict(recorder.sent_by_kind),
        "dropped_by_reason": dict(recorder.dropped_by_reason),
        "packets_by_kind": dict(recorder.packets_by_kind),
        "packet_bytes_by_kind": dict(recorder.packet_bytes_by_kind),
        "packets_delivered": recorder.packets_delivered,
        "packet_bytes_delivered": recorder.packet_bytes_delivered,
        "leader_timeline": [list(entry)
                            for entry in recorder.leader_timeline],
        # Decided values go through the wire codec's value tags: a log
        # decide is ``(instance, entry)`` and a batched entry is a
        # ``Batch`` dataclass, which plain JSON cannot carry.
        "decides": [[time, pid, encode_value(value)]
                    for time, pid, value in recorder.decides],
        "crashes": [list(entry) for entry in recorder.crashes],
        "recovers": [list(entry) for entry in recorder.recovers],
        "pauses": [list(entry) for entry in recorder.pauses],
        "resumes": [list(entry) for entry in recorder.resumes],
        "syncs_ok": recorder.syncs_ok,
        "syncs_failed": recorder.syncs_failed,
        "closed_spans": list(recorder.closed_spans),
    }


def recorder_from_json(document: Mapping[str, Any]) -> RunRecorder:
    """Rebuild a :class:`RunRecorder` from :func:`recorder_to_json` output."""
    recorder = RunRecorder()
    recorder.sent_by_kind = Counter(document.get("sent_by_kind", {}))
    recorder.dropped_by_reason = Counter(document.get("dropped_by_reason", {}))
    recorder.packets_by_kind = Counter(document.get("packets_by_kind", {}))
    recorder.packet_bytes_by_kind = Counter(
        document.get("packet_bytes_by_kind", {}))
    recorder.packets_delivered = document.get("packets_delivered", 0)
    recorder.packet_bytes_delivered = document.get("packet_bytes_delivered", 0)
    recorder.leader_timeline = [tuple(entry) for entry
                                in document.get("leader_timeline", [])]
    recorder.decides = [(time, pid, decode_value(value)) for time, pid, value
                        in document.get("decides", [])]
    recorder.crashes = [tuple(entry) for entry in document.get("crashes", [])]
    recorder.recovers = [tuple(entry)
                         for entry in document.get("recovers", [])]
    recorder.pauses = [tuple(entry) for entry in document.get("pauses", [])]
    recorder.resumes = [tuple(entry) for entry in document.get("resumes", [])]
    recorder.syncs_ok = document.get("syncs_ok", 0)
    recorder.syncs_failed = document.get("syncs_failed", 0)
    recorder.closed_spans = list(document.get("closed_spans", []))
    return recorder


# ----------------------------------------------------------------------
# Shims: the duck-typed surfaces RunReport actually touches
# ----------------------------------------------------------------------

def _merge_recorders(recorders: Iterable[RunRecorder]) -> RunRecorder:
    """Sum many nodes' recorders into one (RunReport reads exactly one)."""
    merged = RunRecorder()
    for recorder in recorders:
        merged.sent_by_kind.update(recorder.sent_by_kind)
        merged.dropped_by_reason.update(recorder.dropped_by_reason)
        merged.packets_by_kind.update(recorder.packets_by_kind)
        merged.packet_bytes_by_kind.update(recorder.packet_bytes_by_kind)
        merged.packets_delivered += recorder.packets_delivered
        merged.packet_bytes_delivered += recorder.packet_bytes_delivered
        merged.leader_timeline.extend(recorder.leader_timeline)
        merged.decides.extend(recorder.decides)
        merged.crashes.extend(recorder.crashes)
        merged.recovers.extend(recorder.recovers)
        merged.pauses.extend(recorder.pauses)
        merged.resumes.extend(recorder.resumes)
        merged.syncs_ok += recorder.syncs_ok
        merged.syncs_failed += recorder.syncs_failed
        merged.closed_spans.extend(recorder.closed_spans)
    return merged


class _PlaneView:
    """A merged network plane: one hub carrying the summed recorder."""

    def __init__(self, recorders: Iterable[RunRecorder],
                 mtu: int | None) -> None:
        self.hub = ObserverHub()
        self.hub.attach(_merge_recorders(recorders))
        self.mtu = mtu


class _ClockView:
    """The merged ``sim`` block: summed events, the cluster horizon."""

    def __init__(self, events_executed: int, now: float,
                 profile: dict[str, int]) -> None:
        self.events_executed = events_executed
        self.now = now
        self._profile = profile

    def profile(self) -> dict[str, int]:
        return self._profile


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------

def analyze_live_run(
        node_reports: Sequence[Mapping[str, Any]]) -> OmegaRunReport:
    """The standard Omega checker over a live cluster's node reports.

    ``node_reports`` holds one dict per node that survived to its
    horizon — nodes SIGKILLed without recovery write none, which is
    exactly the crash-stop "not correct" notion.  The report shape
    matches
    :func:`~repro.core.checker.analyze_omega_run`, so ``.verdict()``
    and every downstream consumer work unchanged.
    """
    by_pid = {report["pid"]: report for report in node_reports}
    correct = tuple(sorted(by_pid))
    final_outputs = {pid: by_pid[pid]["final_leader"] for pid in correct}
    leaders = set(final_outputs.values())
    agreement = len(leaders) == 1 and bool(correct)
    final_leader = leaders.pop() if agreement else None
    leader_is_correct = final_leader in correct if agreement else False
    stabilization: float | None = None
    if agreement and leader_is_correct:
        stabilization = max(by_pid[pid]["leader_history"][-1][0]
                            for pid in correct
                            if by_pid[pid]["leader_history"])
    return OmegaRunReport(
        correct=correct,
        final_outputs=final_outputs,
        agreement=agreement,
        final_leader=final_leader,
        leader_is_correct=leader_is_correct,
        stabilization_time=stabilization,
        changes_by_pid={pid: by_pid[pid].get("leader_changes", 0)
                        for pid in correct},
    )


def consensus_verdict(node_reports: Sequence[Mapping[str, Any]],
                      proposals: Mapping[int, Any]) -> Verdict:
    """Agreement/validity/termination over the nodes' decisions."""
    decisions = {report["pid"]: report.get("decision")
                 for report in node_reports}
    decided = {pid: value for pid, value in decisions.items()
               if value is not None}
    violations = []
    if len(set(decided.values())) > 1:
        violations.append(f"live nodes decided different values: {decided}")
    if decided and not set(decided.values()) <= set(proposals.values()):
        violations.append(
            f"decided value outside the proposals: {decided}")
    undecided = sorted(set(decisions) - set(decided))
    if undecided:
        violations.append(f"correct nodes never decided: {undecided}")
    evidence = {"decisions": {str(pid): value
                              for pid, value in sorted(decisions.items())}}
    if violations:
        return Verdict.failed(*violations, **evidence)
    return Verdict.passed(**evidence)


def _as_id(raw: Any) -> Any:
    """A command id back from its JSON form (lists become tuples)."""
    if isinstance(raw, list):
        return tuple(_as_id(item) for item in raw)
    return raw


def log_verdict(node_reports: Sequence[Mapping[str, Any]],
                submitted_ids: Iterable[Any]) -> Verdict:
    """Safety and liveness over replicated-log node reports.

    Safety: the applied command sequences of every pair of surviving
    nodes must be prefix-consistent (one is a prefix of the other — the
    replicated log's agreement notion; nodes may trail, never diverge).
    Liveness: every submitted command id must be applied on the most
    advanced surviving node by the horizon (trailing nodes catch up via
    the spread phase; a command applied nowhere was lost).
    """
    logs = {report["pid"]: report["log"] for report in node_reports
            if "log" in report}
    if not logs:
        return Verdict.failed("no surviving node carried a log block")
    applied = {pid: [_as_id(item) for item in block.get("applied_ids", [])]
               for pid, block in logs.items()}
    violations = []
    pids = sorted(applied)
    for index, a in enumerate(pids):
        for b in pids[index + 1:]:
            left, right = applied[a], applied[b]
            short, long = (left, right) if len(left) <= len(right) \
                else (right, left)
            if long[:len(short)] != short:
                violations.append(
                    f"applied logs of pids {a} and {b} diverge: "
                    f"{left[:6]}... vs {right[:6]}...")
    expected = {_as_id(item) for item in submitted_ids}
    best = max(applied.values(), key=len, default=[])
    missing = sorted(expected - set(best))
    if missing:
        violations.append(
            f"{len(missing)} of {len(expected)} submitted commands were "
            f"never committed anywhere: {missing[:5]}...")
    evidence = {
        "commit_index": {str(pid): logs[pid].get("commit_index", -1)
                         for pid in pids},
        "applied": {str(pid): len(applied[pid]) for pid in pids},
        "submitted": len(expected),
    }
    if violations:
        return Verdict.failed(*violations, **evidence)
    return Verdict.passed(**evidence)


def live_latencies(
        node_reports: Sequence[Mapping[str, Any]]) -> dict[Any, float]:
    """Merged per-command commit latencies across node reports.

    Each node stamps only the commands submitted *to it* (submit and
    decide read the same node-local clock, so the figures are exact).
    A retried command may carry a stamp on several nodes; the first
    accepted submit is the client-visible one, so the largest span —
    the earliest submit — wins.
    """
    merged: dict[Any, float] = {}
    for report in node_reports:
        for raw_id, latency in report.get("log", {}).get("latencies", []):
            command_id = _as_id(raw_id)
            merged[command_id] = max(merged.get(command_id, 0.0), latency)
    return merged


def latency_block(latencies: Mapping[Any, float]) -> dict[str, float | None]:
    """The ``repro-bench/v1`` percentile block (``latency_s``) of a run.

    Shape-compatible with the sim load rows
    (:class:`repro.load.LoadOutcome`), so ``bench --compare`` diffs
    commit-tail drift across sim and live backends.
    """
    from repro.harness.stats import percentile
    values = sorted(latencies.values())
    if not values:
        return {"p50": None, "p95": None, "p99": None}
    return {
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
    }


# ----------------------------------------------------------------------
# The merged document
# ----------------------------------------------------------------------

def merged_live_report(node_reports: Sequence[Mapping[str, Any]],
                       target: str, params: dict[str, Any],
                       verdict: Verdict, horizon: float,
                       mtu: int | None = None,
                       wall_s: float | None = None) -> dict[str, Any]:
    """Merge node reports into one schema-valid ``repro-report/v1`` dict.

    Each node report carries a ``planes`` mapping (plane label →
    serialized recorder); nodes sharing a label merge onto one plane
    block.  The document itself is rendered by the standard
    :class:`~repro.obs.report.RunReport`, so schema changes there flow
    through to live reports automatically.
    """
    plane_recorders: dict[str, list[RunRecorder]] = {}
    for report in node_reports:
        for label, dump in report.get("planes", {}).items():
            plane_recorders.setdefault(label, []).append(
                recorder_from_json(dump))
    planes = [(label, _PlaneView(recorders, mtu))
              for label, recorders in sorted(plane_recorders.items())]
    events = sum(report.get("clock", {}).get("events_executed", 0)
                 for report in node_reports)
    profile: Counter[str] = Counter()
    for report in node_reports:
        profile.update(report.get("clock", {}).get("profile", {}))
    clock_view = _ClockView(events, horizon, dict(profile))
    report = RunReport("scenario", target, params, verdict, clock_view,
                       planes, wall_s=wall_s)
    document = report.to_json()
    document["params"] = dict(document["params"], backend="live-udp")
    return document
