"""Live-run reporting: the node-report codec, the merged report, adapters.

A live cluster is many OS processes, each carrying its own
:class:`~repro.obs.report.RunRecorder`(s); nothing holds the whole run
in one address space.  This module closes that gap:

* :func:`recorder_to_json` / :func:`recorder_from_json` round-trip a
  recorder through the node report file each node writes at its
  horizon;
* :func:`merged_live_report` merges the recorders of every node onto
  shim "plane" hubs and feeds them through the **existing**
  :class:`~repro.obs.report.RunReport` builder, so the live document is
  produced by the same code path (and validated by the same
  :func:`~repro.obs.report.validate_report`) as a sim report;
* :func:`analyze_live_run`, :func:`consensus_verdict` and
  :func:`log_verdict` read per-pid facts out of node reports and hand
  them to the sim checkers' ``from_facts`` constructors, so both
  backends share one judge per property.  They import the checkers on
  first use: a node imports this module for its report codec alone.

Clock caveat: each node's times are seconds since *its* boot.  Nodes of
one cluster boot within the spawn stagger of each other (tens of
milliseconds on localhost), so merged timelines are approximately —
not exactly — aligned; verdicts never depend on cross-node time
comparisons, only on per-node final states.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.obs.observer import ObserverHub
from repro.obs.report import RunRecorder, RunReport
from repro.obs.verdict import Verdict
from repro.sim.packets import DEFAULT_MTU
from repro.wire import decode_value, encode_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.checker import OmegaRunReport

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


#: Per :attr:`RunRecorder.FIELDS` group: (to JSON, back from JSON).
#: Event tuples travel as JSON arrays; span dicts stay dicts.
_CODEC = {
    "counters": (dict, Counter),
    "totals": (int, int),
    "events": (list, lambda entries: [
        tuple(entry) if isinstance(entry, list) else entry
        for entry in entries]),
}


def recorder_to_json(recorder: RunRecorder) -> dict[str, Any]:
    """Serialize a :class:`RunRecorder` for a node report file."""
    document = {name: _CODEC[group][0](getattr(recorder, name))
                for group, names in RunRecorder.FIELDS.items()
                for name in names}
    # Decided values travel as the hex of their wire encoding: a log
    # decide is ``(instance, entry)`` and a batched entry is a ``Batch``
    # dataclass, which plain JSON cannot carry.
    document["decides"] = [[time, pid, encode_value(value).hex()]
                           for time, pid, value in recorder.decides]
    return document


def recorder_from_json(document: Mapping[str, Any]) -> RunRecorder:
    """Rebuild a :class:`RunRecorder` from :func:`recorder_to_json` output."""
    recorder = RunRecorder()
    for group, names in RunRecorder.FIELDS.items():
        for name in names:
            if name in document:
                setattr(recorder, name, _CODEC[group][1](document[name]))
    recorder.decides = [(time, pid, decode_value(bytes.fromhex(value)))
                        for time, pid, value in document.get("decides", [])]
    return recorder


# ----------------------------------------------------------------------
# Shims: the duck-typed surfaces RunReport actually touches
# ----------------------------------------------------------------------

class _PlaneView:
    """A merged network plane: one hub carrying the summed recorder."""

    #: Every node transport counts packets at the default MTU.
    mtu = DEFAULT_MTU

    def __init__(self, recorders: Iterable[RunRecorder]) -> None:
        self.hub = ObserverHub()
        self.hub.attach(RunRecorder().merge(*recorders))


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
# Verdicts: node-report extractors for the sim checkers
# ----------------------------------------------------------------------

def analyze_live_run(
        node_reports: Sequence[Mapping[str, Any]]) -> OmegaRunReport:
    """The standard Omega judge over a live cluster's node reports.

    ``node_reports`` holds one dict per node that survived to its
    horizon — nodes SIGKILLed without recovery write none, which is
    exactly the crash-stop "not correct" notion.
    """
    from repro.core.checker import OmegaRunReport

    by_pid = {report["pid"]: report for report in node_reports}
    correct = sorted(by_pid)
    return OmegaRunReport.from_facts(
        correct,
        {pid: by_pid[pid]["final_leader"] for pid in correct},
        {pid: by_pid[pid]["leader_history"][-1][0] for pid in correct
         if by_pid[pid]["leader_history"]},
        {pid: by_pid[pid].get("leader_changes", 0) for pid in correct})


def consensus_verdict(node_reports: Sequence[Mapping[str, Any]],
                      proposals: Mapping[int, Any]) -> Verdict:
    """The standard single-decree judge over the nodes' decisions."""
    from repro.consensus.checker import SingleDecreeReport

    decided = {report["pid"]: report for report in node_reports
               if report.get("decision") is not None}
    return SingleDecreeReport.from_facts(
        sorted(report["pid"] for report in node_reports),
        proposals.values(),
        {pid: report["decision"] for pid, report in decided.items()},
        {pid: report["decision_time"] for pid, report in decided.items()},
    ).verdict()


def _as_id(raw: Any) -> Any:
    """A command id back from its JSON form (lists become tuples)."""
    if isinstance(raw, list):
        return tuple(_as_id(item) for item in raw)
    return raw


def log_verdict(node_reports: Sequence[Mapping[str, Any]],
                submitted_ids: Iterable[Any]) -> Verdict:
    """The standard replicated-log judge over the nodes' applied ids.

    Each node's applied-id sequence is its committed log, every id its
    own command: the sequences must be prefix-consistent and every id
    submitted.  One live-only clause rides along, the analogue of the
    sim workload's ``done()``: every submitted id must be applied on
    the most advanced node by the horizon (trailing nodes catch up via
    the spread phase; a command applied nowhere was lost).
    """
    from repro.consensus.checker import LogReport

    applied = {report["pid"]: [_as_id(item) for item
                               in report["log"].get("applied_ids", [])]
               for report in node_reports if "log" in report}
    expected = {_as_id(item) for item in submitted_ids}
    verdict = LogReport.from_facts(
        sorted(report["pid"] for report in node_reports), applied,
        lambda command_id: (command_id,), expected).verdict()
    best = max(applied.values(), key=len, default=[])
    missing = sorted(expected - set(best))
    if missing:
        verdict = verdict.merge(Verdict.failed(
            f"{len(missing)} of {len(expected)} submitted commands were "
            f"never committed anywhere: {missing[:5]}..."))
    return verdict


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
    planes = [(label, _PlaneView(recorders))
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
