"""Versioned run reports: one document for any scenario, bench case, or soak run.

A report answers the paper's observational questions for a single run —
who led when (leader timeline), what each protocol phase cost on the
wire (per-phase message budget, following the packet-accounting
methodology of Bramas et al., see PAPERS.md), which links were busy at
the end (census), how the links *behaved* versus how they were
configured (:class:`~repro.obs.timeliness.TimelinessInspector`), and
what the kernel did to get there (profiling counters).

Layout (``repro-report/v1``)
----------------------------
``schema``
    Literal ``"repro-report/v1"``; bump on breaking changes.
``kind`` / ``target`` / ``params``
    What ran: ``"scenario" | "bench" | "soak"``, its canonical one-line
    identity, and the parameters it ran under.
``verdict``
    The run's :class:`~repro.obs.verdict.Verdict` as
    ``{ok, violations, evidence}``.
``sim``
    ``events_executed``, ``sim_time_s``, and the kernel ``profile``
    block (heap pushes/pops, tombstone pops, compactions).
``leader_timeline``
    Every Omega output change: ``[{time, pid, leader}, ...]``.
``decides`` / ``crashes``
    Consensus decisions and process crashes, time-ordered.
``recoveries``
    Process recoveries and stable-storage activity: total ``count``,
    the time-ordered ``events`` (``{time, pid, incarnation}``), the
    per-process incarnation ``timelines``, and the ``storage`` sync
    tally (``syncs_ok`` / ``syncs_failed``).  A consensus node's two
    layers recover as two processes, so — exactly like ``crashes`` —
    one node reboot contributes one event per observed layer.
``spans``
    Per span name: count, total/mean/max duration, still-open count —
    election epochs and ballot phases.
``networks``
    One block per network (failure-detector and agreement planes are
    separate): ``message_budget`` (total, by kind, by protocol phase),
    ``packets`` (the per-packet budget: bytes of the :mod:`repro.wire`
    encoding and MTU-sized packets, sent and delivered, by kind),
    ``busy_links`` (trailing-window census), and ``timeliness``
    (per-link classification plus ``matches_topology``).
``workload``
    Optional, additive (absent unless the run drove client load):
    replica-side backpressure counters — commands ``shed`` at bounded
    leader queues, the queue high-water mark, and the slot batch-size
    histogram; ``persist=True`` runs add ``retransmits_sent`` /
    ``retransmits_gated``, the driver sends the retransmission backoff
    gate admitted and suppressed.
``meta``
    Wall-clock and timestamp — the only nondeterministic block,
    omitted when unavailable.

Everything outside ``meta`` is deterministic in the run's inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields, is_dataclass
from typing import Any, Iterable, Sequence

from repro.obs.observer import Observer, capture
from repro.obs.timeliness import (
    TimelinessInspector,
    classification_matches,
    expected_link_classes,
)
from repro.obs.verdict import Verdict

__all__ = [
    "REPORT_SCHEMA",
    "PHASE_OF_KIND",
    "RunRecorder",
    "RunReport",
    "scenario_report",
    "bench_case_report",
    "soak_case_report",
    "validate_report",
    "render_report_text",
]

REPORT_SCHEMA = "repro-report/v1"
"""Version tag of the report document layout; bump on breaking changes."""

#: ``workload`` keys a ``persist=True`` run adds (docs/LOAD.md).
_RETRANSMIT_KEYS = ("retransmits_sent", "retransmits_gated")

#: Protocol phase each message kind belongs to, for the per-phase budget.
#: Kinds outside the table land in "other" (forward-compatible: new
#: message types degrade gracefully instead of breaking the schema).
PHASE_OF_KIND = {
    "Heartbeat": "steady-state",
    "Alive": "steady-state",
    "BatchedAlive": "steady-state",
    "Beat": "steady-state",
    "FsAlive": "steady-state",
    "Relay": "steady-state",
    "Suspect": "accusation",
    "Accusation": "accusation",
    "Prepare": "ballot.prepare",
    "Promise": "ballot.prepare",
    "Nack": "ballot.prepare",
    "Propose": "ballot.propose",
    "Accepted": "ballot.propose",
    "Decide": "decide",
    "DecideAck": "decide",
    "Decides": "decide",
    "DecideAcks": "decide",
    "Forward": "forward",
    "Forwards": "forward",
    "SnapshotOffer": "snapshot",
    "SnapshotAck": "snapshot",
}


def _json_value(value: Any) -> Any:
    """Project a decided value into JSON-serializable form.

    Decided values are protocol payloads: plain strings most of the
    time, but multi-command ``Batch`` dataclasses under batching.
    Dataclasses become ``{field: ...}`` dicts (deterministic field
    order), sequences recurse, and anything else falls back to
    ``repr`` so the document never fails to serialize.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {spec.name: _json_value(getattr(value, spec.name))
                for spec in fields(value)}
    return repr(value)


class RunRecorder(Observer):
    """Observer that collects the raw material of a :class:`RunReport`.

    Attach one per network (the :func:`~repro.obs.observer.capture`
    context does this automatically); the report builder merges the
    recorders of all networks of a system.  Event lists hold tuples:
    ``leader_timeline`` ``(time, pid, leader)``, ``decides`` ``(time,
    pid, value)``, ``recovers`` ``(time, pid, incarnation)``, and
    ``crashes`` / ``pauses`` / ``resumes`` ``(time, pid)``;
    ``closed_spans`` holds one dict per finished span.
    """

    #: Every recorded field, grouped by how two recorders combine in
    #: :meth:`merge`: counters add per key, totals add, event lists
    #: concatenate.  The live node-report codec walks the same table.
    FIELDS = {
        "counters": ("sent_by_kind", "dropped_by_reason",
                     "packets_by_kind", "packet_bytes_by_kind"),
        "totals": ("packets_delivered", "packet_bytes_delivered",
                   "syncs_ok", "syncs_failed"),
        "events": ("leader_timeline", "decides", "crashes", "recovers",
                   "pauses", "resumes", "closed_spans"),
    }

    def __init__(self) -> None:
        for group, empty in (("counters", Counter), ("totals", int),
                             ("events", list)):
            for name in self.FIELDS[group]:
                setattr(self, name, empty())
        self._open_spans: dict[tuple[int, str], tuple[float, Any]] = {}

    def merge(self, *others: "RunRecorder") -> "RunRecorder":
        """A new recorder holding this one's records plus ``others``'.

        Open spans stay behind: a merged recorder reports what the runs
        finished, which is all a report reads of many recorders.
        """
        merged = RunRecorder()
        for recorder in (self, *others):
            for name in self.FIELDS["counters"]:
                getattr(merged, name).update(getattr(recorder, name))
            for name in self.FIELDS["totals"]:
                setattr(merged, name,
                        getattr(merged, name) + getattr(recorder, name))
            for name in self.FIELDS["events"]:
                getattr(merged, name).extend(getattr(recorder, name))
        return merged

    # -- observer hooks -------------------------------------------------

    def on_send(self, time: float, src: int, dst: int, kind: str) -> None:
        """Count the message toward the per-kind (and hence per-phase) budget."""
        self.sent_by_kind[kind] += 1

    def on_drop(self, time: float, src: int, dst: int, kind: str,
                reason: str) -> None:
        """Count the drop by reason."""
        self.dropped_by_reason[reason] += 1

    def on_packet_send(self, time: float, src: int, dst: int, kind: str,
                       size: int, packets: int) -> None:
        """Tally the send's wire cost (bytes and MTU packets)."""
        self.packets_by_kind[kind] += packets
        self.packet_bytes_by_kind[kind] += size

    def on_packet_deliver(self, time: float, src: int, dst: int, kind: str,
                          size: int, packets: int) -> None:
        """Tally the delivered wire cost (duplicates count per copy)."""
        self.packets_delivered += packets
        self.packet_bytes_delivered += size

    def packets_block(self, mtu: int | None) -> dict[str, Any]:
        """The ``packets`` block of a report network (or an e17 row)."""
        packets, sizes = self.packets_by_kind, self.packet_bytes_by_kind
        return {"mtu": mtu, "sent": sum(packets.values()),
                "bytes_sent": sum(sizes.values()),
                "by_kind": {kind: {"packets": packets[kind],
                                   "bytes": sizes[kind]}
                            for kind in sorted(packets)},
                "delivered": self.packets_delivered,
                "bytes_delivered": self.packet_bytes_delivered}

    def on_crash(self, time: float, pid: int) -> None:
        """Record the crash instant."""
        self.crashes.append((time, pid))

    def on_recover(self, time: float, pid: int, incarnation: int) -> None:
        """Record the recovery and the incarnation it came back as."""
        self.recovers.append((time, pid, incarnation))

    def on_sync(self, time: float, pid: int, keys: tuple, ok: bool) -> None:
        """Tally the stable-storage sync outcome."""
        if ok:
            self.syncs_ok += 1
        else:
            self.syncs_failed += 1

    def on_pause(self, time: float, pid: int) -> None:
        """Record the pause instant."""
        self.pauses.append((time, pid))

    def on_resume(self, time: float, pid: int) -> None:
        """Record the resume instant."""
        self.resumes.append((time, pid))

    def on_leader_change(self, time: float, pid: int, leader: int) -> None:
        """Append to the leader timeline."""
        self.leader_timeline.append((time, pid, leader))

    def on_decide(self, time: float, pid: int, value: Any) -> None:
        """Record the decision."""
        self.decides.append((time, pid, value))

    def on_span_begin(self, time: float, pid: int, name: str,
                      detail: Any) -> None:
        """Open the span; a re-begin without an end replaces the open one."""
        self._open_spans[(pid, name)] = (time, detail)

    def on_span_end(self, time: float, pid: int, name: str,
                    detail: Any) -> None:
        """Close the matching open span; unmatched ends are tolerated."""
        opened = self._open_spans.pop((pid, name), None)
        if opened is None:
            return
        start, begin_detail = opened
        self.closed_spans.append({
            "pid": pid, "name": name, "start": start, "end": time,
            "detail": detail if detail is not None else begin_detail,
        })

    # -- queries --------------------------------------------------------

    @property
    def open_spans(self) -> dict[tuple[int, str], tuple[float, Any]]:
        """Spans begun but not yet ended, keyed by ``(pid, name)``."""
        return dict(self._open_spans)


def _span_summary(recorders: Sequence[RunRecorder]) -> dict[str, Any]:
    """Aggregate span durations by name across recorders."""
    by_name: dict[str, list[float]] = {}
    open_by_name: Counter[str] = Counter()
    for recorder in recorders:
        for span in recorder.closed_spans:
            by_name.setdefault(span["name"], []).append(
                span["end"] - span["start"])
        for (_pid, name) in recorder.open_spans:
            open_by_name[name] += 1
    summary: dict[str, Any] = {}
    for name in sorted(set(by_name) | set(open_by_name)):
        durations = by_name.get(name, [])
        summary[name] = {
            "count": len(durations),
            "open": open_by_name.get(name, 0),
            "total_s": round(sum(durations), 6),
            "mean_s": round(sum(durations) / len(durations), 6)
            if durations else None,
            "max_s": round(max(durations), 6) if durations else None,
        }
    return summary


def _phase_budget(sent_by_kind: Counter) -> dict[str, int]:
    """Fold a per-kind counter into the per-phase message budget."""
    budget: Counter[str] = Counter()
    for kind, count in sent_by_kind.items():
        budget[PHASE_OF_KIND.get(kind, "other")] += count
    return {phase: budget[phase] for phase in sorted(budget)}


class RunReport:
    """Aggregator turning one finished, observed run into a report document.

    Parameters
    ----------
    kind:
        What produced the run: ``"scenario"``, ``"bench"`` or ``"soak"``.
    target:
        Canonical one-line identity (scenario summary, bench case id,
        soak repro line).
    params:
        The run's parameters, JSON-serialisable.
    verdict:
        The run's :class:`~repro.obs.verdict.Verdict`.
    sim:
        The simulation kernel the run executed on.
    networks:
        ``(label, network)`` pairs — each network contributes a block
        with its own budget, census and timeliness classification.
    census_window:
        Width (simulated seconds) of the trailing busy-link census.
    wall_s:
        Optional wall-clock of the run; lands in ``meta``.
    workload:
        Optional backpressure counters (shed, queue high-water,
        batch-size histogram) from a client-load run; lands in the
        additive ``workload`` block.
    """

    def __init__(self, kind: str, target: str, params: dict[str, Any],
                 verdict: Verdict, sim: Any,
                 networks: Sequence[tuple[str, Any]],
                 census_window: float = 20.0,
                 wall_s: float | None = None,
                 workload: dict[str, Any] | None = None) -> None:
        if kind not in ("scenario", "bench", "soak"):
            raise ValueError(f"unknown report kind {kind!r}")
        self.kind = kind
        self.target = target
        self.params = params
        self.verdict = verdict
        self.sim = sim
        self.networks = list(networks)
        self.census_window = census_window
        self.wall_s = wall_s
        self.workload = workload

    def _recorders(self) -> list[RunRecorder]:
        out = []
        for _label, network in self.networks:
            out.extend(network.hub.of_type(RunRecorder))
        return out

    def _network_block(self, label: str, network: Any) -> dict[str, Any]:
        recorder = network.hub.first(RunRecorder) or RunRecorder()
        sent_by_kind = recorder.sent_by_kind
        block: dict[str, Any] = {
            "label": label,
            "message_budget": {
                "total": sum(sent_by_kind.values()),
                "by_kind": {k: sent_by_kind[k]
                            for k in sorted(sent_by_kind)},
                "by_phase": _phase_budget(sent_by_kind),
                "dropped_by_reason": dict(sorted(
                    recorder.dropped_by_reason.items())),
            },
            "packets": recorder.packets_block(getattr(network, "mtu", None)),
        }
        # Duck-typed: any network built through Cluster/ConsensusSystem
        # carries a MetricsCollector; a deliberately bare one may not.
        metrics = None
        for observer in network.hub.observers:
            if hasattr(observer, "links_between"):
                metrics = observer
                break
        end = self.sim.now
        start = max(0.0, end - self.census_window)
        if metrics is not None:
            block["busy_links"] = {
                "window_s": self.census_window,
                "senders": sorted(metrics.senders_between(start, end)),
                "links": [f"{src}->{dst}" for src, dst in
                          sorted(metrics.links_between(start, end))],
                "messages": metrics.messages_between(start, end),
            }
        inspector = network.hub.first(TimelinessInspector)
        if inspector is not None:
            expected = expected_link_classes(network)
            observed = inspector.classification()
            block["timeliness"] = {
                **inspector.to_json(),
                "matches_topology": all(
                    classification_matches(observed[key],
                                           expected.get(key, "unknown"))
                    for key in observed),
            }
        return block

    def to_json(self) -> dict[str, Any]:
        """Render the full ``repro-report/v1`` document as a dict."""
        recorders = self._recorders()
        merged = RunRecorder().merge(*recorders)
        timeline = sorted(merged.leader_timeline)
        decides = sorted(merged.decides,
                         key=lambda event: (event[0], event[1]))
        crashes = sorted(merged.crashes)
        recovers = sorted(merged.recovers)
        timelines: dict[int, list[dict[str, Any]]] = {}
        for (t, pid, incarnation) in recovers:
            timelines.setdefault(pid, []).append(
                {"time": round(t, 6), "incarnation": incarnation})
        document: dict[str, Any] = {
            "schema": REPORT_SCHEMA,
            "kind": self.kind,
            "target": self.target,
            "params": self.params,
            "verdict": self.verdict.to_json(),
            "sim": {
                "events_executed": self.sim.events_executed,
                "sim_time_s": self.sim.now,
                "profile": self.sim.profile()
                if hasattr(self.sim, "profile") else {},
            },
            "leader_timeline": [
                {"time": round(t, 6), "pid": pid, "leader": leader}
                for (t, pid, leader) in timeline],
            "decides": [
                {"time": round(t, 6), "pid": pid, "value": _json_value(value)}
                for (t, pid, value) in decides],
            "crashes": [{"time": round(t, 6), "pid": pid}
                        for (t, pid) in crashes],
            "recoveries": {
                "count": len(recovers),
                "events": [
                    {"time": round(t, 6), "pid": pid,
                     "incarnation": incarnation}
                    for (t, pid, incarnation) in recovers],
                "timelines": {str(pid): events
                              for pid, events in sorted(timelines.items())},
                "storage": {
                    "syncs_ok": merged.syncs_ok,
                    "syncs_failed": merged.syncs_failed,
                },
            },
            "spans": _span_summary(recorders),
            "networks": [self._network_block(label, network)
                         for label, network in self.networks],
        }
        if self.workload:
            document["workload"] = dict(self.workload)
        if self.wall_s is not None:
            import datetime as _datetime
            document["meta"] = {
                "wall_s": self.wall_s,
                "created_utc": _datetime.datetime.now(
                    _datetime.timezone.utc).isoformat(),
            }
        return document

    def render_text(self) -> str:
        """Human-readable rendering of :meth:`to_json`."""
        return render_report_text(self.to_json())


# ----------------------------------------------------------------------
# Builders: one per run source.  Heavy repro imports stay local so that
# importing repro.obs never drags the sim/harness stack in (and cannot
# create an import cycle through repro.sim.network).
# ----------------------------------------------------------------------

def scenario_report(scenario: Any, wall_s: float | None = None) -> RunReport:
    """Run an :class:`~repro.harness.scenarios.OmegaScenario`, observed.

    The scenario executes under a :func:`~repro.obs.observer.capture` of
    a :class:`RunRecorder` and a
    :class:`~repro.obs.timeliness.TimelinessInspector`, so the run is
    identical to an unobserved one; the report's verdict is the Omega
    checker's, with the communication census as extra evidence.
    """
    from repro.core.checker import communication_report

    with capture(RunRecorder, TimelinessInspector):
        outcome = scenario.run()
    cluster = outcome.cluster
    comm = communication_report(cluster, scenario.ce_window)
    verdict = outcome.report.verdict().merge(Verdict.passed(
        communication_efficient=outcome.communication_efficient,
        senders_final_window=sorted(comm.senders),
        links_final_window=len(comm.links),
    ))
    target = (f"omega/{scenario.algorithm}@{scenario.system} "
              f"n={scenario.n} seed={scenario.seed}")
    params = {
        "algorithm": scenario.algorithm, "system": scenario.system,
        "n": scenario.n, "source": scenario.source,
        "targets": list(scenario.targets), "seed": scenario.seed,
        "horizon": scenario.horizon, "faults": scenario.faults,
    }
    return RunReport("scenario", target, params, verdict, cluster.sim,
                     [("cluster", cluster.network)],
                     census_window=scenario.ce_window, wall_s=wall_s)


def bench_case_report(case: Any, wall_s: float | None = None) -> RunReport:
    """Run one :class:`~repro.harness.bench.BenchCase`, observed.

    Uses the bench module's own experiment runners, so the verdict and
    all result details match what ``repro bench`` would report for the
    same case.
    """
    from repro.harness import bench

    with capture(RunRecorder, TimelinessInspector):
        verdict, details, cluster = bench._RUNNERS[case.experiment](
            **case.params)
    verdict = verdict.merge(Verdict.passed(**details))
    networks = [("cluster", network) for network in cluster.networks]
    # E19 load rows carry replica-side backpressure counters (batching
    # rows nest the measured side under "batched").
    measured = details if "queue" in details else details.get("batched") or {}
    workload = measured.get("queue")
    if workload and "retransmits_sent" in measured:
        workload = {**workload,
                    **{key: measured[key] for key in _RETRANSMIT_KEYS}}
    return RunReport("bench", case.case_id, dict(case.params), verdict,
                     cluster.sim, networks, wall_s=wall_s,
                     workload=workload)


def soak_case_report(case: Any, wall_s: float | None = None) -> RunReport:
    """Run one :class:`~repro.harness.soak.SoakCase`, observed.

    The soak harness builds its cluster or consensus system internally;
    the capture context is how the report reaches inside.  A
    ``model-violation`` case still yields a report (its verdict passes
    vacuously, with the violation listed as evidence).
    """
    from repro.harness.soak import run_soak_case

    with capture(RunRecorder, TimelinessInspector) as cap:
        result = run_soak_case(case)
    if result.status == "fail":
        verdict = Verdict.failed(result.detail, status=result.status)
    else:
        verdict = Verdict.passed(status=result.status, detail=result.detail)
    if not cap.networks:
        raise RuntimeError(
            f"soak case {case.index} built no network "
            f"(status={result.status}); nothing to report on")
    sim = cap.networks[0].sim
    labels = (["fd", "agreement"] if len(cap.networks) == 2
              else [f"net{i}" for i in range(len(cap.networks))])
    if len(cap.networks) == 1:
        labels = ["cluster"]
    networks = list(zip(labels, cap.networks))
    return RunReport("soak", result.case.describe(), {
        "index": case.index, "kind": case.kind,
        "algorithm": case.algorithm, "system": case.system,
        "n": case.n, "seed": case.seed, "outcome": result.outcome,
    }, verdict, sim, networks, wall_s=wall_s)


# ----------------------------------------------------------------------
# Validation and text rendering
# ----------------------------------------------------------------------

_TOP_LEVEL = {
    "schema": str, "kind": str, "target": str, "params": dict,
    "verdict": dict, "sim": dict, "leader_timeline": list,
    "decides": list, "crashes": list, "recoveries": dict, "spans": dict,
    "networks": list,
}


def validate_report(document: dict[str, Any]) -> list[str]:
    """Check a report document against ``repro-report/v1``.

    Returns a list of problems (empty means valid).  Hand-rolled on
    purpose: the repository takes no dependency on a JSON-schema
    library, and the checks below are exactly what CI's report smoke
    step needs — required keys, types, and cross-field consistency.
    """
    problems: list[str] = []
    if document.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, "
                        f"expected {REPORT_SCHEMA!r}")
    for key, expected_type in _TOP_LEVEL.items():
        if key not in document:
            problems.append(f"missing top-level key {key!r}")
        elif not isinstance(document[key], expected_type):
            problems.append(f"{key!r} must be {expected_type.__name__}, "
                            f"got {type(document[key]).__name__}")
    if problems:
        return problems
    workload = document.get("workload", {})
    if not isinstance(workload, dict):
        problems.append("workload must be dict when present")
    else:
        for key in _RETRANSMIT_KEYS:
            count = workload.get(key, 0)
            if not isinstance(count, int) or count < 0:
                problems.append(f"workload.{key} must be a non-negative int")
    if document["kind"] not in ("scenario", "bench", "soak"):
        problems.append(f"kind {document['kind']!r} not one of "
                        "scenario/bench/soak")
    verdict = document["verdict"]
    for key, expected_type in (("ok", bool), ("violations", list),
                               ("evidence", dict)):
        if not isinstance(verdict.get(key), expected_type):
            problems.append(f"verdict.{key} must be {expected_type.__name__}")
    if verdict.get("ok") is False and not verdict.get("violations"):
        problems.append("failing verdict carries no violations")
    sim = document["sim"]
    if not isinstance(sim.get("events_executed"), int):
        problems.append("sim.events_executed must be int")
    if not isinstance(sim.get("sim_time_s"), (int, float)):
        problems.append("sim.sim_time_s must be a number")
    if not isinstance(sim.get("profile"), dict):
        problems.append("sim.profile must be dict")
    for index, entry in enumerate(document["leader_timeline"]):
        if set(entry) != {"time", "pid", "leader"}:
            problems.append(f"leader_timeline[{index}] keys {sorted(entry)}")
            break
    recoveries = document["recoveries"]
    for key, expected_type in (("count", int), ("events", list),
                               ("timelines", dict), ("storage", dict)):
        if not isinstance(recoveries.get(key), expected_type):
            problems.append(
                f"recoveries.{key} must be {expected_type.__name__}")
    if isinstance(recoveries.get("events"), list):
        if recoveries.get("count") != len(recoveries["events"]):
            problems.append("recoveries.count != len(recoveries.events)")
        for index, entry in enumerate(recoveries["events"]):
            if set(entry) != {"time", "pid", "incarnation"}:
                problems.append(
                    f"recoveries.events[{index}] keys {sorted(entry)}")
                break
    storage = recoveries.get("storage")
    if isinstance(storage, dict):
        for key in ("syncs_ok", "syncs_failed"):
            if not isinstance(storage.get(key), int):
                problems.append(f"recoveries.storage.{key} must be int")
    for index, block in enumerate(document["networks"]):
        where = f"networks[{index}]"
        if "label" not in block or "message_budget" not in block:
            problems.append(f"{where} missing label/message_budget")
            continue
        budget = block["message_budget"]
        for key in ("total", "by_kind", "by_phase", "dropped_by_reason"):
            if key not in budget:
                problems.append(f"{where}.message_budget missing {key!r}")
        if (isinstance(budget.get("by_kind"), dict)
                and budget.get("total") != sum(budget["by_kind"].values())):
            problems.append(f"{where} budget total != sum of by_kind")
        if (isinstance(budget.get("by_phase"), dict)
                and budget.get("total") != sum(budget["by_phase"].values())):
            problems.append(f"{where} budget total != sum of by_phase")
        packets = block.get("packets")
        if not isinstance(packets, dict):
            problems.append(f"{where} missing packets block")
        else:
            for key in ("sent", "bytes_sent", "delivered",
                        "bytes_delivered"):
                if not isinstance(packets.get(key), int):
                    problems.append(f"{where}.packets.{key} must be int")
            by_kind = packets.get("by_kind")
            if not isinstance(by_kind, dict):
                problems.append(f"{where}.packets.by_kind must be dict")
            else:
                for kind, stats in by_kind.items():
                    if (not isinstance(stats, dict)
                            or not isinstance(stats.get("packets"), int)
                            or not isinstance(stats.get("bytes"), int)):
                        problems.append(
                            f"{where}.packets.by_kind[{kind!r}] needs int "
                            "packets/bytes")
                        break
                else:
                    if packets.get("sent") != sum(
                            stats["packets"] for stats in by_kind.values()):
                        problems.append(
                            f"{where}.packets.sent != sum of by_kind")
                    if packets.get("bytes_sent") != sum(
                            stats["bytes"] for stats in by_kind.values()):
                        problems.append(
                            f"{where}.packets.bytes_sent != sum of by_kind")
            if (isinstance(packets.get("sent"), int)
                    and isinstance(packets.get("bytes_sent"), int)
                    and packets["sent"] == 0 and packets["bytes_sent"] > 0):
                problems.append(f"{where}.packets has bytes but no packets")
        timeliness = block.get("timeliness")
        if timeliness is not None:
            if "matches_topology" not in timeliness:
                problems.append(f"{where}.timeliness missing matches_topology")
            for link, stats in timeliness.get("links", {}).items():
                if stats.get("class") not in ("timely", "eventually-timely",
                                              "lossy", "insufficient-data"):
                    problems.append(
                        f"{where}.timeliness link {link} has bad class "
                        f"{stats.get('class')!r}")
    return problems


def render_report_text(document: dict[str, Any]) -> str:
    """Render a report document as the CLI's human-readable text form."""
    from repro.harness import render_table

    lines: list[str] = []
    verdict = document["verdict"]
    lines.append(f"run report  [{document['schema']}]")
    lines.append(f"  {document['kind']}: {document['target']}")
    lines.append(f"  verdict: {'OK' if verdict['ok'] else 'FAIL'}")
    for violation in verdict["violations"]:
        lines.append(f"    violation: {violation}")
    sim = document["sim"]
    lines.append(f"  events={sim['events_executed']:,}  "
                 f"sim_time={sim['sim_time_s']:g}s")
    profile = sim.get("profile") or {}
    if profile:
        lines.append("  kernel: " + "  ".join(
            f"{key}={value:,}" for key, value in sorted(profile.items())))
    recoveries = document.get("recoveries") or {}
    if recoveries.get("count") or recoveries.get("storage", {}).get(
            "syncs_ok") or recoveries.get("storage", {}).get("syncs_failed"):
        storage = recoveries.get("storage", {})
        finals = ", ".join(
            f"pid {pid}→{events[-1]['incarnation']}"
            for pid, events in recoveries.get("timelines", {}).items())
        lines.append(f"  recoveries: {recoveries.get('count', 0)}"
                     + (f" ({finals})" if finals else "")
                     + f"  storage syncs ok={storage.get('syncs_ok', 0)}"
                     f" failed={storage.get('syncs_failed', 0)}")

    workload = document.get("workload")
    if workload:
        sizes = workload.get("batch_sizes") or {}
        histogram = "  ".join(f"{size}×{count}"
                              for size, count in sizes.items())
        lines.append(f"  workload: shed={workload.get('shed', 0)}  "
                     f"max_queue_depth={workload.get('max_queue_depth', 0)}"
                     + (f"  batch sizes: {histogram}" if histogram else ""))
        if "retransmits_sent" in workload:
            lines.append(f"  retransmits: sent={workload['retransmits_sent']}"
                         f"  gated={workload.get('retransmits_gated', 0)}")

    timeline = document["leader_timeline"]
    if timeline:
        rows = [[entry["time"], entry["pid"], entry["leader"]]
                for entry in timeline[-12:]]
        title = "leader timeline"
        if len(timeline) > 12:
            title += f" (last 12 of {len(timeline)})"
        lines.append("")
        lines.append(render_table(["time (s)", "process", "trusts"], rows,
                                  title=title))

    if document["decides"]:
        lines.append("")
        lines.append(render_table(
            ["time (s)", "process", "value"],
            [[d["time"], d["pid"], repr(d["value"])]
             for d in document["decides"][:12]],
            title=f"decisions ({len(document['decides'])})"))

    if document["spans"]:
        lines.append("")
        lines.append(render_table(
            ["span", "count", "open", "mean (s)", "max (s)"],
            [[name, stats["count"], stats["open"], stats["mean_s"],
              stats["max_s"]]
             for name, stats in document["spans"].items()],
            title="protocol spans"))

    for block in document["networks"]:
        budget = block["message_budget"]
        lines.append("")
        lines.append(render_table(
            ["phase", "messages"],
            [[phase, count] for phase, count in budget["by_phase"].items()],
            title=f"message budget: {block['label']} "
                  f"(total {budget['total']:,})"))
        packets = block.get("packets")
        if packets and packets.get("sent"):
            lines.append(f"  packets (mtu {packets.get('mtu')}): "
                         f"sent={packets['sent']:,} "
                         f"({packets['bytes_sent']:,} B)  "
                         f"delivered={packets['delivered']:,} "
                         f"({packets['bytes_delivered']:,} B)")
        census = block.get("busy_links")
        if census:
            lines.append(f"  busy links (last {census['window_s']:g}s): "
                         f"{len(census['links'])} links, "
                         f"senders={census['senders']}, "
                         f"messages={census['messages']}")
        timeliness = block.get("timeliness")
        if timeliness:
            counts = Counter(stats["class"]
                             for stats in timeliness["links"].values())
            summary = ", ".join(f"{cls}={counts[cls]}"
                                for cls in sorted(counts))
            lines.append(f"  link timeliness: {summary}  "
                         f"matches_topology="
                         f"{timeliness['matches_topology']}")
    return "\n".join(lines)
