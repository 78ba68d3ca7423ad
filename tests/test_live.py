"""Live backend tests: codec, subprocess clusters, crossval, control plane.

The in-loop transport semantics live in
``tests/test_transport_conformance.py``; this file covers what is
specific to the live stack — the wire codec, the multi-OS-process
cluster harness behind ``python -m repro live run``, the sim-vs-live
cross-validation, and the HTTP control plane.  Tests that spawn real
node processes are marked ``live`` (deselect with ``-m "not live"`` on
constrained machines); they use short horizons, so the whole file stays
in CI-smoke territory.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.consensus.messages import Ballot, Promise, Propose
from repro.core.messages import Alive, Heartbeat
from repro.live.codec import MAX_FRAME, decode_frame, encode_frame
from repro.wire import KINDS, CodecError

HORIZON = 2.0


class TestCodec:
    def test_round_trip_simple_message(self) -> None:
        message = Alive(sender=2, counter=3, phase=1)
        frame = encode_frame(message, incarnation=1, sent_at=0.25)
        decoded, incarnation, sent_at = decode_frame(frame)
        assert decoded == message
        assert incarnation == 1
        assert sent_at == 0.25

    def test_round_trip_ballot_and_nested_tuples(self) -> None:
        message = Promise(
            sender=1, ballot=Ballot(3, 1), from_instance=0,
            accepted=((0, (Ballot(2, 0), "value-0")),
                      (1, (Ballot(1, 2), ("nested", 7)))))
        decoded, _, _ = decode_frame(encode_frame(message, 0, 0.0))
        assert decoded == message
        assert isinstance(decoded.ballot, Ballot)
        assert isinstance(decoded.accepted, tuple)
        assert decoded.accepted[1][1][0] == Ballot(1, 2)

    def test_round_trip_dict_value(self) -> None:
        message = Propose(sender=0, ballot=Ballot(1, 0), instance=0,
                          value={"cmd": "put", "args": (1, 2)},
                          commit_through=-1)
        decoded, _, _ = decode_frame(encode_frame(message, 0, 0.0))
        assert decoded == message
        assert decoded.value["args"] == (1, 2)

    def test_truncated_frames_raise(self) -> None:
        frame = encode_frame(Heartbeat(sender=0), 0, 0.0)
        for cut in (0, 1, 2, len(frame) - 1):
            with pytest.raises(CodecError) as caught:
                decode_frame(frame[:cut])
            assert caught.value.reason == "truncated_frame"

    def test_garbage_bodies_raise(self) -> None:
        frame = encode_frame(Heartbeat(sender=0), 0, 0.0)
        with pytest.raises(CodecError, match="stray bytes"):
            decode_frame(frame + b"not a frame")
        with pytest.raises(CodecError) as caught:
            decode_frame(b"x" * (MAX_FRAME + 1))
        assert caught.value.reason == "oversized_frame"

    def test_unknown_kind_raises(self) -> None:
        frame = encode_frame(Heartbeat(sender=0), 0, 0.0)
        with pytest.raises(CodecError, match="unknown message kind") \
                as caught:
            decode_frame(bytes([len(KINDS) + 1]) + frame[1:])
        assert caught.value.reason == "unknown_kind"

    def test_known_kinds_cover_both_protocol_layers(self) -> None:
        kinds = {path.rsplit(".", 1)[1] for path in KINDS if path}
        assert "Alive" in kinds  # Omega layer
        assert "Prepare" in kinds and "Decide" in kinds  # consensus layer


#: The keys ``live/node.py``'s ``_write_report`` emits (``log`` only on
#: log nodes); ``bench/workloads.py`` and the cluster judge read them.
NODE_REPORT_KEYS = {"pid", "incarnation", "clock", "leader_history",
                    "final_leader", "leader_changes", "decision",
                    "decision_time", "frames", "planes"}
LOG_BLOCK_KEYS = {"commit_index", "applied_ids", "latencies", "load",
                  "syncs_ok"}


def _node_report(omega, agreement=None) -> dict:
    """The report a live node would write, read off sim processes."""
    from repro.consensus.replica import LogReplica, entry_commands
    from repro.live.report import recorder_to_json
    from repro.obs.report import RunRecorder

    report = {
        "pid": omega.pid,
        "incarnation": omega.incarnation,
        "clock": {"now": omega.now, "events_executed": 0, "profile": {}},
        "leader_history": [list(entry) for entry in omega.history],
        "final_leader": omega.leader(),
        "leader_changes": omega.leader_changes,
        "decision": getattr(agreement, "decision", None),
        "decision_time": getattr(agreement, "decision_time", None),
        "frames": {"sent": 0, "received": 0},
        "planes": {"fd": recorder_to_json(RunRecorder())},
    }
    if isinstance(agreement, LogReplica):
        report["log"] = {
            "commit_index": agreement.commit_index,
            "applied_ids": [list(command_id)
                            for entry in agreement.committed_prefix()
                            for command_id, _ in entry_commands(entry)],
            "latencies": [],
            "load": agreement.load_stats(),
            "syncs_ok": 0,
        }
    return json.loads(json.dumps(report))  # what the report file holds


def _full_recorder():
    """A recorder with something in every field of ``RunRecorder.FIELDS``."""
    from repro.consensus.replica import Batch
    from repro.obs.report import RunRecorder

    recorder = RunRecorder()
    recorder.on_send(0.5, 0, 1, "Alive")
    recorder.on_drop(0.5, 0, 2, "Alive", "loss")
    recorder.on_packet_send(0.5, 0, 1, "Alive", 12, 1)
    recorder.on_packet_deliver(0.6, 0, 1, "Alive", 12, 1)
    recorder.on_leader_change(0.7, 1, 0)
    recorder.on_decide(1.5, 0, (0, Batch(((("c0", 0), ("set", "k0", 0)),))))
    recorder.on_crash(2.0, 2)
    recorder.on_recover(3.0, 2, 1)
    recorder.on_sync(3.1, 2, ("promised",), True)
    recorder.on_sync(3.2, 2, ("promised",), False)
    recorder.on_pause(4.0, 1)
    recorder.on_resume(4.5, 1)
    recorder.on_span_begin(0.7, 1, "epoch", 0)
    recorder.on_span_end(5.0, 1, "epoch", None)
    return recorder


class TestNodeReportRoundTrip:
    def test_batched_log_decide_survives_the_report_file(self) -> None:
        """A ``Batch`` decide used to kill ``json.dump`` at node flush."""
        from repro.consensus.replica import NOOP, Batch
        from repro.live.report import recorder_from_json, recorder_to_json
        from repro.obs.report import RunRecorder

        batch = Batch(((("c0", 0), ("set", "k0", 0)),
                       (("c1", 0), ("set", "k1", 1))))
        recorder = RunRecorder()
        recorder.on_decide(1.5, 0, (0, batch))
        recorder.on_decide(1.75, 0, (1, (("c0", 1), ("set", "k2", 2))))
        recorder.on_decide(2.0, 1, (2, NOOP))
        recorder.on_decide(2.25, 2, "value-2")  # single-decree consensus
        on_disk = json.loads(json.dumps(recorder_to_json(recorder)))
        assert recorder_from_json(on_disk).decides == recorder.decides

    def test_every_recorded_field_survives_the_report_file(self) -> None:
        from repro.live.report import recorder_from_json, recorder_to_json
        from repro.obs.report import RunRecorder

        names = [name for group in RunRecorder.FIELDS.values()
                 for name in group]
        recorder = _full_recorder()
        # The table names every field a recorder keeps.
        assert set(vars(recorder)) - {"_open_spans"} == set(names)
        on_disk = json.loads(json.dumps(recorder_to_json(recorder)))
        back = recorder_from_json(on_disk)
        for name in names:
            assert getattr(recorder, name), name  # the case covers it
            assert getattr(back, name) == getattr(recorder, name), name

    def test_merge_sums_counters_and_totals_and_joins_events(self) -> None:
        from repro.obs.report import RunRecorder

        left, right = _full_recorder(), _full_recorder()
        right.on_send(6.0, 2, 0, "Heartbeat")
        merged = left.merge(right)
        assert merged.sent_by_kind == {"Alive": 2, "Heartbeat": 1}
        assert merged.dropped_by_reason == {"loss": 2}
        assert merged.packets_by_kind == {"Alive": 2}
        assert merged.packet_bytes_by_kind == {"Alive": 24}
        assert (merged.packets_delivered, merged.packet_bytes_delivered,
                merged.syncs_ok, merged.syncs_failed) == (2, 24, 2, 2)
        for name in RunRecorder.FIELDS["events"]:
            assert getattr(merged, name) == 2 * getattr(left, name), name
        assert left.sent_by_kind == {"Alive": 1}  # inputs untouched
        assert RunRecorder().merge().sent_by_kind == {}

    def test_plane_blocks_report_the_mtu_packets_were_counted_at(
            self) -> None:
        from repro.live.report import merged_live_report, recorder_to_json
        from repro.obs.verdict import Verdict
        from repro.sim.packets import DEFAULT_MTU

        planes = {"fd": recorder_to_json(_full_recorder()),
                  "agreement": recorder_to_json(_full_recorder())}
        reports = [{"pid": pid, "planes": planes} for pid in range(3)]
        document = merged_live_report(reports, "live/test", {},
                                      Verdict.passed(), 1.0)
        assert [(block["label"], block["packets"]["mtu"])
                for block in document["networks"]] == [
            ("agreement", DEFAULT_MTU), ("fd", DEFAULT_MTU)]


class TestOneJudge:
    """The live adapters hand node-report facts to the sim checkers.

    Each case runs a seeded sim, writes its surviving processes as the
    node reports a live node would, and asserts that the live adapter
    returns the sim checker's verdict.
    """

    def test_fabricated_reports_carry_the_node_keys(self) -> None:
        from repro.consensus.node import ConsensusSystem
        from repro.sim.topology import all_timely_links

        system = ConsensusSystem.build_replicated_log(
            3, lambda: all_timely_links(3))
        node = system.node(0)
        assert set(_node_report(node.omega)) == NODE_REPORT_KEYS
        report = _node_report(node.omega, node.agreement)
        assert set(report) == NODE_REPORT_KEYS | {"log"}
        assert set(report["log"]) == LOG_BLOCK_KEYS

    @pytest.mark.parametrize("faults, holds", [
        ("crash(t=10,pid=0)", True),
        ("partition(start=5,end=40,groups=0.1|2.3)", False),
    ])
    def test_omega(self, faults, holds) -> None:
        from repro.core.checker import analyze_omega_run
        from repro.harness.scenarios import OmegaScenario
        from repro.live.report import analyze_live_run

        cluster = OmegaScenario(
            algorithm="comm-efficient", n=4, system="all-timely", seed=3,
            horizon=30.0, faults=faults).run().cluster
        reports = [_node_report(cluster.process(pid))
                   for pid in cluster.up_pids()]
        sim = analyze_omega_run(cluster)
        assert sim.omega_holds is holds
        assert analyze_live_run(reports) == sim
        assert analyze_live_run(reports).verdict() == sim.verdict()

    def _single_decree(self, omega_name, proposals):
        from repro.consensus.node import ConsensusSystem
        from repro.sim.topology import all_timely_links

        return ConsensusSystem.build_single_decree(
            3, lambda: all_timely_links(3), proposals,
            omega_name=omega_name)

    def _assert_one_judge(self, system, proposals) -> dict:
        from repro.consensus.checker import check_single_decree
        from repro.live.report import consensus_verdict

        reports = [_node_report(system.node(pid).omega,
                                system.node(pid).agreement)
                   for pid in system.up_pids()]
        sim = check_single_decree(system).verdict().to_json()
        live = consensus_verdict(reports, dict(enumerate(proposals)))
        assert live.to_json() == sim
        return sim

    def test_single_decree_that_decides(self) -> None:
        proposals = ["value-0", "value-1", "value-2"]
        system = self._single_decree("comm-efficient", proposals)
        system.start_all()
        system.run_until(20.0)
        assert self._assert_one_judge(system, proposals)["ok"]

    def test_single_decree_that_violates_agreement(self) -> None:
        # The persist=False control schedule on a whole node stack: p0
        # decides v0 with p1, then stalls to the end (up, so correct);
        # p1 bounces into amnesia and, with p2, decides v2.
        proposals = ["v0", "v1", "v2"]
        system = self._single_decree("crash-recovery", proposals)
        system.start_all()
        system.crash(2)
        system.run_until(10.0)
        system.pause(0)
        system.crash(1)
        system.run_until(12.0)
        system.recover(1)
        system.recover(2)
        system.run_until(60.0)
        verdict = self._assert_one_judge(system, proposals)
        assert not verdict["ok"]
        assert verdict["violations"][0].startswith("agreement violated")

    @pytest.mark.parametrize("forge", [False, True])
    def test_log(self, forge) -> None:
        from repro.consensus.checker import check_log
        from repro.consensus.node import ConsensusSystem
        from repro.live.report import log_verdict
        from repro.sim.topology import all_timely_links

        system = ConsensusSystem.build_replicated_log(
            3, lambda: all_timely_links(3))
        system.start_all()
        system.run_until(2.0)
        commands = {("c0", index): ("set", f"k{index}", index)
                    for index in range(10)}
        for index, (command_id, command) in enumerate(commands.items()):
            system.node(index % 3).agreement.submit(command_id, command)
        system.run_until(30.0)
        if forge:  # every node commits a command nobody submitted
            for pid in system.pids:
                replica = system.node(pid).agreement
                replica.commit_index += 1
                replica.log[replica.commit_index] = (("ghost", 9), "boo")
        reports = [_node_report(system.node(pid).omega,
                                system.node(pid).agreement)
                   for pid in system.up_pids()]
        sim = check_log(system, set(commands.values())).verdict()
        live = log_verdict(reports, commands)
        assert live.ok is sim.ok is (not forge)

    def test_live_log_judge_rejects_an_unsubmitted_command(self) -> None:
        from repro.live.report import log_verdict

        reports = [{"pid": pid, "log": {"commit_index": 1,
                                        "applied_ids": [["c0", 0],
                                                        ["ghost", 9]]}}
                   for pid in range(3)]
        verdict = log_verdict(reports, {("c0", 0)})
        assert not verdict.ok
        assert verdict.violations == (
            "validity violated: committed an unsubmitted command",)


@pytest.mark.live
class TestLiveCluster:
    def test_cluster_elects_and_decides(self, tmp_path) -> None:
        from repro.live.cluster import LiveCluster, LiveClusterSpec
        from repro.obs.report import validate_report

        spec = LiveClusterSpec(n=3, horizon=HORIZON, consensus=True)
        outcome = LiveCluster(spec, tmp_path / "run").run()
        assert outcome.verdict.ok, outcome.verdict.violations
        assert outcome.omega.agreement
        assert outcome.omega.final_leader in range(3)
        decisions = {report["decision"]
                     for report in outcome.node_reports}
        assert len(decisions) == 1
        assert decisions.pop() in {f"value-{pid}" for pid in range(3)}
        assert validate_report(outcome.document) == []
        assert outcome.document["params"]["backend"] == "live-udp"
        assert all(set(report) == NODE_REPORT_KEYS
                   for report in outcome.node_reports)

    def test_batched_log_run_writes_node_reports(self, tmp_path) -> None:
        from repro.live.cluster import LiveCluster, LiveClusterSpec
        from repro.obs.report import validate_report

        spec = LiveClusterSpec(n=3, horizon=4.0, log=True, batch_size=4,
                               workload=16, workload_clients=4,
                               workload_start=1.5, workload_period=0.0005)
        outcome = LiveCluster(spec, tmp_path / "run").run()
        assert outcome.verdict.ok, outcome.verdict.violations
        assert validate_report(outcome.document) == []
        assert all(set(report) == NODE_REPORT_KEYS | {"log"}
                   and set(report["log"]) == LOG_BLOCK_KEYS
                   for report in outcome.node_reports)
        # Commands arrive faster than a loopback round trip, so the
        # pipeline is busy and slots carry batches.
        assert any(isinstance(decide["value"][1], dict)
                   and len(decide["value"][1]["entries"]) > 1
                   for decide in outcome.document["decides"])

    def test_persisted_log_keeps_up_with_10_cps(self, tmp_path) -> None:
        # The retransmission gate decides once per driver pass; a gate
        # re-derived from the clock (which moves between two sends of
        # one pass here) admitted one message per peer per tick, and
        # this run committed about 38 of its 150 commands.
        from repro.live.cluster import LiveCluster, LiveClusterSpec
        from repro.obs.report import validate_report

        spec = LiveClusterSpec(n=3, log=True, persist=True, tick=0.25,
                               workload=150, workload_period=0.1,
                               horizon=20)
        outcome = LiveCluster(spec, tmp_path / "run").run()
        assert outcome.verdict.ok, outcome.verdict.violations
        workload = outcome.document["workload"]
        assert workload["committed"] == workload["submitted"] == 150
        assert workload["retransmits_sent"] > workload["retransmits_gated"]
        assert validate_report(outcome.document) == []

    def test_spec_validation(self) -> None:
        from repro.live.cluster import LiveClusterSpec

        with pytest.raises(ValueError):
            LiveClusterSpec(n=1)
        with pytest.raises(ValueError):
            LiveClusterSpec(n=3, horizon=0.0)

    def test_crossval_clean_run_matches(self, tmp_path) -> None:
        from repro.live import cross_validate

        result = cross_validate(str(tmp_path / "xval"), n=3,
                                horizon=HORIZON)
        assert result.matches, result.mismatches
        assert result.sim_leader == result.live_leader
        summary = result.to_json()
        assert summary["matches"] is True


@pytest.mark.live
class TestControlPlane:
    def _request(self, port, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", data=data, method=method)
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_cluster_lifecycle_over_http(self) -> None:
        import time

        from repro.live.control import serve

        server = serve(port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            status, body = self._request(
                port, "POST", "/clusters", {"n": 3, "horizon": HORIZON})
            assert status == 201 and body["state"] == "running"
            cluster_id = body["id"]

            status, _ = self._request(
                port, "GET", f"/clusters/{cluster_id}/report")
            assert status == 409  # still running

            deadline = time.time() + 30
            while time.time() < deadline:
                status, body = self._request(
                    port, "GET", f"/clusters/{cluster_id}")
                if body["state"] != "running":
                    break
                time.sleep(0.25)
            assert body["state"] == "done", body
            assert body["verdict"]["ok"] is True

            status, report = self._request(
                port, "GET", f"/clusters/{cluster_id}/report")
            assert status == 200
            assert report["schema"] == "repro-report/v1"

            status, body = self._request(
                port, "DELETE", f"/clusters/{cluster_id}")
            assert status == 200 and body["ok"] is True
            status, _ = self._request(
                port, "GET", f"/clusters/{cluster_id}")
            assert status == 404
        finally:
            server.shutdown()

    def test_unknown_routes_and_clusters_404(self) -> None:
        from repro.live.control import serve

        server = serve(port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            status, _ = self._request(port, "GET", "/nope")
            assert status == 404
            status, _ = self._request(port, "GET", "/clusters/czzz")
            assert status == 404
            status, _ = self._request(
                port, "POST", "/clusters/czzz/faults", {"op": "crash"})
            assert status == 404
        finally:
            server.shutdown()
