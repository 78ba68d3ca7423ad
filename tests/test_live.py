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

from repro.consensus.messages import Ballot, Prepare, Promise, Propose
from repro.core.messages import Alive, Heartbeat
from repro.live.codec import (
    MAX_FRAME,
    CodecError,
    decode_frame,
    encode_frame,
    register_message,
    registered_kinds,
)

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
        with pytest.raises(CodecError):
            decode_frame(frame[:2])  # shorter than the length prefix
        with pytest.raises(CodecError):
            decode_frame(frame[:-1])  # body shorter than declared

    def test_garbage_bodies_raise(self) -> None:
        import struct

        body = b"not json at all"
        with pytest.raises(CodecError):
            decode_frame(struct.pack(">I", len(body)) + body)
        huge = struct.pack(">I", MAX_FRAME + 1) + b"x"
        with pytest.raises(CodecError):
            decode_frame(huge)

    def test_unknown_kind_raises(self) -> None:
        frame = encode_frame(Heartbeat(sender=0), 0, 0.0)
        body = json.loads(frame[4:])
        body["k"] = "NoSuchKind"
        raw = json.dumps(body).encode()
        import struct

        with pytest.raises(CodecError, match="NoSuchKind"):
            decode_frame(struct.pack(">I", len(raw)) + raw)

    def test_known_kinds_cover_both_protocol_layers(self) -> None:
        kinds = registered_kinds()
        assert "Alive" in kinds  # Omega layer
        assert "Prepare" in kinds and "Decide" in kinds  # consensus layer

    def test_register_rejects_shadowing(self) -> None:
        with pytest.raises(CodecError, match="already registered"):

            class Prepare2(Prepare):  # same name via __name__ surgery
                pass

            Prepare2.__name__ = "Prepare"
            register_message(Prepare2)

    def test_register_same_class_twice_is_noop(self) -> None:
        assert register_message(Prepare) is Prepare


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

    def test_batched_log_run_writes_node_reports(self, tmp_path) -> None:
        from repro.live.cluster import LiveCluster, LiveClusterSpec
        from repro.obs.report import validate_report

        spec = LiveClusterSpec(n=3, horizon=4.0, log=True, batch_size=4,
                               workload=16, workload_clients=4,
                               workload_start=1.5, workload_period=0.02)
        outcome = LiveCluster(spec, tmp_path / "run").run()
        assert outcome.verdict.ok, outcome.verdict.violations
        assert validate_report(outcome.document) == []
        # Commands arrive faster than the tick, so slots carry batches.
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
