"""Tests for the run-report aggregator and the `repro report` command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.harness import bench
from repro.harness.scenarios import OmegaScenario
from repro.harness.soak import run_soak_case, sample_soak_case
from repro.obs.report import (
    REPORT_SCHEMA,
    RunRecorder,
    bench_case_report,
    render_report_text,
    scenario_report,
    soak_case_report,
    validate_report,
)


@pytest.fixture(scope="module")
def scenario_document() -> dict:
    scenario = OmegaScenario(algorithm="comm-efficient", n=4,
                             system="source", seed=11, horizon=40.0)
    return scenario_report(scenario).to_json()


class TestRunRecorder:
    def test_span_pairing(self) -> None:
        recorder = RunRecorder()
        recorder.on_span_begin(1.0, 0, "epoch", 3)
        recorder.on_span_end(4.0, 0, "epoch", None)
        assert recorder.closed_spans == [
            {"pid": 0, "name": "epoch", "start": 1.0, "end": 4.0,
             "detail": 3}]
        assert recorder.open_spans == {}

    def test_end_detail_wins_over_begin_detail(self) -> None:
        recorder = RunRecorder()
        recorder.on_span_begin(1.0, 0, "ballot.prepare", 2)
        recorder.on_span_end(2.0, 0, "ballot.prepare", "nacked")
        assert recorder.closed_spans[0]["detail"] == "nacked"

    def test_unmatched_end_is_tolerated(self) -> None:
        recorder = RunRecorder()
        recorder.on_span_end(2.0, 0, "epoch", None)
        assert recorder.closed_spans == []

    def test_rebegin_replaces_open_span(self) -> None:
        recorder = RunRecorder()
        recorder.on_span_begin(1.0, 0, "epoch", 1)
        recorder.on_span_begin(5.0, 0, "epoch", 2)
        recorder.on_span_end(6.0, 0, "epoch", None)
        assert recorder.closed_spans[0]["start"] == 5.0
        assert recorder.closed_spans[0]["detail"] == 2


class TestScenarioReport:
    def test_document_is_schema_valid(self, scenario_document: dict) -> None:
        assert scenario_document["schema"] == REPORT_SCHEMA
        assert validate_report(scenario_document) == []

    def test_verdict_and_timeline(self, scenario_document: dict) -> None:
        assert scenario_document["kind"] == "scenario"
        assert scenario_document["verdict"]["ok"] is True
        timeline = scenario_document["leader_timeline"]
        assert timeline, "a stabilizing run must change leaders at least once"
        assert all(set(entry) == {"time", "pid", "leader"}
                   for entry in timeline)
        # The comm-efficient run converges on the source, pid 0.
        assert timeline[-1]["leader"] == 0

    def test_spans_cover_election_epochs(self,
                                         scenario_document: dict) -> None:
        spans = scenario_document["spans"]
        assert "epoch" in spans
        epoch = spans["epoch"]
        # Stabilization: every process still holds its final epoch open.
        assert epoch["open"] == 4

    def test_budget_consistency(self, scenario_document: dict) -> None:
        (block,) = scenario_document["networks"]
        budget = block["message_budget"]
        assert budget["total"] == sum(budget["by_kind"].values())
        assert budget["total"] == sum(budget["by_phase"].values())
        assert budget["total"] > 0

    def test_timeliness_matches_configured_topology(
            self, scenario_document: dict) -> None:
        (block,) = scenario_document["networks"]
        assert block["timeliness"]["matches_topology"] is True
        classes = {stats["class"]
                   for stats in block["timeliness"]["links"].values()}
        assert classes <= {"timely", "eventually-timely", "lossy",
                           "insufficient-data"}

    def test_document_is_json_serialisable(self,
                                           scenario_document: dict) -> None:
        round_tripped = json.loads(json.dumps(scenario_document))
        assert round_tripped == scenario_document

    def test_render_text_mentions_the_essentials(
            self, scenario_document: dict) -> None:
        text = render_report_text(scenario_document)
        assert "run report" in text
        assert "verdict: OK" in text
        assert "leader timeline" in text
        assert "message budget" in text
        assert "matches_topology=True" in text


class TestBenchAndSoakReports:
    def test_bench_case_report(self) -> None:
        case = bench.default_suite(seed=7, experiments=("e2",),
                                   quick=True)[0]
        report = bench_case_report(case, wall_s=0.25)
        document = report.to_json()
        assert validate_report(document) == []
        assert document["kind"] == "bench"
        assert document["target"] == case.case_id
        assert document["verdict"]["ok"] is True
        assert document["meta"]["wall_s"] == 0.25
        # The bench runner's details ride along as verdict evidence.
        assert "final_leader" in document["verdict"]["evidence"]

    def test_persisted_load_report_carries_the_retransmit_counters(
            self) -> None:
        case = next(c for c in bench.default_suite(
            seed=7, experiments=("e19",), quick=True)
            if c.case_id == "e19/persist-open/n=5")
        document = bench_case_report(case).to_json()
        assert validate_report(document) == []
        workload = document["workload"]
        assert workload["retransmits_sent"] > 0
        assert workload["retransmits_gated"] >= 0
        assert "max_queue_depth" in workload
        assert "retransmits: sent=" in render_report_text(document)
        broken = json.loads(json.dumps(document))
        broken["workload"]["retransmits_gated"] = -1
        assert validate_report(broken) == [
            "workload.retransmits_gated must be a non-negative int"]

    def test_soak_case_report(self) -> None:
        case = sample_soak_case(3, 0)
        document = soak_case_report(case).to_json()
        assert validate_report(document) == []
        assert document["kind"] == "soak"
        assert document["params"]["index"] == 0
        # Observed or not, the run's outcome digest is the same.
        assert document["params"]["outcome"] == run_soak_case(case).outcome
        assert document["verdict"]["ok"] is True
        assert "meta" not in document  # no wall time given

    def test_consensus_soak_report_has_one_block_per_network(self) -> None:
        # Find the first consensus case in the sampled stream: those
        # systems run a failure-detector and an agreement network.
        index = next(i for i in range(20)
                     if sample_soak_case(3, i).kind != "omega")
        document = soak_case_report(sample_soak_case(3, index)).to_json()
        assert validate_report(document) == []
        labels = [block["label"] for block in document["networks"]]
        assert labels == ["fd", "agreement"]
        assert document["decides"], "a consensus run must decide"


class TestValidateReport:
    def test_rejects_wrong_schema_and_missing_keys(self) -> None:
        problems = validate_report({"schema": "nope"})
        assert any("schema" in p for p in problems)
        assert any("missing top-level key" in p for p in problems)

    def test_rejects_inconsistent_budget(self,
                                         scenario_document: dict) -> None:
        broken = json.loads(json.dumps(scenario_document))
        broken["networks"][0]["message_budget"]["total"] += 1
        problems = validate_report(broken)
        assert any("by_kind" in p for p in problems)

    def test_rejects_failing_verdict_without_violations(
            self, scenario_document: dict) -> None:
        broken = json.loads(json.dumps(scenario_document))
        broken["verdict"]["ok"] = False
        problems = validate_report(broken)
        assert problems == ["failing verdict carries no violations"]


class TestCli:
    def test_report_scenario_writes_valid_json(self, tmp_path,
                                               capsys) -> None:
        out = tmp_path / "report.json"
        code = main(["report", "scenario", "--algorithm", "comm-efficient",
                     "--system", "source", "--n", "4", "--seed", "11",
                     "--horizon", "40", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert validate_report(document) == []
        assert "verdict: OK" in capsys.readouterr().out

    def test_report_bench_case(self, tmp_path) -> None:
        out = tmp_path / "bench.json"
        code = main(["report", "bench", "--case-id", "e2/comm-efficient/n=6",
                     "--quick", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["kind"] == "bench"
        assert validate_report(document) == []

    def test_report_bench_unknown_case_lists_available(self) -> None:
        with pytest.raises(SystemExit):
            main(["report", "bench", "--case-id", "e9/unknown"])

    def test_report_soak_case(self, tmp_path) -> None:
        out = tmp_path / "soak.json"
        code = main(["report", "soak", "--seed", "3", "--case", "0",
                     "--out", str(out)])
        assert code == 0
        assert validate_report(json.loads(out.read_text())) == []
