"""Tests for the parallel bench runner: determinism, schema, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.harness import bench


QUICK_E1 = bench.default_suite(seed=7, experiments=("e1",), quick=True)


class TestSuiteConstruction:
    def test_case_ids_are_unique_and_canonical(self) -> None:
        cases = bench.default_suite(seed=7)
        ids = [case.case_id for case in cases]
        assert len(ids) == len(set(ids))
        # Same seed, same suite: the canonical order is reproducible.
        assert ids == [c.case_id for c in bench.default_suite(seed=7)]

    def test_experiment_subset(self) -> None:
        cases = bench.default_suite(seed=7, experiments=("e2", "e4"))
        assert {case.experiment for case in cases} == {"e2", "e4"}

    def test_unknown_experiment_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown experiments"):
            bench.default_suite(seed=7, experiments=("e1", "e9"))

    def test_full_adds_the_large_n_rows(self) -> None:
        base = {c.case_id for c in bench.default_suite(seed=7)}
        full = {c.case_id for c in bench.default_suite(seed=7, full=True)}
        assert full - base == {"e3/comm-efficient/n=128",
                               "e18/comm-efficient/n=512",
                               "e18/comm-efficient/n=1024",
                               "e18/comm-efficient/n=2048"}

    def test_default_suite_has_the_e18_census(self) -> None:
        base = {c.case_id for c in bench.default_suite(seed=7)}
        assert "e18/comm-efficient/n=256" in base
        quick = {c.case_id for c in bench.default_suite(seed=7, quick=True)}
        assert not any(c.startswith("e18/") for c in quick)

    def test_seed_travels_with_each_case(self) -> None:
        for case in bench.default_suite(seed=13):
            assert case.params["seed"] in (13, 14)


class TestDeterminismAcrossJobs:
    def test_jobs_1_and_jobs_4_are_byte_identical_modulo_wall_time(
            self, tmp_path) -> None:
        """The ISSUE's headline regression: `repro bench --seed 7 --jobs 1`
        and `--jobs 4` must emit byte-identical JSON once the wall-time
        fields (per-case `timing`, top-level `meta`) are stripped."""
        out1 = tmp_path / "jobs1.json"
        out4 = tmp_path / "jobs4.json"
        argv_base = ["bench", "--seed", "7", "--quick",
                     "--experiments", "e1,e4"]
        assert main([*argv_base, "--jobs", "1", "--out", str(out1)]) == 0
        assert main([*argv_base, "--jobs", "4", "--out", str(out4)]) == 0
        report1 = json.loads(out1.read_text())
        report4 = json.loads(out4.read_text())
        core1 = bench.report_to_json(bench.strip_nondeterministic(report1))
        core4 = bench.report_to_json(bench.strip_nondeterministic(report4))
        assert core1 == core4
        # ...and the stripped projections really dropped the wall fields.
        assert "meta" not in json.loads(core1)
        assert all("timing" not in case
                   for case in json.loads(core1)["cases"])

    def test_run_suite_merges_in_canonical_order(self) -> None:
        results = bench.run_suite(QUICK_E1, jobs=2)
        assert [r["case_id"] for r in results] == \
            [c.case_id for c in QUICK_E1]


class TestReportSchema:
    @pytest.fixture(scope="class")
    def report(self) -> dict:
        results = bench.run_suite(QUICK_E1[:2], jobs=1)
        return bench.build_report(results, seed=7, jobs=1, suite="quick",
                                  wall_s=0.5)

    def test_schema_version(self, report: dict) -> None:
        assert report["schema"] == bench.SCHEMA_VERSION == "repro-bench/v1"

    def test_top_level_fields(self, report: dict) -> None:
        assert set(report) == {"schema", "suite", "seed", "cases",
                               "summary", "meta"}
        assert set(report["summary"]) == {"cases", "ok", "failed",
                                          "events", "sim_time_s"}
        for key in ("created_utc", "jobs", "wall_s", "host", "platform",
                    "python", "cpu_count"):
            assert key in report["meta"]

    def test_case_fields_and_types(self, report: dict) -> None:
        for case in report["cases"]:
            assert set(case) == {"case_id", "experiment", "params", "ok",
                                 "verdict", "result", "events", "sim_time_s",
                                 "profile", "timing"}
            assert isinstance(case["case_id"], str)
            assert case["experiment"] in bench.EXPERIMENTS
            assert isinstance(case["ok"], bool)
            assert isinstance(case["events"], int) and case["events"] > 0
            assert isinstance(case["sim_time_s"], float)
            assert set(case["timing"]) == {"wall_s", "events_per_s",
                                           "sim_s_per_wall_s"}

    def test_verdict_block(self, report: dict) -> None:
        """Each case carries the shared Verdict shape, consistent with ok."""
        for case in report["cases"]:
            verdict = case["verdict"]
            assert set(verdict) == {"ok", "violations", "evidence"}
            assert verdict["ok"] == case["ok"]
            assert isinstance(verdict["violations"], list)
            if not verdict["ok"]:
                assert verdict["violations"]

    def test_profile_block(self, report: dict) -> None:
        """Kernel counters are integers and internally consistent."""
        for case in report["cases"]:
            profile = case["profile"]
            assert set(profile) == {"events_executed", "heap_pushes",
                                    "heap_pops", "tombstone_pops",
                                    "compactions", "pending"}
            assert all(isinstance(value, int) and value >= 0
                       for value in profile.values())
            assert profile["events_executed"] == case["events"]
            assert profile["heap_pops"] == (profile["events_executed"]
                                            + profile["tombstone_pops"])
            assert profile["heap_pushes"] >= profile["events_executed"]

    def test_report_is_valid_sorted_json(self, report: dict) -> None:
        text = bench.report_to_json(report)
        assert json.loads(text) == report
        assert text == bench.report_to_json(json.loads(text))

    def test_summary_consistent_with_cases(self, report: dict) -> None:
        summary = report["summary"]
        assert summary["cases"] == len(report["cases"])
        assert summary["ok"] + summary["failed"] == summary["cases"]
        assert summary["events"] == sum(c["events"] for c in report["cases"])


class TestCompareReports:
    @pytest.fixture(scope="class")
    def report(self) -> dict:
        results = bench.run_suite(QUICK_E1[:2], jobs=1)
        return bench.build_report(results, seed=7, jobs=1, suite="quick",
                                  wall_s=0.5)

    def test_identical_reports_show_no_drift(self, report: dict) -> None:
        diff = bench.compare_reports(report, report)
        assert diff["ok"]
        assert diff["changed"] == []
        assert diff["added"] == diff["removed"] == []
        assert len(diff["throughput"]) == len(report["cases"])
        assert all(row["ratio"] == pytest.approx(1.0)
                   for row in diff["throughput"])

    def test_deterministic_drift_is_flagged(self, report: dict) -> None:
        import copy
        new = copy.deepcopy(report)
        new["cases"][0]["events"] += 1
        diff = bench.compare_reports(report, new)
        assert not diff["ok"]
        assert diff["changed"] == [new["cases"][0]["case_id"]]

    def test_suite_shape_changes_are_not_drift(self, report: dict) -> None:
        import copy
        new = copy.deepcopy(report)
        dropped = new["cases"].pop()
        diff = bench.compare_reports(report, new)
        assert diff["ok"]
        assert diff["removed"] == [dropped["case_id"]]
        reverse = bench.compare_reports(new, report)
        assert reverse["added"] == [dropped["case_id"]]


class TestE19LoadRows:
    @pytest.fixture(scope="class")
    def results(self) -> list[dict]:
        cases = bench.default_suite(seed=7, experiments=("e19",), quick=True)
        return bench.run_suite(cases, jobs=1)

    def test_quick_suite_shape(self) -> None:
        ids = {c.case_id for c in
               bench.default_suite(seed=7, experiments=("e19",), quick=True)}
        assert ids == {"e19/batching/n=5", "e19/sharded/groups=4/n=5",
                       "e19/persist-open/n=5"}
        default_ids = {c.case_id for c in
                       bench.default_suite(seed=7, experiments=("e19",))}
        assert {"e19/open/n=5", "e19/closed/n=5", "e19/batching/n=5",
                "e19/sharded/groups=4/n=5", "e19/compaction/n=5",
                "e19/persist-open/n=5"} == default_ids

    def test_rows_pass_and_carry_percentiles(self,
                                             results: list[dict]) -> None:
        for row in results:
            assert row["ok"], row["verdict"]
            latency = row["result"]["latency_s"]
            assert latency["p50"] <= latency["p95"] <= latency["p99"]
            assert row["result"]["throughput_cps"] > 0

    def test_batching_row_beats_its_control(self,
                                            results: list[dict]) -> None:
        batching = next(r for r in results
                        if r["case_id"] == "e19/batching/n=5")
        details = batching["result"]
        assert details["speedup"] > 1.0
        assert details["batched"]["throughput_cps"] \
            > details["control"]["throughput_cps"]

    def test_persisted_row_commits_within_four_ticks(
            self, results: list[dict]) -> None:
        # The persisted commit path through a leader crash + recovery:
        # every command commits, and the gated sends are counted.
        row = next(r for r in results
                   if r["case_id"] == "e19/persist-open/n=5")
        details = row["result"]
        assert row["ok"] and details["done"], row["verdict"]
        assert details["latency_s"]["p50"] <= 4 * 0.5
        assert details["retransmits_sent"] > details["retransmits_gated"]
        unpersisted = [r for r in results if r is not row]
        assert all("retransmits_sent" not in r["result"]
                   for r in unpersisted)

    def test_latency_drift_rows_in_compare(self, results: list[dict]) -> None:
        report = bench.build_report(results, seed=7, jobs=1, suite="load",
                                    wall_s=0.1)
        diff = bench.compare_reports(report, report)
        assert diff["ok"]
        assert diff["latency"]
        by_case = {(row["case_id"], row["quantile"]) for row in
                   diff["latency"]}
        assert ("e19/batching/n=5", "p50") in by_case
        assert all(row["ratio"] == pytest.approx(1.0)
                   for row in diff["latency"])


class TestCliFilterAndCompare:
    ARGV = ["bench", "--quick", "--jobs", "1",
            "--experiments", "e1", "--seed", "7"]

    def test_filter_narrows_the_suite(self, tmp_path) -> None:
        out = tmp_path / "filtered.json"
        code = main(["bench", "--quick", "--jobs", "1",
                     "--filter", "e1/*", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cases"]
        assert all(case["case_id"].startswith("e1/")
                   for case in report["cases"])

    def test_filter_with_no_match_is_an_error(self) -> None:
        with pytest.raises(SystemExit, match="matches no case"):
            main(["bench", "--quick", "--no-out", "--filter", "zzz/*"])

    def test_compare_identical_run_exits_zero(self, tmp_path,
                                              capsys) -> None:
        out = tmp_path / "old.json"
        assert main([*self.ARGV, "--out", str(out)]) == 0
        code = main([*self.ARGV, "--no-out", "--compare", str(out)])
        assert code == 0
        assert "deterministic results identical" in capsys.readouterr().out

    def test_compare_flags_deterministic_drift(self, tmp_path,
                                               capsys) -> None:
        out = tmp_path / "old.json"
        assert main([*self.ARGV, "--out", str(out)]) == 0
        old = json.loads(out.read_text())
        old["cases"][0]["events"] += 1
        out.write_text(json.dumps(old))
        code = main([*self.ARGV, "--no-out", "--compare", str(out)])
        assert code == 1
        assert "CHANGED" in capsys.readouterr().out

    def test_compare_unreadable_file_is_an_error(self, tmp_path) -> None:
        with pytest.raises(SystemExit, match="cannot read"):
            main([*self.ARGV, "--no-out",
                  "--compare", str(tmp_path / "missing.json")])


class TestCli:
    def test_no_out_writes_nothing(self, tmp_path, monkeypatch,
                                   capsys) -> None:
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--quick", "--experiments", "e2",
                     "--jobs", "1", "--no-out"])
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        assert "cases ok" in capsys.readouterr().out

    def test_default_output_name_is_dated(self) -> None:
        import datetime
        name = bench.default_output_name(datetime.date(2026, 8, 6))
        assert name == "BENCH_2026-08-06.json"

    def test_e19_suite_prints_commit_latency(self, capsys) -> None:
        code = main(["bench", "--experiments", "e19", "--quick",
                     "--jobs", "1", "--no-out"])
        assert code == 0
        out = capsys.readouterr().out
        for column in ("committed", "commits/s", "p50 (s)", "p95 (s)",
                       "p99 (s)"):
            assert column in out
        assert "e19/persist-open/n=5" in out

    def test_experiments_accept_the_metavar_spelling(self, tmp_path) -> None:
        out = tmp_path / "report.json"
        code = main(["bench", "--experiments", "E19, e2", "--quick",
                     "--jobs", "1", "--filter", "e19/persist-open/*",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [case["case_id"] for case in report["cases"]] \
            == ["e19/persist-open/n=5"]
        assert report["suite"] == "quick:e19"
