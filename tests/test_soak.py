"""Tests for the soak harness: determinism, model judging, execution."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.consensus.messages import DecideAck
from repro.consensus.replica import LogReplica
from repro.harness.soak import (
    CAMPAIGNS,
    campaign_digest,
    outcome_digest,
    run_soak_case,
    sample_soak_case,
    soak,
)
from repro.sim.nemesis import model_violations


class TestDeterminism:
    def test_cases_reproducible_from_seed_and_index(self) -> None:
        first = [sample_soak_case(7, i) for i in range(30)]
        second = [sample_soak_case(7, i) for i in range(30)]
        assert first == second

    def test_index_is_random_access(self) -> None:
        # Case 17 must not depend on having sampled cases 0..16 first.
        assert sample_soak_case(7, 17) == sample_soak_case(7, 17)

    def test_identical_digests_across_runs(self) -> None:
        # The acceptance check behind `repro soak --cases N --seed S`:
        # two independent samplings of the same campaign hash alike.
        first = campaign_digest([sample_soak_case(7, i) for i in range(50)])
        second = campaign_digest([sample_soak_case(7, i) for i in range(50)])
        assert first == second

    def test_different_seeds_give_different_digests(self) -> None:
        a = campaign_digest([sample_soak_case(1, i) for i in range(20)])
        b = campaign_digest([sample_soak_case(2, i) for i in range(20)])
        assert a != b

    # The plan digests CI pins, by sampling alone: a sampler that draws
    # from its RNG in another order moves one of them.
    @pytest.mark.parametrize("campaign, seed, cases, digest", [
        ("plain", 0, 25, "952c7f0e9e1237fb"),
        ("recovery", 7, 50, "7d9d64ba6685feb3"),
        ("degraded", 7, 12, "78f5f58f9e5a4cdf"),
        ("live", 7, 12, "945fb44bbe48dab4"),
    ])
    def test_pinned_plan_digest(self, campaign: str, seed: int, cases: int,
                                digest: str) -> None:
        sample = CAMPAIGNS[campaign]
        assert campaign_digest(
            [sample(seed, index) for index in range(cases)]) == digest


class TestSampling:
    def test_campaigns_cover_all_algorithms_and_stacks(self) -> None:
        cases = [sample_soak_case(0, i) for i in range(200)]
        algorithms = {c.algorithm for c in cases if c.kind == "omega"}
        kinds = {c.kind for c in cases}
        assert algorithms == {"all-timely", "source", "comm-efficient",
                              "f-source"}
        assert kinds == {"omega", "single-decree", "log"}

    def test_sampled_campaigns_are_in_model(self) -> None:
        for index in range(200):
            case = sample_soak_case(3, index)
            assert model_violations(case.fault_plan(), case.envelope()) == []

    def test_describe_is_one_line_and_complete(self) -> None:
        case = sample_soak_case(5, 0)
        text = case.describe()
        assert "\n" not in text
        assert f"#{case.index}" in text and f"seed={case.seed}" in text


class TestModelJudging:
    def test_out_of_model_campaign_reported_not_run(self) -> None:
        # The acceptance scenario: crash the only ◇source under
        # source-lossy.  Without the model check this would likely
        # *pass* the invariants vacuously or fail confusingly; it must
        # be reported as a model violation instead.
        base = sample_soak_case(7, 0)
        case = type(base)(
            index=0, kind="omega", algorithm="comm-efficient",
            system="source-lossy", n=5, source=2, targets=(), f=2,
            seed=11, gst=5.0, fair_loss=0.2, horizon=300.0,
            plan="crash(t=20.0,pid=2)")
        result = run_soak_case(case)
        assert result.status == "model-violation"
        assert "source" in result.detail
        assert result.ok, "model violations are not invariant failures"

    def test_persistent_disturbance_reported(self) -> None:
        base = sample_soak_case(7, 1)
        case = type(base)(
            index=1, kind="omega", algorithm="source", system="source",
            n=4, source=0, targets=(), f=1, seed=3, gst=2.0,
            fair_loss=0.1, horizon=300.0,
            plan="partition(start=10.0,end=299.0,groups=0.1|2.3)")
        result = run_soak_case(case)
        assert result.status == "model-violation"
        assert "persists" in result.detail

    def test_a_recover_under_a_crash_stop_omega_is_reported_not_run(
            self) -> None:
        # Recovering the leader of a crash-stop Omega splits leadership
        # for good (comm-efficient, n=3: the recovered p0 trusts itself,
        # p1 and p2 trust p2); the crash-recovery Omega is built for it.
        base = sample_soak_case(7, 2)
        case = type(base)(
            index=2, kind="omega", algorithm="comm-efficient",
            system="source", n=3, source=0, targets=(), f=1, seed=1,
            gst=5.0, fair_loss=0.2, horizon=300.0,
            plan="crash(t=50.0,pid=0,recover=100.0)")
        result = run_soak_case(case)
        assert result.status == "model-violation"
        assert "recovers pids [0] under a crash-stop algorithm" \
            in result.detail
        recovering = dataclasses.replace(case, algorithm="crash-recovery")
        assert recovering.envelope().failure_model == "crash-recovery"
        assert model_violations(recovering.fault_plan(),
                                recovering.envelope()) == []


class TestPlanReplay:
    def test_unparseable_plan_fails_without_running(self) -> None:
        case = dataclasses.replace(sample_soak_case(7, 0),
                                   plan="gibberish(t=1)")
        result = run_soak_case(case)
        assert result.status == "fail"
        assert "does not parse" in result.detail

    def test_plan_that_does_not_round_trip_fails_without_running(
            self) -> None:
        case = dataclasses.replace(sample_soak_case(7, 0),
                                   plan="crash(t=20,pid=1)")
        result = run_soak_case(case)
        assert result.status == "fail"
        assert "byte-identically" in result.detail


class TestExecution:
    def test_small_campaign_passes(self) -> None:
        results = soak(cases=6, soak_seed=7)
        assert len(results) == 6
        failures = [r for r in results if r.status == "fail"]
        assert not failures, "\n".join(
            f"{r.case.describe()} -- {r.detail}" for r in failures)

    def test_only_filter_replays_single_case(self) -> None:
        results = soak(cases=10, soak_seed=7, only=(4,))
        assert [r.case.index for r in results] == [4]
        full = soak(cases=10, soak_seed=7)
        assert results[0].case == full[4].case
        assert results[0].status == full[4].status

    def test_repro_line_past_the_default_count_replays(
            self, capsys) -> None:  # noqa: ANN001
        # A printed repro line carries no --cases, and sampling is
        # random access: case 60 replays under the default --cases 50.
        assert main(["soak", "--seed", "0", "--case", "60"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok   #60 ")
        assert "\n1/1 campaigns ok (seed=0)\n" in out

    def test_exactly_one_budget_required(self) -> None:
        with pytest.raises(ValueError):
            soak()
        with pytest.raises(ValueError):
            soak(cases=5, minutes=1.0)
        with pytest.raises(ValueError):
            soak(cases=0)

    @pytest.mark.parametrize("minutes", [0.0, -1.0, float("nan"),
                                         float("inf")])
    def test_a_budget_that_runs_nothing_is_rejected(
            self, minutes: float) -> None:
        with pytest.raises(ValueError, match="minutes must be positive"):
            soak(minutes=minutes)

    @pytest.mark.parametrize("argv, message", [
        (["soak", "--minutes", "0"], "minutes must be positive"),
        (["soak", "--minutes", "-1"], "minutes must be positive"),
        (["soak", "--cases", "0"], "cases must be positive"),
        (["live", "soak", "--cases", "0"], "cases must be positive"),
    ])
    def test_cli_rejects_an_empty_campaign_in_one_line(
            self, argv: list[str], message: str) -> None:
        with pytest.raises(SystemExit, match=message) as excinfo:
            main(argv)
        assert "\n" not in str(excinfo.value.code)

    def test_minutes_budget_stops(self) -> None:
        # A microscopic wall-clock budget still samples at least zero
        # cases and terminates promptly.
        results = soak(minutes=1e-9, soak_seed=0)
        assert results == []


class TestOutcomeDigest:
    """The behavioural half of the contract (ROADMAP item 2): the plan
    digest cannot notice a protocol change, the outcome digest must."""

    LOG_CASES = (1, 4)  # the first two log-kind cases of recovery seed 7

    def _campaign(self):  # noqa: ANN202
        return soak(cases=5, soak_seed=7, only=self.LOG_CASES,
                    campaign="recovery")

    def test_every_status_carries_a_sixteen_hex_outcome(self) -> None:
        results = soak(cases=3, soak_seed=7)
        base = results[0].case
        out_of_model = run_soak_case(dataclasses.replace(
            base, kind="omega", algorithm="comm-efficient",
            system="source-lossy", n=5, source=2, targets=(), f=2,
            plan="crash(t=20.0,pid=2)"))
        assert out_of_model.status == "model-violation"
        for result in (*results, out_of_model):
            assert len(result.outcome) == 16
            int(result.outcome, 16)
        assert len({result.outcome for result in results}) == 3

    def test_same_campaign_same_outcomes(self) -> None:
        first, second = self._campaign(), self._campaign()
        assert [r.case.kind for r in first] == ["log", "log"]
        assert [r.outcome for r in first] == [r.outcome for r in second]
        assert outcome_digest(first) == outcome_digest(second)

    def test_spread_budget_of_one_flips_outcomes_not_plans(
            self, monkeypatch) -> None:  # noqa: ANN001
        before = self._campaign()
        self._spread_with_budget_of_one(monkeypatch)
        after = self._campaign()
        assert all(result.status == "ok" for result in before + after)
        assert outcome_digest(after) != outcome_digest(before)
        assert campaign_digest([r.case for r in after]) \
            == campaign_digest([r.case for r in before])

    @staticmethod
    def _spread_with_budget_of_one(monkeypatch) -> None:  # noqa: ANN001
        original = LogReplica._spread_decisions

        def budget_of_one(replica: LogReplica) -> None:
            config = replica.config
            replica.config = dataclasses.replace(config, max_batch=1)
            try:
                original(replica)
            finally:
                replica.config = config

        monkeypatch.setattr(LogReplica, "_spread_decisions", budget_of_one)

    def test_compare_names_each_moved_case_and_observable(
            self, tmp_path, capsys, monkeypatch) -> None:  # noqa: ANN001
        old = tmp_path / "soak.json"
        args = ["soak", "--recovery", "--seed", "7",
                *(f"--case={index}" for index in self.LOG_CASES)]
        assert main([*args, "--bench-out", str(old)]) == 0
        assert main([*args, "--compare", str(old)]) == 0
        assert "deterministic results identical" in capsys.readouterr().out
        self._spread_with_budget_of_one(monkeypatch)
        assert main([*args, "--compare", str(old)]) == 1
        moved = [line.strip() for line in capsys.readouterr().out.splitlines()
                 if line.strip().startswith("CHANGED ")]
        assert moved and all(
            line.startswith("CHANGED soak/recovery/log/crash-recovery#")
            and "result.outcome" in line and "result.agreement_census" in line
            for line in moved)

    def test_a_chatty_follower_fails_the_calm_tail_by_name(
            self, monkeypatch) -> None:  # noqa: ANN001
        # Eventually only the leader may send on the agreement network.
        original = LogReplica._pass

        def chatty(replica: LogReplica) -> None:
            original(replica)
            leader = replica.leader_of()
            if leader != replica.pid:
                replica.send(leader, DecideAck(replica.pid,
                                               replica.commit_index))

        monkeypatch.setattr(LogReplica, "_pass", chatty)
        results = self._campaign()
        assert [result.status for result in results] == ["fail", "fail"]
        assert all(result.detail.startswith("calm tail: p")
                   for result in results)

    def test_cli_prints_both_digests_and_per_case_outcomes(
            self, capsys) -> None:  # noqa: ANN001
        assert main(["soak", "--cases", "2", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        results = soak(cases=2, soak_seed=7)
        for line, result in zip(lines, results):
            assert line.endswith(f" outcome={result.outcome}")
        digests = [line for line in lines if "digest: " in line]
        assert digests == [
            f"campaign digest: {campaign_digest([r.case for r in results])}",
            f"outcome digest: {outcome_digest(results)}"]
