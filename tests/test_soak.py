"""Tests for the soak harness: determinism, model judging, execution."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.consensus.replica import LogReplica
from repro.harness.soak import (
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

    def test_exactly_one_budget_required(self) -> None:
        with pytest.raises(ValueError):
            soak()
        with pytest.raises(ValueError):
            soak(cases=5, minutes=1.0)
        with pytest.raises(ValueError):
            soak(cases=0)

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
        return soak(cases=5, soak_seed=7, only=self.LOG_CASES, recovery=True)

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
        original = LogReplica._spread_decisions

        def budget_of_one(replica: LogReplica) -> None:
            config = replica.config
            replica.config = dataclasses.replace(config, max_batch=1)
            try:
                original(replica)
            finally:
                replica.config = config

        monkeypatch.setattr(LogReplica, "_spread_decisions", budget_of_one)
        after = self._campaign()
        assert all(result.status == "ok" for result in before + after)
        assert outcome_digest(after) != outcome_digest(before)
        assert campaign_digest([r.case for r in after]) \
            == campaign_digest([r.case for r in before])

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
