"""The soak campaigns as a scenario fuzzer: random legal worlds, checked.

Every campaign in ``CAMPAIGNS`` samples whole worlds (system size,
topology, loss, a nemesis plan) from ``(seed, index)``;
``run_soak_case`` judges one, sampled or written by hand.
"""

from __future__ import annotations

import pytest

from repro.harness.soak import (
    CAMPAIGNS,
    SoakCase,
    run_soak_case,
    sample_soak_case,
    soak,
)
from repro.sim.nemesis import model_violations


def _cases(seed: int, count: int) -> dict[str, list[SoakCase]]:
    return {name: [sample(seed, index) for index in range(count)]
            for name, sample in CAMPAIGNS.items()}


class TestSampling:
    def test_cases_are_reproducible(self) -> None:
        assert _cases(7, 10) == _cases(7, 10)

    def test_plans_are_in_model(self) -> None:
        # model_violations is the oracle for every sampler guarantee at
        # once: source spared, crashes within f, disturbances heal.
        for cases in _cases(1, 40).values():
            for case in cases:
                assert model_violations(case.fault_plan(),
                                        case.envelope()) == []

    def test_source_never_crashes(self) -> None:
        # The crash-recovery campaign may bounce the source; the other
        # two never touch it.
        for name in ("plain", "degraded"):
            for index in range(100):
                case = CAMPAIGNS[name](2, index)
                assert case.source not in case.fault_plan().crashed_pids

    def test_crashes_stay_below_majority(self) -> None:
        for cases in _cases(3, 60).values():
            for case in cases:
                assert len(case.fault_plan().down_pids()) \
                    <= (case.n - 1) // 2

    def test_describe_is_one_line(self) -> None:
        for name, sample in CAMPAIGNS.items():
            case = sample(4, 0)
            text = case.describe()
            assert "\n" not in text
            assert f"n={case.n}" in text
            if name == "live":
                assert text.startswith("#0 live/")
            elif name != "plain":
                assert f" {name} " in text

    def test_plan_round_trips_through_describe_field(self) -> None:
        for cases in _cases(6, 30).values():
            for case in cases:
                assert case.fault_plan().to_repro() == case.plan
                if case.plan:
                    assert f"plan=[{case.plan}]" in case.describe()


class TestExecution:
    def test_single_case_runs_and_reports(self) -> None:
        case = sample_soak_case(5, 0)
        result = run_soak_case(case)
        assert result.status == "ok", f"{case.describe()} -- {result.detail}"
        assert result.detail

    def test_fuzz_budget(self) -> None:
        results = soak(cases=6, soak_seed=11)
        assert [result.case.index for result in results] == list(range(6))
        failures = [r for r in results if r.status != "ok"]
        assert not failures, "\n".join(
            f"{r.case.describe()} -- {r.detail}" for r in failures)

    def test_fuzz_validation(self) -> None:
        with pytest.raises(ValueError, match="positive"):
            soak(cases=0)
        with pytest.raises(ValueError, match="unknown campaign 'nonesuch'"):
            soak(cases=1, campaign="nonesuch")
        with pytest.raises(ValueError, match=">= 0"):
            soak(cases=1, only=(-1,))

    def test_explicit_case_execution(self) -> None:
        # A handcrafted worst legal single-decree world: an early crash
        # and a healing partition isolating pid 4 with the source on the
        # majority side, under heavy loss, written as a plan repro string.
        case = SoakCase(index=0, kind="single-decree",
                        algorithm="comm-efficient", system="consensus",
                        n=5, source=2, targets=(), f=2, seed=99, gst=8.0,
                        fair_loss=0.5, horizon=400.0,
                        plan="crash(t=2.0,pid=0) "
                             "partition(start=10.0,end=30.0,"
                             "groups=1.2.3|4)")
        result = run_soak_case(case)
        assert result.status == "ok", result.detail
        assert result.detail.startswith("decided ")
