"""Tests for the Omega QoS metrics."""

from __future__ import annotations

import pytest

from repro.core import analyze_omega_run, measure_qos, output_at
from repro.core.omega import OmegaProtocol
from repro.harness import OmegaScenario
from repro.sim import Cluster, LinkTimings
from repro.sim.topology import all_timely_links


class Scripted(OmegaProtocol):
    """Output history driven directly by the test."""


def scripted_cluster(n: int = 3) -> Cluster:
    return Cluster.build(n, lambda pid, sim, net: Scripted(pid, sim, net),
                         links=all_timely_links(n), seed=0, trace=True)


class TestOutputAt:
    def test_before_start_is_none(self) -> None:
        assert output_at([(1.0, 5)], 0.5) is None

    def test_piecewise_lookup(self) -> None:
        history = [(0.0, 0), (2.0, 1), (5.0, 2)]
        assert output_at(history, 0.0) == 0
        assert output_at(history, 1.999) == 0
        assert output_at(history, 2.0) == 1
        assert output_at(history, 10.0) == 2

    def test_empty_history(self) -> None:
        assert output_at([], 1.0) is None


class TestAgreementFractions:
    def test_full_agreement_run(self) -> None:
        cluster = scripted_cluster()
        cluster.start_all()
        for pid in cluster.pids:
            cluster.process(pid)._output(1)
        cluster.run_until(10.0)
        qos = measure_qos(cluster)
        assert qos.agreement_fraction == pytest.approx(1.0)
        assert qos.good_fraction == pytest.approx(1.0)

    def test_partial_agreement_window(self) -> None:
        cluster = scripted_cluster()
        cluster.start_all()          # outputs: 0, 1, 2 (disagreement)
        cluster.run_until(5.0)
        for pid in cluster.pids:
            cluster.process(pid)._output(0)  # agree from t=5
        cluster.run_until(10.0)
        qos = measure_qos(cluster)
        assert qos.agreement_fraction == pytest.approx(0.5)

    def test_good_fraction_excludes_dead_leader_time(self) -> None:
        cluster = scripted_cluster()
        cluster.start_all()
        for pid in cluster.pids:
            cluster.process(pid)._output(2)
        cluster.run_until(4.0)
        cluster.crash(2)             # everyone still trusts 2 (agreement,
        cluster.run_until(10.0)      # but not "good") until the end
        qos = measure_qos(cluster)
        assert qos.agreement_fraction == pytest.approx(1.0)
        assert qos.good_fraction == pytest.approx(0.4)

    def test_window_validation(self) -> None:
        cluster = scripted_cluster()
        with pytest.raises(ValueError):
            measure_qos(cluster, start=5.0, end=5.0)


class TestDetectionTimes:
    def test_detection_measured_from_crash_to_final_departure(self) -> None:
        cluster = scripted_cluster()
        cluster.start_all()
        for pid in cluster.pids:
            cluster.process(pid)._output(2)
        cluster.run_until(4.0)
        cluster.crash(2)
        cluster.run_until(7.0)
        cluster.process(0)._output(0)
        cluster.process(1)._output(0)
        cluster.run_until(10.0)
        qos = measure_qos(cluster)
        assert qos.detection_times == {2: pytest.approx(3.0)}
        assert qos.worst_detection_time == pytest.approx(3.0)

    def test_flap_back_counts_against_detector(self) -> None:
        cluster = scripted_cluster()
        cluster.start_all()
        for pid in cluster.pids:
            cluster.process(pid)._output(2)
        cluster.run_until(4.0)
        cluster.crash(2)
        cluster.run_until(5.0)
        cluster.process(0)._output(0)  # leaves...
        cluster.run_until(6.0)
        cluster.process(0)._output(2)  # ...flaps back to the dead leader
        cluster.run_until(8.0)
        cluster.process(0)._output(0)  # final departure
        cluster.process(1)._output(0)
        cluster.run_until(10.0)
        qos = measure_qos(cluster)
        assert qos.detection_times[2] == pytest.approx(4.0)

    def test_censored_when_never_departing(self) -> None:
        cluster = scripted_cluster()
        cluster.start_all()
        for pid in cluster.pids:
            cluster.process(pid)._output(2)
        cluster.run_until(4.0)
        cluster.crash(2)
        cluster.run_until(10.0)
        qos = measure_qos(cluster)
        assert qos.detection_times[2] == pytest.approx(6.0), \
            "censored at the window end"

    def test_no_crashes_no_detection_entries(self) -> None:
        cluster = scripted_cluster()
        cluster.start_all()
        cluster.run_until(5.0)
        qos = measure_qos(cluster)
        assert qos.detection_times == {}
        assert qos.worst_detection_time is None


class TestEmptyHistoryWitnesses:
    """A process with no output in the window must not zero the fractions."""

    def test_unstarted_process_does_not_zero_agreement(self) -> None:
        cluster = scripted_cluster()
        for pid in (0, 1):           # pid 2 never starts: empty history
            cluster.process(pid).start()
            cluster.process(pid)._output(1)
        cluster.run_until(10.0)
        qos = measure_qos(cluster)
        assert qos.agreement_fraction == pytest.approx(1.0)
        assert qos.good_fraction == pytest.approx(1.0)

    def test_all_empty_histories_yield_zero_fractions(self) -> None:
        cluster = scripted_cluster()
        cluster.run_until(5.0)       # nobody ever started
        qos = measure_qos(cluster)
        assert qos.agreement_fraction == 0.0
        assert qos.good_fraction == 0.0

    def test_midwindow_start_still_denies_early_agreement(self) -> None:
        cluster = scripted_cluster()
        for pid in (0, 1):
            cluster.process(pid).start()
            cluster.process(pid)._output(1)
        cluster.run_until(5.0)
        cluster.process(2).start()   # joins halfway through the window
        cluster.process(2)._output(1)
        cluster.run_until(10.0)
        qos = measure_qos(cluster)
        assert qos.agreement_fraction == pytest.approx(0.5)


class TestQoSUnderFaultPlans:
    """Known-answer QoS under degraded and flapping link plans."""

    @staticmethod
    def _run(faults: str, seed: int = 3):
        scenario = OmegaScenario(
            algorithm="comm-efficient", n=4, system="source", source=2,
            seed=seed, horizon=120.0, faults=faults, trace=True,
            timings=LinkTimings(gst=5.0))
        cluster = scenario.build()
        cluster.start_all()
        cluster.run_until(120.0)
        return cluster

    _STORM = ("degrade(start=20.0,end=60.0,"
              "pairs=0>1;0>2;0>3;1>0;1>2;1>3;2>0;2>1;2>3;3>0;3>1;3>2,"
              "loss=0.5,delay=0.5)")
    _FLAP = ("flap(start=20.0,end=60.0,pairs=2>0;2>1;2>3,"
             "period=10.0,up=0.2)")

    def test_degrade_storm_dents_agreement_then_heals(self) -> None:
        cluster = self._run(self._STORM)
        storm = measure_qos(cluster, start=20.0, end=60.0)
        calm = measure_qos(cluster, start=90.0, end=120.0)
        assert storm.agreement_fraction < 1.0
        assert calm.agreement_fraction > 0.95
        assert storm.good_fraction <= storm.agreement_fraction

    def test_flapping_source_recovers_after_window(self) -> None:
        cluster = self._run(self._FLAP)
        whole = measure_qos(cluster, start=20.0, end=120.0)
        calm = measure_qos(cluster, start=80.0, end=120.0)
        assert whole.total_changes > 0
        assert calm.agreement_fraction > 0.95

    def test_fault_plan_qos_is_deterministic(self) -> None:
        first = measure_qos(self._run(self._STORM), start=20.0, end=120.0)
        second = measure_qos(self._run(self._STORM), start=20.0, end=120.0)
        assert first.agreement_fraction == second.agreement_fraction
        assert first.good_fraction == second.good_fraction
        assert first.changes_by_pid == second.changes_by_pid


class TestPacketAccountingDeterminism:
    """Same seed => byte-identical packet tallies, at any parallelism."""

    def test_scenario_tallies_are_reproducible(self) -> None:
        from repro.obs.observer import capture
        from repro.obs.report import RunRecorder

        def tally() -> dict:
            scenario = OmegaScenario(algorithm="comm-efficient", n=4,
                                     system="source", source=2, seed=5,
                                     horizon=60.0)
            with capture(RunRecorder):
                outcome = scenario.run()
            network = outcome.cluster.network
            return network.hub.first(RunRecorder).packets_block(network.mtu)

        assert tally() == tally()

    def test_e17_results_identical_across_jobs(self) -> None:
        from repro.harness.bench import default_suite, run_suite

        cases = [case for case in default_suite(seed=7, quick=True)
                 if case.experiment == "e17"]
        assert cases, "quick suite must include e17 rows"
        serial = run_suite(cases, jobs=1)
        parallel = run_suite(cases, jobs=2)
        strip = lambda results: [  # noqa: E731 - local projection
            {key: value for key, value in result.items() if key != "timing"}
            for result in results]
        assert strip(serial) == strip(parallel)


class TestOnRealRuns:
    def test_comm_efficient_qos_is_high(self) -> None:
        scenario = OmegaScenario(algorithm="comm-efficient", n=5,
                                 system="source", source=1, seed=4,
                                 horizon=200.0, trace=True)
        cluster = scenario.build()
        cluster.start_all()
        cluster.run_until(200.0)
        assert analyze_omega_run(cluster).omega_holds
        qos = measure_qos(cluster, start=50.0)
        assert qos.agreement_fraction > 0.95
        assert qos.good_fraction > 0.95

    def test_flap_counts_match_checker(self) -> None:
        scenario = OmegaScenario(algorithm="source", n=4, system="source",
                                 source=0, seed=2, horizon=100.0, trace=True)
        cluster = scenario.build()
        cluster.start_all()
        cluster.run_until(100.0)
        qos = measure_qos(cluster)
        report = analyze_omega_run(cluster)
        assert qos.total_changes == report.total_changes
