"""Crash-recovery: process lifecycle, recovering Omega, persisted consensus.

Covers the recovery extension end to end — the :meth:`Process.recover`
lifecycle edge cases, stale-incarnation message discard, the
crash-recovery Omega's persistence discipline, consensus safety across
recoveries (including the control experiment showing what goes wrong
*without* stable storage), the recovery soak campaign sampler, and the
``recoveries`` block of ``repro-report/v1``.
"""

from __future__ import annotations

import pytest

from conftest import Probe, Recorder

from repro.core import OmegaConfig, analyze_omega_run
from repro.core.recovering import RecoveringOmega
from repro.core.registry import algorithm_class
from repro.harness.soak import (
    recovery_control_case,
    run_soak_case,
    sample_recovery_case,
)
from repro.obs import validate_report
from repro.obs.report import RunRecorder, RunReport
from repro.obs.verdict import Verdict
from repro.sim import Cluster, FaultPlan, Simulation
from repro.sim.network import Network
from repro.sim.process import ProcessError
from repro.sim.topology import all_timely_links, apply_links, source_links
from repro.consensus import ConsensusSystem, WorkloadSpec, check_log, \
    check_single_decree


# ----------------------------------------------------------------------
# Process lifecycle edge cases (satellite: lifecycle tests)
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_recover_without_crash_raises(self, sim: Simulation,
                                          network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        with pytest.raises(ProcessError, match="is up"):
            p.recover()

    def test_double_recover_raises(self, sim: Simulation,
                                   network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.crash()
        p.recover()
        with pytest.raises(ProcessError, match="incarnation 1"):
            p.recover()

    def test_incarnations_monotone_across_bounces(self, sim: Simulation,
                                                  network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        seen = [p.incarnation]
        for _ in range(3):
            p.crash()
            p.recover()
            seen.append(p.incarnation)
        assert seen == [0, 1, 2, 3]

    def test_crash_clears_paused(self, sim: Simulation,
                                 network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.pause()
        assert p.paused
        p.crash()
        assert not p.paused
        # A held message from pause time must not replay into the new
        # incarnation.
        p.recover()
        assert not p.paused
        assert p.received == []

    def test_pause_resume_noop_while_down(self, sim: Simulation,
                                          network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.crash()
        p.pause()
        assert not p.paused
        p.resume()  # no-op, no raise
        assert not p.paused

    def test_start_noop_while_down(self, sim: Simulation,
                                   network: Network) -> None:
        starts: list[int] = []

        class Once(Recorder):
            def on_start(self) -> None:
                super().on_start()
                starts.append(1)

        p = Once(0, sim, network)
        p.start()
        p.crash()
        p.start()
        assert starts == [1]

    def test_timers_noop_while_down(self, sim: Simulation,
                                    network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.crash()
        p.set_timer("t", 1.0)
        p.set_periodic("p", 1.0)
        assert not p.has_timer("t")
        assert not p.has_timer("p")
        sim.run_until(5.0)
        assert p.timer_fires == []

    def test_on_recover_hook_runs(self, sim: Simulation,
                                  network: Network) -> None:
        hooks: list[int] = []

        class Hooked(Recorder):
            def on_recover(self) -> None:
                hooks.append(self.incarnation)

        p = Hooked(0, sim, network)
        p.start()
        p.crash()
        p.recover()
        assert hooks == [1]

    def test_stale_incarnation_messages_discarded(self, sim: Simulation,
                                                  network: Network) -> None:
        a = Recorder(0, sim, network)
        b = Recorder(1, sim, network)
        a.start()
        b.start()
        a.send(1, Probe(0, payload=1))  # incarnation 0, in flight
        a.crash()
        a.recover()  # incarnation 1 before the delivery lands
        sim.run_until(1.0)
        assert b.received == []
        a.send(1, Probe(0, payload=2))  # the new incarnation's sends pass
        sim.run_until(2.0)
        assert [m.payload for _t, m in b.received] == [2]


# ----------------------------------------------------------------------
# Recovery-aware Omega
# ----------------------------------------------------------------------

def _recovering_cluster(n: int = 3, seed: int = 0) -> Cluster:
    config = OmegaConfig(eta=1.0)
    return Cluster.build(
        n, lambda pid, sim, net: RecoveringOmega(pid, sim, net, config),
        links=all_timely_links(n), seed=seed)


class TestRecoveringOmega:
    def test_registered_under_crash_recovery(self) -> None:
        assert algorithm_class("crash-recovery") is RecoveringOmega

    def test_bounced_process_rejoins_and_omega_holds(self) -> None:
        cluster = _recovering_cluster()
        FaultPlan.crashes_at((5.0, 0, 20.0)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(120.0)
        report = analyze_omega_run(cluster)
        assert report.omega_holds
        assert cluster.process(0).incarnation == 1
        assert cluster.process(0).epoch == 1

    def test_recovery_penalty_worsens_priority(self) -> None:
        cluster = _recovering_cluster()
        process = cluster.process(0)
        cluster.start_all()
        cluster.run_until(5.0)
        before = (process.counter, process.phase)
        cluster.crash(0)
        cluster.sim.run_until(6.0)
        cluster.recover(0)
        cluster.run_until(7.0)
        assert process.counter >= before[0] + 1
        assert process.phase >= before[1] + 1

    def test_counters_survive_restart_durably(self) -> None:
        # The durable epoch is monotone across bounces even though each
        # bounce resets all volatile state.
        cluster = _recovering_cluster()
        cluster.start_all()
        epochs = []
        for round_number in range(3):
            cluster.run_until(5.0 * (round_number + 1))
            cluster.crash(0)
            cluster.recover(0)
            epochs.append(cluster.process(0).epoch)
        assert epochs == [1, 2, 3]

    def test_corrupt_counter_restarts_from_default(self) -> None:
        cluster = _recovering_cluster()
        cluster.start_all()
        cluster.run_until(5.0)
        process = cluster.process(0)
        cluster.crash(0)
        process.storage.corrupt("counter")
        cluster.recover(0)
        assert process.corrupt_reads == 1
        assert process.counter >= 1  # default 0 + recovery penalty


# ----------------------------------------------------------------------
# Persisted consensus across recoveries
# ----------------------------------------------------------------------

def _single_decree(n: int = 3, persist: bool = True,
                   seed: int = 3) -> ConsensusSystem:
    return ConsensusSystem.build_single_decree(
        n, lambda: source_links(n, 0), omega_name="crash-recovery",
        proposals=[f"v{pid}" for pid in range(n)], seed=seed,
        persist=persist)


class TestPersistedConsensus:
    def test_acceptor_remembers_promise_across_bounce(self) -> None:
        system = _single_decree()
        FaultPlan.crashes_at((4.0, 1, 12.0)).schedule(system)
        system.start_all()
        system.run_until(60.0)
        report = check_single_decree(system)
        assert report.agreement
        assert len(report.decided) == 3
        agreement = system.node(1).agreement
        assert agreement.incarnation == 1
        assert agreement.storage.get("promised") is not None

    def test_log_replica_rejoins_after_bounce(self) -> None:
        system = ConsensusSystem.build_replicated_log(
            3, lambda: source_links(3, 0), omega_name="crash-recovery",
            seed=5, persist=True)
        workload = WorkloadSpec(count=8, period=1.0, start=1.0).build(system)
        FaultPlan.crashes_at((3.0, 2, 10.0)).schedule(system)
        system.start_all()
        system.run_until(120.0)
        report = check_log(system, set(workload.submitted))
        assert report.agreement and report.validity
        assert workload.done()
        replica = system.node(2).agreement
        assert replica.commit_index >= 7

    def test_recovered_acceptor_state_loaded_from_storage(self) -> None:
        system = _single_decree()
        system.start_all()
        system.run_until(20.0)  # decided by now
        agreement = system.node(1).agreement
        durable_decision = agreement.storage.get("decision")
        system.crash(1)
        system.recover(1)
        # Reloaded synchronously at recover time, before any message.
        assert agreement.decision == durable_decision[0]

    def test_unpersisted_control_case_violates_agreement(self) -> None:
        ok, detail = recovery_control_case(persist=False)
        assert not ok
        assert "decisions" in detail

    def test_persisted_control_case_holds(self) -> None:
        ok, detail = recovery_control_case(persist=True)
        assert ok

    def test_recovered_owner_stays_above_the_promise_it_restored(
            self) -> None:
        # Hand-delivered, legal schedule (asynchrony + one bounce + a
        # transiently wrong Omega): p2 prepares ballot (0, 2) with
        # {p2, p0} and proposes v2; p0 bounces and trusts itself.  Had
        # its round come back from its own last ballot only, it would
        # run ballot (0, 0) — below its durable promise — with the fresh
        # p1, count its implicit promise and vote, and decide a second
        # value.  Restored above the promise, it runs ballot (1, 0), and
        # p1 refuses p2's delayed proposal.
        from repro.consensus import ConsensusConfig, SingleDecreeConsensus
        from repro.consensus.messages import (Accepted, Prepare, Promise,
                                              Propose)

        sim = Simulation()
        network = Network(sim)
        leaders = {0: 99, 1: 99, 2: 2}
        outbox: list = []
        processes = [
            SingleDecreeConsensus(
                pid, sim, network, 3, f"v{pid}",
                leader_of=lambda pid=pid: leaders[pid],
                config=ConsensusConfig(sync_latency=0.0), persist=True)
            for pid in range(3)]
        for process in processes:
            process.send = (lambda dst, message, src=process.pid:
                            outbox.append((src, dst, message)))

        def take(kind: type, src: int, dst: int):  # noqa: ANN202
            found = next(entry for entry in outbox
                         if isinstance(entry[2], kind)
                         and entry[:2] == (src, dst))
            outbox.remove(found)
            return found[2]

        p0, p1, p2 = processes
        p2.start()
        p0.start()
        p0.deliver(take(Prepare, 2, 0))
        p2.deliver(take(Promise, 0, 2))
        sim.run_until(0.6)  # p2's next tick proposes to p1 as well
        delayed = take(Propose, 2, 1)
        p0.crash()
        leaders[0] = 0
        p0.recover()
        p1.start()
        p1.deliver(take(Prepare, 0, 1))
        p0.deliver(take(Promise, 1, 0))
        p1.deliver(take(Propose, 0, 1))
        p0.deliver(take(Accepted, 1, 0))
        p1.deliver(delayed)
        answers = [entry for entry in outbox if entry[:2] == (1, 2)]
        if answers and isinstance(answers[-1][2], Accepted):
            p2.deliver(answers[-1][2])
        decisions = {process.decision for process in processes
                     if process.decision is not None}
        assert len(decisions) <= 1, f"agreement violated: {decisions}"


# ----------------------------------------------------------------------
# Recovery soak campaign
# ----------------------------------------------------------------------

class TestRecoveryCampaign:
    def test_sampler_is_deterministic(self) -> None:
        a = sample_recovery_case(7, 3)
        b = sample_recovery_case(7, 3)
        assert a == b
        assert a.recovery
        assert a.algorithm == "crash-recovery"
        assert "recovery" in a.describe()

    def test_sampler_covers_all_stacks(self) -> None:
        kinds = {sample_recovery_case(7, index).kind for index in range(12)}
        assert kinds == {"omega", "single-decree", "log"}

    def test_sampled_plans_include_recoveries(self) -> None:
        plans = [sample_recovery_case(7, index).fault_plan()
                 for index in range(8)]
        assert any("recover" in plan.to_repro() for plan in plans)

    def test_one_sampled_case_passes(self) -> None:
        result = run_soak_case(sample_recovery_case(7, 0))
        assert result.status == "ok"
        assert "storage[" in result.detail


# ----------------------------------------------------------------------
# repro-report/v1: the recoveries block
# ----------------------------------------------------------------------

def _report_with(recorder: RunRecorder) -> dict:
    sim = Simulation(seed=0)
    network = Network(sim)
    apply_links(network, all_timely_links(2))
    network.hub.attach(recorder)
    return RunReport("scenario", "t", {}, Verdict.passed(), sim,
                     [("cluster", network)]).to_json()


class TestReportRecoveries:
    def test_block_shape_and_validation(self) -> None:
        recorder = RunRecorder()
        recorder.recovers = [(4.0, 1, 1), (9.0, 1, 2), (6.0, 0, 1)]
        recorder.syncs_ok = 5
        recorder.syncs_failed = 1
        document = _report_with(recorder)
        assert validate_report(document) == []
        block = document["recoveries"]
        assert block["count"] == 3
        assert [e["pid"] for e in block["events"]] == [1, 0, 1]
        assert block["timelines"]["1"][-1]["incarnation"] == 2
        assert block["storage"] == {"syncs_ok": 5, "syncs_failed": 1}

    def test_validator_flags_bad_block(self) -> None:
        document = _report_with(RunRecorder())
        document["recoveries"]["count"] = 9
        problems = validate_report(document)
        assert any("recoveries.count" in p for p in problems)
        del document["recoveries"]
        problems = validate_report(document)
        assert any("recoveries" in p for p in problems)

    def test_live_run_populates_block(self) -> None:
        cluster = _recovering_cluster()
        recorder = cluster.network.hub.attach(RunRecorder())
        FaultPlan.crashes_at((3.0, 1, 8.0)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(30.0)
        document = RunReport("scenario", "t", {}, Verdict.passed(),
                             cluster.sim,
                             [("cluster", cluster.network)]).to_json()
        assert validate_report(document) == []
        block = document["recoveries"]
        assert block["count"] == 1
        assert block["events"][0]["pid"] == 1
        assert block["timelines"]["1"] == [
            {"time": 8.0, "incarnation": 1}]
        assert block["storage"]["syncs_ok"] > 0
