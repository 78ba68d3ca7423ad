"""Tests for repro.load: Zipf sampling, client fleets, sharding, E19 rows.

The tentpole claims under test: a client fleet drives the (sharded)
replicated log deterministically; bounded leader queues shed instead of
growing without bound, and the retry discipline still lands every
command; batched multi-command slots preserve agreement and
exactly-once apply even under crash+recover faults.
"""

from __future__ import annotations

import math
import random
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drip

from repro.consensus import (
    ConsensusConfig,
    ConsensusSystem,
    check_log,
)
from repro.consensus.replica import entry_commands
from repro.load import LoadOutcome, LoadSpec, ZipfSampler
from repro.obs import Observer
from repro.sim import FaultPlan, LinkTimings
from repro.sim.topology import multi_source_links, source_links

FAST = LinkTimings(gst=3.0, pre_gst_delay_max=2.0)


class TestZipfSampler:
    def test_bounds_and_determinism(self) -> None:
        sampler = ZipfSampler(n=1_000_000, s=1.1)
        first = [sampler.sample(random.Random(42)) for _ in range(1)]
        again = [sampler.sample(random.Random(42)) for _ in range(1)]
        assert first == again
        rng = random.Random(7)
        draws = [sampler.sample(rng) for _ in range(2000)]
        assert all(0 <= draw < 1_000_000 for draw in draws)

    def test_skew_prefers_low_ranks(self) -> None:
        sampler = ZipfSampler(n=10_000, s=1.2)
        rng = random.Random(0)
        draws = [sampler.sample(rng) for _ in range(4000)]
        head = sum(1 for draw in draws if draw < 10)
        # Rank 0-9 carries far more than the 0.1% a uniform would give.
        assert head / len(draws) > 0.25

    def test_s_zero_is_uniform(self) -> None:
        sampler = ZipfSampler(n=100, s=0.0)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(5000)]
        assert all(0 <= draw < 100 for draw in draws)
        head = sum(1 for draw in draws if draw < 10)
        assert 0.05 < head / len(draws) < 0.2

    def test_s_one_special_case(self) -> None:
        sampler = ZipfSampler(n=1000, s=1.0)
        rng = random.Random(2)
        assert all(0 <= sampler.sample(rng) < 1000 for _ in range(500))

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="n"):
            ZipfSampler(n=0, s=1.0)
        with pytest.raises(ValueError, match="s"):
            ZipfSampler(n=10, s=-0.5)
        with pytest.raises(ValueError, match="s"):
            ZipfSampler(n=10, s=math.nan)


class TestLoadSpecValidation:
    def test_defaults_are_valid(self) -> None:
        LoadSpec()

    @pytest.mark.parametrize("field", ["rate", "think_time", "duration",
                                       "gst"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_positive_finite_fields(self, field: str, bad: float) -> None:
        with pytest.raises(ValueError, match=field):
            LoadSpec(**{field: bad})

    def test_omega_must_be_buildable_without_f(self) -> None:
        # Refused up front by name, not at build() with a KeyError or a
        # complaint about fields LoadSpec does not have.
        with pytest.raises(ValueError, match="omega='f-source'"):
            LoadSpec(omega="f-source")
        with pytest.raises(ValueError, match="omega must be one of"):
            LoadSpec(omega="no-such-omega")
        LoadSpec(omega="crash-recovery")

    def test_enum_fields(self) -> None:
        with pytest.raises(ValueError, match="mode"):
            LoadSpec(mode="bursty")
        with pytest.raises(ValueError, match="arrival"):
            LoadSpec(arrival="pareto")

    def test_horizon_must_cover_offered_window(self) -> None:
        # build() runs to the horizon, so it checks the bound there.
        spec = LoadSpec(n=3, start=5.0, duration=60.0, horizon=30.0)
        with pytest.raises(ValueError, match="horizon"):
            spec.build()
        with pytest.raises(ValueError, match="horizon"):
            LoadSpec(horizon=math.nan)

    def test_cluster_shape(self) -> None:
        with pytest.raises(ValueError, match="n"):
            LoadSpec(n=1)
        with pytest.raises(ValueError, match="groups"):
            LoadSpec(groups=0)
        with pytest.raises(ValueError, match="batch_size"):
            LoadSpec(batch_size=0)
        with pytest.raises(ValueError, match="queue_limit"):
            LoadSpec(queue_limit=0)

    def test_compacting_with_persist_is_rejected_by_name(self) -> None:
        # Compacting replicas are crash-stop: a silently unpersisted run
        # would still report retransmit counters as if it had persisted.
        with pytest.raises(ValueError, match="compacting=True with "
                                             "persist=True is unsupported"):
            LoadSpec(compacting=True, persist=True)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_start_non_negative_and_finite(self, bad: float) -> None:
        with pytest.raises(ValueError, match="start"):
            LoadSpec(start=bad)


def _drip_system(n: int = 4, seed: int = 0) -> ConsensusSystem:
    timings = LinkTimings(gst=2.0)
    return ConsensusSystem.build_replicated_log(
        n, lambda: multi_source_links(n, (0, 1), timings), seed=seed)


# (count, period) of the fixed-count drips in the tree: tests, the soak
# log stack, ``repro log``'s defaults and the E9/E12/E15 benchmarks.
DRIP_SHAPES = sorted({
    (2, 1.0), (3, 1.0), (5, 0.5), (5, 2.0), (8, 0.5), (8, 1.0), (10, 0.5),
    (12, 0.6), (12, 0.7), (14, 0.4), (15, 0.5), (20, 0.5), (25, 0.4),
    (25, 0.5), (30, 0.3), (30, 0.5), (40, 0.3), (50, 0.3), (60, 0.3),
    (80, 0.4), (150, 0.4), (200, 1.0)})


class TestSteadyArrivals:
    @staticmethod
    def issued(spec: LoadSpec) -> list[float]:
        # The system never starts: only the fleet's timers run.
        run = spec.build()
        run.system.run_until(spec.start + spec.duration + 1.0)
        return sorted(run.fleet.submit_times.values())

    @pytest.mark.parametrize("count, period", DRIP_SHAPES)
    def test_a_drip_issues_exactly_count(self, count: int,
                                         period: float) -> None:
        spec = drip(count, period, start=3.0, n=3, horizon=300.0)
        times = self.issued(spec)
        assert len(times) == count
        assert times == [3.0 + k / spec.rate for k in range(count)]

    @pytest.mark.parametrize("rate, duration, count", [
        (10.0, 3.0, 30), (1 / 0.6, 7.2, 12)])
    def test_summed_gaps_no_longer_add_a_command(
            self, rate: float, duration: float, count: int) -> None:
        spec = LoadSpec(n=3, clients=1, keys=1, arrival="steady",
                        rate=rate, duration=duration)
        assert len(self.issued(spec)) == count


class TestDrip:
    """The fixed-count drip: a one-client steady fleet on a built log."""

    def test_spec_is_frozen_and_pure(self) -> None:
        spec = drip(3, 1.0, start=0.0)
        with pytest.raises(AttributeError):
            spec.rate = 4.0  # type: ignore[misc]
        # Describing a drip schedules nothing: driving is explicit.
        system = _drip_system()
        before = system.sim.events_executed
        drip(5, 0.5, start=0.0)
        assert system.sim.events_executed == before

    def test_validation(self) -> None:
        # A drip's count and period reach the spec as its duration and
        # rate, so a bad shape is refused under the field it became.
        with pytest.raises(ValueError, match="duration"):
            drip(0, 1.0, start=0.0)
        with pytest.raises(ValueError, match="rate"):
            drip(1, -1.0, start=0.0)
        with pytest.raises(ValueError, match="start"):
            drip(1, 1.0, start=-1.0)

    @pytest.mark.parametrize("field", ["period"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field: str, bad: float) -> None:
        # A non-finite period becomes a NaN, zero or negative-zero rate.
        with pytest.raises(ValueError, match="rate"):
            drip(1, start=0.0, **{field: bad})

    def test_one_spec_drives_two_systems(self) -> None:
        spec = drip(2, 1.0, start=0.0)
        assert spec.drive(_drip_system()) is not spec.drive(
            _drip_system(seed=1))

    def test_commands_submitted_at_rate(self) -> None:
        system = _drip_system()
        fleet = drip(5, 2.0, start=1.0).drive(system)
        system.start_all()
        system.run_until(4.9)
        assert sorted(fleet.submit_times.values()) == [1.0, 3.0]
        system.run_until(20.0)
        assert len(fleet.submit_times) == fleet.issued == 5

    def test_submitted_set(self) -> None:
        system = _drip_system()
        fleet = drip(3, 1.0, start=0.0).drive(system)
        system.run_until(5.0)
        assert fleet.group_payloads == [
            {("w", 0, seq, 0) for seq in range(3)}]

    def test_done_after_commit(self) -> None:
        system = _drip_system()
        fleet = drip(8, 0.5, start=3.0).drive(system)
        system.start_all()
        system.run_until(4.0)
        assert not fleet.done()
        system.run_until(60.0)
        assert fleet.issued == 8 and fleet.done()
        assert check_log(system, fleet.group_payloads[0]).verdict()

    def test_a_decide_only_a_crashed_replica_saw_is_not_done(self) -> None:
        # The fleet stops re-offering at the first decide; done() asks
        # the replicas up now.  Crash the lone decider before its
        # Decides land: the command is not done until the takeover
        # recovers the chosen entry, with no re-offer to bring it back.
        system = _drip_system(n=5)
        fleet = drip(1, 1.0, start=3.0).drive(system)
        system.start_all()
        while not fleet.commit_times:
            assert system.sim.step()
        (command_id,) = fleet.commit_times
        deciders = [pid for pid in system.up_pids() if command_id
                    in system.node(pid).agreement.committed_ids]
        assert len(deciders) == 1
        system.crash(deciders[0])
        assert not fleet.outstanding and not fleet.done()
        retries = fleet.retries
        system.run_until(120.0)
        assert fleet.done() and fleet.retries == retries
        assert check_log(system, fleet.group_payloads[0]).verdict()

    def test_a_drip_past_the_default_horizon_drives(self) -> None:
        # drive() leaves the run's length to the caller: only build()
        # runs to the spec's horizon, so only build() checks it.
        spec = drip(250, 1.0, start=0.0)
        assert spec.start + spec.duration > spec.horizon
        spec.drive(_drip_system())
        with pytest.raises(ValueError, match="horizon"):
            spec.build()

    def test_retry_survives_crash_of_target(self) -> None:
        # Crash a node that receives some submissions; retries go to
        # surviving nodes, so everything still commits.
        system = _drip_system(seed=3)
        fleet = drip(10, 0.5, start=3.0).drive(system)
        FaultPlan.crashes_at((4.0, 2)).schedule(system)
        system.start_all()
        system.run_until(120.0)
        assert fleet.issued == 10 and fleet.done()

    def test_commit_latency_positive(self) -> None:
        # Every command commits at the leader strictly after the drip
        # first submitted it.
        system = _drip_system()
        fleet = drip(5, 0.5, start=3.0).drive(system)
        system.start_all()
        system.run_until(60.0)
        replica = system.node(system.node(0).omega.leader()).agreement
        committed_at = {
            command_id: replica.decision_times[instance]
            for instance in range(replica.commit_index + 1)
            for command_id, _ in entry_commands(replica.log[instance])}
        assert len(fleet.submit_times) == 5
        assert set(fleet.submit_times) <= set(committed_at)
        assert all(committed_at[command_id] > submitted_at
                   for command_id, submitted_at
                   in fleet.submit_times.items())
        assert min(fleet.latencies()) > 0


SMALL_OPEN = dict(n=5, clients=50, keys=32, rate=8.0, start=3.0,
                  duration=12.0, horizon=60.0, seed=4)


class TestOpenLoop:
    @pytest.fixture(scope="class")
    def outcome(self) -> LoadOutcome:
        return LoadSpec(**SMALL_OPEN).run()

    def test_everything_commits(self, outcome: LoadOutcome) -> None:
        assert outcome.done
        assert outcome.issued > 0
        assert outcome.committed == outcome.issued
        assert outcome.verdict.ok

    def test_measurements_present(self, outcome: LoadOutcome) -> None:
        assert outcome.throughput_cps and outcome.throughput_cps > 0
        assert outcome.latency_p50_s and outcome.latency_p50_s > 0
        assert outcome.latency_p50_s <= outcome.latency_p95_s \
            <= outcome.latency_p99_s

    def test_json_schema(self, outcome: LoadOutcome) -> None:
        document = outcome.to_json()
        assert set(document) == {"issued", "committed", "retries", "shed",
                                 "done", "duration_s", "throughput_cps",
                                 "latency_s", "per_group", "queue"}
        assert set(document["latency_s"]) == {"p50", "p95", "p99"}
        assert set(document["queue"]) == {"shed", "max_queue_depth",
                                          "batch_sizes"}
        for row in document["per_group"]:
            assert set(row) == {"group", "submitted", "committed_entries",
                                "ok"}

    def test_deterministic_across_runs(self, outcome: LoadOutcome) -> None:
        again = LoadSpec(**SMALL_OPEN).run()
        assert again.to_json() == outcome.to_json()


class TestClosedLoop:
    def test_closed_loop_self_limits_and_drains(self) -> None:
        outcome = LoadSpec(n=5, mode="closed", clients=12, keys=16,
                           think_time=3.0, start=3.0, duration=15.0,
                           horizon=60.0, seed=2).run()
        assert outcome.done
        assert outcome.verdict.ok
        # Every client issues at least once; think time caps the rest.
        assert 12 <= outcome.issued <= 12 * 8


class TestBackpressure:
    def test_queue_fills_shed_then_retry_lands_everything(self) -> None:
        # A tiny queue against a burst: the replica must shed (bounded
        # memory), the fleet must retry, and every command must still
        # commit by the horizon.
        outcome = LoadSpec(n=5, clients=40, keys=16, rate=30.0,
                           queue_limit=4, batch_size=2, window=2,
                           start=3.0, duration=8.0, horizon=120.0,
                           seed=6).run()
        assert outcome.queue["shed"] > 0 or outcome.shed > 0
        assert outcome.done
        assert outcome.committed == outcome.issued
        assert outcome.verdict.ok

    def test_replica_submit_returns_shed_signal(self) -> None:
        config = ConsensusConfig(queue_limit=2)
        system = ConsensusSystem.build_replicated_log(
            3, lambda: multi_source_links(3, (0, 1), FAST),
            consensus_config=config, seed=0)
        replica = system.node(0).agreement
        replica.start()
        assert replica.submit("a", ("w", "a"))
        assert replica.submit("b", ("w", "b"))
        assert not replica.submit("c", ("w", "c"))  # queue full: shed
        assert replica.submit("a", ("w", "a"))  # dup of pending: accepted
        assert replica.load_stats()["shed"] == 1
        assert replica.load_stats()["max_queue_depth"] == 2


class TestShardedLoad:
    def test_four_groups_pass_per_group_checkers(self) -> None:
        outcome = LoadSpec(n=5, groups=4, clients=60, keys=64, rate=10.0,
                           start=3.0, duration=12.0, horizon=60.0,
                           seed=3).run()
        assert outcome.done
        assert len(outcome.per_group) == 4
        assert all(row["ok"] for row in outcome.per_group)
        # The hash actually spreads keys: several groups saw traffic.
        busy = [row for row in outcome.per_group if row["submitted"] > 0]
        assert len(busy) >= 2

    def test_drive_spreads_over_the_groups_of_a_caller_built_system(
            self) -> None:
        system = ConsensusSystem.build_replicated_log(
            5, lambda: multi_source_links(5, (0, 1), FAST), groups=2, seed=3)
        fleet = LoadSpec(clients=30, keys=32, rate=6.0, start=3.0,
                         duration=12.0).drive(system)
        system.start_all()
        system.run_until(60.0)
        assert fleet.done()
        assert all(fleet.group_payloads)
        for group, submitted in zip(system.groups, fleet.group_payloads):
            assert check_log(group, submitted).verdict().ok

    def test_group_of_is_stable_and_total(self) -> None:
        system = LoadSpec(n=5, groups=4).build().system
        assert isinstance(system, ConsensusSystem)
        for key in range(64):
            group = system.group_of(key)
            assert 0 <= group < 4
            assert system.group_of(key) == group

    def test_machine_crash_hits_every_group(self) -> None:
        system = LoadSpec(n=5, groups=2).build().system
        system.start_all()
        system.run_until(1.0)
        system.crash(3)
        assert 3 not in system.up_pids()
        for group in system.groups:
            assert group.nodes[3].agreement.crashed

    def test_up_pids_follow_crash_and_recover_in_pid_order(self) -> None:
        system = LoadSpec(n=5, groups=2, omega="crash-recovery",
                          persist=True).build().system
        # One Omega per machine, shared by every group, on one FD network.
        for pid in system.pids:
            omegas = {id(group.nodes[pid].omega) for group in system.groups}
            assert len(omegas) == 1
        fd_network = system.groups[0].fd_network
        assert all(group.fd_network is fd_network for group in system.groups)
        assert system.networks == (fd_network, *(
            group.agreement_network for group in system.groups))
        system.start_all()
        system.run_until(1.0)
        system.crash(3)
        assert system.groups[0].nodes[3].omega.crashed
        system.crash(1)
        assert system.up_pids() == [0, 2, 4]
        system.recover(3)
        assert system.up_pids() == [0, 2, 3, 4]
        assert all(group.up_pids() == [0, 2, 3, 4] for group in system.groups)

    def test_commit_time_is_each_commands_earliest_decide(self) -> None:
        # The fleet reads only the first decide of each instance; an
        # observer of every replica's decides must find the same times.
        run = LoadSpec(n=5, groups=2, clients=60, keys=64, rate=10.0,
                       start=3.0, duration=12.0, horizon=60.0, seed=3).build()
        earliest: dict[Any, float] = {}
        entries: list[dict[int, Any]] = []

        class EveryDecide(Observer):
            def __init__(self) -> None:
                self.entries: dict[int, Any] = {}
                entries.append(self.entries)

            def on_decide(self, time: float, pid: int, value: Any) -> None:
                instance, entry = value
                self.entries[instance] = entry
                for command_id, _ in entry_commands(entry):
                    earliest[command_id] = min(
                        earliest.get(command_id, time), time)

        for group in run.system.groups:
            group.agreement_network.hub.attach(EveryDecide())
        handed: list[Any] = []
        on_commit = run.fleet._on_commit
        run.fleet._on_commit = lambda command_id, time: (
            handed.append(command_id), on_commit(command_id, time))
        outcome = run.run()
        assert outcome.done and outcome.committed > 0
        assert run.fleet.commit_times == earliest
        # One walk per instance, not one per replica that decided it.
        assert len(handed) == sum(len(entry_commands(entry))
                                  for group in entries
                                  for entry in group.values())

    def test_compacting_groups_snapshot_under_load(self) -> None:
        outcome = LoadSpec(n=5, groups=2, compacting=True, keep_tail=8,
                           clients=40, keys=32, rate=8.0, start=3.0,
                           duration=12.0, horizon=60.0, seed=5).run()
        assert outcome.done
        assert outcome.verdict.ok

    def test_machine_factory_with_persist_is_rejected_by_name(self) -> None:
        from repro.consensus import JournalMachine

        with pytest.raises(ValueError, match="machine_factory with "
                                             "persist=True is unsupported"):
            ConsensusSystem.build_replicated_log(
                3, lambda: source_links(3, 1, FAST), groups=2,
                machine_factory=JournalMachine, persist=True)


class TestBatchedSlotsProperty:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           batch_size=st.integers(min_value=2, max_value=8),
           victim=st.sampled_from([0, 2, 3]),
           crash_time=st.floats(min_value=3.0, max_value=20.0))
    @settings(max_examples=6, deadline=None)
    def test_agreement_and_exactly_once_under_crash_recover(
            self, seed: int, batch_size: int, victim: int,
            crash_time: float) -> None:
        # Batched multi-command slots must not weaken the log's safety:
        # prefix agreement and validity hold, and no command id applies
        # twice even though retries resubmit ids and a replica bounces.
        config = ConsensusConfig(batch_size=batch_size, max_batch=8)
        system = ConsensusSystem.build_replicated_log(
            4, lambda: source_links(4, 1, FAST), seed=seed,
            consensus_config=config, persist=True)
        fleet = drip(14, 0.4, start=2.0).drive(system)
        FaultPlan.crashes_at(
            (crash_time, victim, crash_time + 6.0)).schedule(system)
        system.start_all()
        system.run_until(250.0)
        report = check_log(system, fleet.group_payloads[0])
        assert report.agreement
        assert report.validity
        for pid in system.up_pids():
            applied = system.node(pid).agreement.applied_commands()
            assert len(applied) == len(set(applied)), \
                "a command applied more than once"
            assert set(applied) <= fleet.group_payloads[0]
        assert fleet.done()
