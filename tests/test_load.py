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

from repro.consensus import (
    ConsensusConfig,
    ConsensusSystem,
    ShardedLog,
    WorkloadSpec,
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
                                       "retry_period", "gst"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_positive_finite_fields(self, field: str, bad: float) -> None:
        with pytest.raises(ValueError, match=field):
            LoadSpec(**{field: bad})

    def test_enum_fields(self) -> None:
        with pytest.raises(ValueError, match="mode"):
            LoadSpec(mode="bursty")
        with pytest.raises(ValueError, match="arrival"):
            LoadSpec(arrival="pareto")

    def test_horizon_must_cover_offered_window(self) -> None:
        with pytest.raises(ValueError, match="horizon"):
            LoadSpec(start=5.0, duration=60.0, horizon=30.0)
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

    def test_group_of_is_stable_and_total(self) -> None:
        system = LoadSpec(n=5, groups=4).build().system
        assert isinstance(system, ShardedLog)
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
        assert system.shared_omega
        system.start_all()
        system.run_until(1.0)
        system.crash(3)
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
            ShardedLog.build(3, 2, lambda: source_links(3, 1, FAST),
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
        workload = WorkloadSpec(count=14, period=0.4, start=2.0,
                                retry_period=2.0).build(system)
        FaultPlan.crashes_at(
            (crash_time, victim, crash_time + 6.0)).schedule(system)
        system.start_all()
        system.run_until(250.0)
        report = check_log(system, workload.submitted)
        assert report.agreement
        assert report.validity
        for pid in system.up_pids():
            applied = system.node(pid).agreement.applied_commands()
            assert len(applied) == len(set(applied)), \
                "a command applied more than once"
            assert set(applied) <= workload.submitted
        assert workload.done()
