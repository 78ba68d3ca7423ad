"""Unit tests for crash-only fault plans.

``FaultPlan.crashes_at`` scripts who crashes when; ``sample_plan``
draws the crashes of a random in-model plan.  The general plan language
is covered in ``test_nemesis.py``.
"""

from __future__ import annotations

import random

import pytest

from conftest import Recorder

from repro.sim.cluster import Cluster
from repro.sim.nemesis import CrashFault, FaultPlan, FaultPlanError, \
    ModelEnvelope, sample_plan


def build_cluster(n: int = 4) -> Cluster:
    return Cluster.build(n, lambda pid, sim, net: Recorder(pid, sim, net), seed=1)


class TestCrashPlan:
    def test_events_sorted_by_time(self) -> None:
        plan = FaultPlan([CrashFault(5.0, 1), CrashFault(2.0, 0)])
        assert [e.time for e in plan.events] == [2.0, 5.0]

    def test_double_crash_rejected(self) -> None:
        with pytest.raises(FaultPlanError, match="already down"):
            FaultPlan.crashes_at((1.0, 0), (2.0, 0))

    def test_crash_at_constructor(self) -> None:
        plan = FaultPlan.crashes_at((1.0, 2), (3.0, 0))
        assert plan.crashed_pids == {0, 2}
        assert len(plan) == 2

    def test_schedule_crashes_at_times(self) -> None:
        cluster = build_cluster()
        FaultPlan.crashes_at((1.0, 2), (3.0, 0)).schedule(cluster)
        cluster.start_all()
        cluster.run_until(2.0)
        assert cluster.crashed_pids() == [2]
        cluster.run_until(4.0)
        assert cluster.crashed_pids() == [0, 2]

    def test_empty_plan_is_fine(self) -> None:
        cluster = build_cluster()
        FaultPlan.crashes_at().schedule(cluster)
        cluster.run_until(1.0)
        assert cluster.crashed_pids() == []

    def test_unknown_pid_rejected_up_front(self) -> None:
        # Scheduling a crash for a pid the cluster does not own must
        # fail at install time, not later inside the event.
        cluster = build_cluster(n=4)
        with pytest.raises(FaultPlanError, match="references pid 9"):
            FaultPlan.crashes_at((1.0, 9)).schedule(cluster)

    def test_past_time_rejected_up_front(self) -> None:
        # Crashes behind sim.now must fail loudly, not be dropped.
        cluster = build_cluster()
        cluster.run_until(5.0)
        with pytest.raises(FaultPlanError, match="in the past"):
            FaultPlan.crashes_at((1.0, 2)).schedule(cluster)

    def test_nothing_scheduled_when_validation_fails(self) -> None:
        cluster = build_cluster()
        with pytest.raises(FaultPlanError):
            FaultPlan.crashes_at((1.0, 0), (2.0, 9)).schedule(cluster)
        cluster.run_until(3.0)
        assert cluster.crashed_pids() == [], \
            "a rejected plan must not leave partial crashes behind"


def _crash_draws(seed: int, envelope: ModelEnvelope,
                 count: int = 30) -> list[tuple[CrashFault, ...]]:
    """The crash events of ``count`` plans sampled from one seeded RNG."""
    rng = random.Random(seed)
    return [sample_plan(rng, envelope).crash_events for _ in range(count)]


class TestRandomCrashPlan:
    def test_respects_max_crashes(self) -> None:
        envelope = ModelEnvelope(n=6, source=0, f=2)
        assert all(len(crashes) <= 2
                   for crashes in _crash_draws(1, envelope))

    def test_spare_pids_never_crash(self) -> None:
        # The designated ◇source is never a victim.
        envelope = ModelEnvelope(n=5, source=0, f=4)
        assert all(event.pid != 0 for crashes in _crash_draws(2, envelope)
                   for event in crashes)

    def test_times_within_bounds(self) -> None:
        envelope = ModelEnvelope(n=8, source=0, f=7, horizon=8.0)
        assert all(1.0 <= event.time <= envelope.heal_by
                   for crashes in _crash_draws(3, envelope)
                   for event in crashes)

    def test_bad_window_rejected(self) -> None:
        # Crashes land in [1, heal_by]; a window with no calm left (or
        # no room at all) is not an envelope.
        for margin in (0.0, 1.0):
            with pytest.raises(ValueError, match="heal_margin"):
                ModelEnvelope(n=3, source=0, f=1, heal_margin=margin)

    def test_reproducible_given_rng(self) -> None:
        envelope = ModelEnvelope(n=6, source=0, f=3)
        assert _crash_draws(9, envelope) == _crash_draws(9, envelope)
