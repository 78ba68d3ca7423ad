"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulation, SimulationError


class TestScheduling:
    def test_call_at_runs_at_time(self, sim: Simulation) -> None:
        fired: list[float] = []
        sim.call_at(2.5, lambda: fired.append(sim.now))
        sim.run_until(5.0)
        assert fired == [2.5]

    def test_call_after_is_relative(self, sim: Simulation) -> None:
        fired: list[float] = []
        sim.call_at(1.0, lambda: sim.call_after(0.5, lambda: fired.append(sim.now)))
        sim.run_until(5.0)
        assert fired == [1.5]

    def test_scheduling_in_the_past_raises(self, sim: Simulation) -> None:
        sim.call_at(1.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.5, lambda: None)

    def test_negative_delay_raises(self, sim: Simulation) -> None:
        with pytest.raises(SimulationError):
            sim.call_after(-0.1, lambda: None)

    def test_scheduling_at_now_is_allowed(self, sim: Simulation) -> None:
        fired: list[float] = []
        sim.call_at(1.0, lambda: sim.call_at(sim.now, lambda: fired.append(sim.now)))
        sim.run_until(2.0)
        assert fired == [1.0]


class TestOrdering:
    def test_events_fire_in_time_order(self, sim: Simulation) -> None:
        order: list[int] = []
        sim.call_at(3.0, lambda: order.append(3))
        sim.call_at(1.0, lambda: order.append(1))
        sim.call_at(2.0, lambda: order.append(2))
        sim.run_until(10.0)
        assert order == [1, 2, 3]

    def test_same_time_events_fire_in_schedule_order(self, sim: Simulation) -> None:
        order: list[str] = []
        sim.call_at(1.0, lambda: order.append("first"))
        sim.call_at(1.0, lambda: order.append("second"))
        sim.call_at(1.0, lambda: order.append("third"))
        sim.run_until(2.0)
        assert order == ["first", "second", "third"]

    def test_now_tracks_current_event(self, sim: Simulation) -> None:
        seen: list[float] = []
        for t in (0.5, 1.5, 2.5):
            sim.call_at(t, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [0.5, 1.5, 2.5]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim: Simulation) -> None:
        fired: list[int] = []
        handle = sim.call_at(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run_until(2.0)
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self, sim: Simulation) -> None:
        handle = sim.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_handle_reports_time(self, sim: Simulation) -> None:
        handle = sim.call_at(4.25, lambda: None)
        assert handle.time == 4.25


class TestRunUntil:
    def test_deadline_inclusive(self, sim: Simulation) -> None:
        fired: list[float] = []
        sim.call_at(5.0, lambda: fired.append(sim.now))
        sim.run_until(5.0)
        assert fired == [5.0]

    def test_clock_advances_to_deadline_without_events(self, sim: Simulation) -> None:
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_events_beyond_deadline_stay_queued(self, sim: Simulation) -> None:
        fired: list[float] = []
        sim.call_at(10.0, lambda: fired.append(sim.now))
        sim.run_until(5.0)
        assert fired == []
        assert sim.pending() == 1
        sim.run_until(10.0)
        assert fired == [10.0]

    def test_run_for_is_relative(self, sim: Simulation) -> None:
        sim.run_until(3.0)
        sim.run_for(2.0)
        assert sim.now == 5.0


class TestStepAndDrain:
    def test_step_runs_one_event(self, sim: Simulation) -> None:
        fired: list[int] = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(2.0, lambda: fired.append(2))
        assert sim.step()
        assert fired == [1]

    def test_step_returns_false_when_empty(self, sim: Simulation) -> None:
        assert not sim.step()

    def test_drain_runs_everything(self, sim: Simulation) -> None:
        fired: list[int] = []
        for t in range(5):
            sim.call_at(float(t), lambda t=t: fired.append(t))
        assert sim.drain() == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_drain_guards_against_runaway(self, sim: Simulation) -> None:
        def reschedule() -> None:
            sim.call_after(0.1, reschedule)

        sim.call_after(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.drain(max_events=100)

    def test_pending_ignores_cancelled(self, sim: Simulation) -> None:
        handle = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        handle.cancel()
        assert sim.pending() == 1
        assert sorted(sim.pending_times()) == [2.0]


class TestProbes:
    def test_probe_fires_periodically(self, sim: Simulation) -> None:
        ticks: list[float] = []
        sim.add_probe(1.0, ticks.append)
        sim.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_probe_period_must_be_positive(self, sim: Simulation) -> None:
        with pytest.raises(SimulationError):
            sim.add_probe(0.0, lambda now: None)

    def test_probe_sees_simulated_time(self, sim: Simulation) -> None:
        seen: list[float] = []
        sim.add_probe(0.5, lambda now: seen.append(now - sim.now))
        sim.run_until(2.0)
        assert all(diff == 0.0 for diff in seen)


class TestTombstones:
    """EventHandle.cancel is O(1) tombstoning; semantics must not change."""

    def test_cancel_releases_the_action_immediately(self, sim: Simulation) -> None:
        import weakref

        class Payload:
            def __call__(self) -> None:  # pragma: no cover - never fires
                raise AssertionError("cancelled event fired")

        payload = Payload()
        ref = weakref.ref(payload)
        handle = sim.call_at(1.0, payload)
        del payload
        assert ref() is not None  # the heap keeps the action alive...
        handle.cancel()
        assert ref() is None  # ...until cancellation drops it

    def test_mass_cancellation_compacts_the_heap(self, sim: Simulation) -> None:
        handles = [sim.call_at(float(i + 1), lambda: None) for i in range(500)]
        keeper = sim.call_at(1000.0, lambda: None)
        for handle in handles:
            handle.cancel()
        # Tombstones must not linger: the compaction sweep runs once the
        # cancelled events dominate, so the heap stays O(live events).
        assert sim.pending() == 1
        assert len(sim._heap) < 250
        assert not keeper.cancelled

    def test_cancel_after_fire_keeps_pending_accurate(self, sim: Simulation) -> None:
        handle = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run_until(1.5)
        handle.cancel()  # the event already ran; must not count as tombstone
        assert sim.pending() == 1
        sim.run_until(3.0)
        assert sim.pending() == 0

    def test_cancellation_during_compaction_window_preserves_order(
            self, sim: Simulation) -> None:
        fired: list[float] = []
        for i in range(200):
            handle = sim.call_at(float(i), lambda: None)
            handle.cancel()
        for t in (5.0, 1.0, 3.0):
            sim.call_at(t, lambda t=t: fired.append(t))
        sim.run_until(10.0)
        assert fired == [1.0, 3.0, 5.0]

    def test_events_executed_counts_only_live_events(self, sim: Simulation) -> None:
        sim.call_at(1.0, lambda: None)
        cancelled = sim.call_at(2.0, lambda: None)
        cancelled.cancel()
        sim.call_at(3.0, lambda: None)
        sim.run_until(5.0)
        assert sim.events_executed == 2

    def test_post_after_orders_with_call_at(self, sim: Simulation) -> None:
        order: list[str] = []
        sim.call_at(1.0, lambda: order.append("handle"))
        sim.post_at(1.0, lambda: order.append("posted"))
        sim.post_after(1.0, lambda: order.append("posted-after"))
        sim.run_until(2.0)
        assert order == ["handle", "posted", "posted-after"]


class TestDeterminism:
    def test_identical_runs_identical_interleavings(self) -> None:
        def run() -> list[tuple[float, int]]:
            sim = Simulation(seed=7)
            log: list[tuple[float, int]] = []

            def emit(tag: int) -> None:
                log.append((sim.now, tag))
                delay = sim.rng.stream("delays").uniform(0.1, 1.0)
                if sim.now < 20:
                    sim.call_after(delay, lambda: emit(tag))

            emit(1)
            emit(2)
            sim.run_until(25.0)
            return log

        assert run() == run()


class TestCompactThreshold:
    def test_timer_churn_bounds_heap_size(self) -> None:
        """Constantly-reset timers must not grow the heap without bound.

        The sentinel timer keeps the tombstones off the heap top (where
        the run loop would discard them for free), so only the
        compaction sweep can reclaim them — the case the threshold
        policy exists for.
        """
        sim = Simulation(seed=0)
        sentinel = sim.call_after(500.0, lambda: None)
        handle = sim.call_after(600.0, lambda: None)
        peak = 0

        def churn() -> None:
            nonlocal handle, peak
            handle.cancel()
            handle = sim.call_after(600.0, lambda: None)
            peak = max(peak, len(sim._heap))
            if sim.now < 50.0:
                sim.post_after(0.01, churn)

        sim.post_after(0.01, churn)
        sim.run_until(60.0)
        # ~5000 cancels happened; the live heap holds two timers.  The
        # compaction policy keeps the heap within a small multiple of
        # the 64-tombstone threshold rather than letting them accumulate.
        assert sim.pending() == 2
        assert not sentinel.cancelled
        assert peak <= 4 * 64 + 8
        assert sim.profile()["compactions"] > 0

    def test_sweep_waits_for_64_tombstones(self) -> None:
        def compactions(cancels: int) -> int:
            sim = Simulation(seed=0)
            for _ in range(cancels):
                sim.call_after(10.0, lambda: None).cancel()
            return sim.profile()["compactions"]

        assert compactions(63) == 0
        assert compactions(64) == 1

    def test_bucket_width_must_be_power_of_two(self) -> None:
        with pytest.raises(SimulationError):
            Simulation(bucket_width=0.1)
        Simulation(bucket_width=0.25)  # fine


class TestBatchPaths:
    def test_post_batch_matches_sequential_posts(self) -> None:
        def run(batched: bool) -> list[tuple[float, str]]:
            sim = Simulation(seed=0)
            log: list[tuple[float, str]] = []
            items = [(0.5, lambda: log.append((sim.now, "a"))),
                     (0.25, lambda: log.append((sim.now, "b"))),
                     (0.5, lambda: log.append((sim.now, "c")))]
            if batched:
                sim.post_batch(items)
            else:
                for time, action in items:
                    sim.post_at(time, action)
            sim.run_until(1.0)
            return log

        assert run(True) == run(False) == [(0.25, "b"), (0.5, "a"), (0.5, "c")]

    def test_post_batch_rejects_past_times(self, sim: Simulation) -> None:
        sim.post_at(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.post_batch([(2.0, lambda: None)])

    def test_post_at_far_future_and_infinity(self, sim: Simulation) -> None:
        fired: list[float] = []
        sim.post_at(float("inf"), lambda: fired.append(sim.now))
        sim.post_at(2.0**61, lambda: fired.append(sim.now))
        sim.post_at(1.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [1.0]
        assert sim.pending() == 2

    def test_run_batch_drains_one_window(self, sim: Simulation) -> None:
        log: list[str] = []
        sim.post_at(0.01, lambda: log.append("w0-a"))
        sim.post_at(0.05, lambda: log.append("w0-b"))
        sim.post_at(0.0625, lambda: log.append("w1"))  # next window
        assert sim.run_batch() == 2
        assert log == ["w0-a", "w0-b"]
        assert sim.now == 0.05  # clock sits on the last executed event
        assert sim.run_batch() == 1
        assert log == ["w0-a", "w0-b", "w1"]
        assert sim.run_batch() == 0

    def test_run_batch_respects_deadline(self, sim: Simulation) -> None:
        log: list[str] = []
        sim.post_at(0.01, lambda: log.append("a"))
        sim.post_at(0.05, lambda: log.append("b"))
        assert sim.run_batch(deadline=0.02) == 1
        assert log == ["a"]

    def test_late_posts_into_open_window_still_order(self) -> None:
        # An event that posts into its own (already sorted) window must
        # merge through the overflow heap without losing order.
        sim = Simulation(seed=0)
        log: list[tuple[float, str]] = []

        def first() -> None:
            log.append((sim.now, "first"))
            sim.post_at(sim.now + 0.01, lambda: log.append((sim.now, "late")))

        sim.post_at(0.01, first)
        sim.post_at(0.03, lambda: log.append((sim.now, "second")))
        sim.run_until(1.0)
        assert log == [(0.01, "first"), (0.02, "late"), (0.03, "second")]
