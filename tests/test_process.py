"""Unit tests for the actor-style process runtime."""

from __future__ import annotations

from conftest import Probe, Recorder, make_pair

from repro.sim.engine import Simulation
from repro.sim.network import Network


class TestLifecycle:
    def test_start_runs_on_start_once(self, sim: Simulation, network: Network) -> None:
        starts: list[int] = []

        class Once(Recorder):
            def on_start(self) -> None:
                super().on_start()
                starts.append(1)

        p = Once(0, sim, network)
        p.start()
        p.start()
        assert starts == [1]
        assert p.started

    def test_crashed_process_cannot_start(self, sim: Simulation,
                                           network: Network) -> None:
        p = Recorder(0, sim, network)
        p.crash()
        p.start()
        assert not p.started

    def test_crash_is_idempotent(self, sim: Simulation, network: Network) -> None:
        crashes: list[int] = []

        class Crashy(Recorder):
            def on_crash(self) -> None:
                crashes.append(1)

        p = Crashy(0, sim, network)
        p.start()
        p.crash()
        p.crash()
        assert crashes == [1]
        assert p.crashed

    def test_crash_recorded_in_trace(self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        sim.run_until(3.0)
        p.crash()
        assert [c.pid for c in network.trace.crashes()] == [0]


class TestMessaging:
    def test_send_delivers_to_destination(self, sim: Simulation,
                                          network: Network) -> None:
        a, b = make_pair(sim, network)
        a.send(1, Probe(a.pid, payload=7))
        sim.run_until(1.0)
        assert [m.payload for _, m in b.received] == [7]

    def test_broadcast_excludes_self(self, sim: Simulation, network: Network) -> None:
        a, b = make_pair(sim, network)
        c = Recorder(2, sim, network)
        c.start()
        a.broadcast(Probe(a.pid))
        sim.run_until(1.0)
        assert len(a.received) == 0
        assert len(b.received) == 1
        assert len(c.received) == 1

    def test_crashed_sender_sends_nothing(self, sim: Simulation,
                                          network: Network) -> None:
        a, b = make_pair(sim, network)
        a.crash()
        a.send(1, Probe(a.pid))
        a.broadcast(Probe(a.pid))
        sim.run_until(1.0)
        assert b.received == []

    def test_crashed_receiver_gets_nothing(self, sim: Simulation,
                                           network: Network) -> None:
        a, b = make_pair(sim, network)
        a.send(1, Probe(a.pid))
        b.crash()  # crash before delivery completes
        sim.run_until(1.0)
        assert b.received == []
        assert network.metrics.dropped_by_reason["dst_crashed"] == 1


class TestTimers:
    def test_one_shot_fires_once(self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(5.0)
        assert [key for _, key in p.timer_fires] == ["x"]
        assert not p.has_timer("x")

    def test_setting_existing_timer_resets_it(self, sim: Simulation,
                                              network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.0)  # push expiry to t=1.5
        sim.run_until(5.0)
        assert p.timer_fires == [(1.5, "x")]

    def test_cancel_timer(self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        p.cancel_timer("x")
        sim.run_until(5.0)
        assert p.timer_fires == []

    def test_cancel_unknown_timer_is_noop(self, sim: Simulation,
                                          network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.cancel_timer("never-set")

    def test_periodic_fires_repeatedly(self, sim: Simulation,
                                       network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_periodic("tick", 1.0)
        sim.run_until(3.5)
        assert [t for t, _ in p.timer_fires] == [1.0, 2.0, 3.0]

    def test_periodic_can_be_stopped_from_handler(self, sim: Simulation,
                                                  network: Network) -> None:
        class StopAfterTwo(Recorder):
            def on_timer(self, key) -> None:  # noqa: ANN001
                super().on_timer(key)
                if len(self.timer_fires) == 2:
                    self.cancel_timer(key)

        p = StopAfterTwo(0, sim, network)
        p.start()
        p.set_periodic("tick", 1.0)
        sim.run_until(10.0)
        assert len(p.timer_fires) == 2

    def test_periodic_rejects_nonpositive_period(self, sim: Simulation,
                                                 network: Network) -> None:
        import pytest

        p = Recorder(0, sim, network)
        with pytest.raises(ValueError):
            p.set_periodic("tick", 0.0)

    def test_crash_cancels_all_timers(self, sim: Simulation,
                                      network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("a", 1.0)
        p.set_periodic("b", 0.5)
        p.crash()
        sim.run_until(5.0)
        assert p.timer_fires == []

    def test_timer_racing_crash_stays_silent(self, sim: Simulation,
                                             network: Network) -> None:
        # Crash scheduled at the exact instant the timer fires, but
        # earlier in the event order: the timer must not fire.
        p = Recorder(0, sim, network)
        p.start()
        sim.call_at(1.0, p.crash)
        p.set_timer("x", 1.0)
        sim.run_until(2.0)
        assert p.timer_fires == []

    def test_distinct_keys_are_independent(self, sim: Simulation,
                                           network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer(("watch", 1), 1.0)
        p.set_timer(("watch", 2), 2.0)
        p.cancel_timer(("watch", 1))
        sim.run_until(5.0)
        assert p.timer_fires == [(2.0, ("watch", 2))]


class TestLazyDeadlines:
    """Resetting a one-shot to a later time records a deadline only.

    The queued clock event is left alone and re-arms itself at the
    recorded deadline when it fires; ``on_timer`` still runs exactly at
    the last deadline set, under every lifecycle transition.
    """

    def test_reset_later_fires_once_at_the_latest_deadline(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        scheduled = sim.profile()["heap_pushes"]
        for now in (0.25, 0.5, 0.75):
            sim.run_until(now)
            p.set_timer("x", 1.0)
        assert sim.profile()["heap_pushes"] == scheduled  # O(1) resets
        assert p.has_timer("x")
        sim.run_until(1.5)  # the queued event passed t=1.0: not a fire
        assert p.timer_fires == [] and p.has_timer("x")
        sim.run_until(5.0)
        assert p.timer_fires == [(1.75, "x")]
        assert not p.has_timer("x")
        assert sim.profile()["heap_pushes"] == scheduled + 1  # one re-arm

    def test_later_reset_then_shorter_one_takes_the_last_deadline(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        p.set_timer("x", 4.0)
        p.set_timer("x", 2.0)  # still past the queued event at t=1.0
        sim.run_until(5.0)
        assert p.timer_fires == [(2.0, "x")]

    def test_reset_earlier_fires_at_the_earlier_deadline(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 3.0)
        p.set_timer("x", 5.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.0)
        sim.run_until(10.0)
        assert p.timer_fires == [(1.5, "x")]

    def test_cancel_after_lazy_reset_never_fires(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.0)
        p.cancel_timer("x")
        assert not p.has_timer("x")
        sim.run_until(5.0)
        assert p.timer_fires == []
        p.set_timer("x", 1.0)  # and the key is reusable afterwards
        sim.run_until(10.0)
        assert p.timer_fires == [(6.0, "x")]

    def test_pause_across_a_moved_deadline_fires_at_resume(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.5)  # deadline t=2.0, queued event at t=1.0
        p.pause()              # the re-arm at t=1.0 happens while frozen
        sim.run_until(3.0)
        assert p.timer_fires == [] and not p.has_timer("x")
        p.resume()
        assert p.timer_fires == [(3.0, "x")]

    def test_pause_ending_before_a_moved_deadline_changes_nothing(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.5)
        p.pause()
        sim.run_until(1.25)
        p.resume()
        assert p.timer_fires == [] and p.has_timer("x")
        sim.run_until(5.0)
        assert p.timer_fires == [(2.0, "x")]

    def test_crash_and_recover_leave_no_stale_deadline(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 2.0)  # lazily recorded deadline t=2.5
        p.crash()
        p.recover()
        assert not p.has_timer("x")
        sim.run_until(1.75)
        p.set_timer("x", 0.5)  # earlier than the pre-crash deadline
        sim.run_until(10.0)
        assert p.timer_fires == [(2.25, "x")]

    def test_periodic_keys_always_reschedule(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_periodic("tick", 1.0)
        sim.run_until(0.5)
        p.set_periodic("tick", 1.0)  # restarts the cycle from now
        sim.run_until(3.0)
        assert [t for t, _ in p.timer_fires] == [1.5, 2.5]
        p.set_timer("tick", 4.0)  # a one-shot replaces the cycle
        sim.run_until(20.0)
        assert [t for t, _ in p.timer_fires] == [1.5, 2.5, 7.0]

    def test_periodic_first_fire_resumes_a_grid(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        sim.run_until(0.7)
        p.set_periodic("tick", 0.5, first=1.0)
        sim.run_until(2.2)
        assert [t for t, _ in p.timer_fires] == [1.0, 1.5, 2.0]
