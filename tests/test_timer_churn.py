"""Deterministic churn guard: steady-state Omega does O(1) timer work.

Counts only, no wall clock.  On the benchmark's ``--quick`` census shape
(n=48, 120 simulated seconds, timeout 8) the scheduler must see timer
traffic proportional to ``n * horizon / timeout`` — one watch re-fire
per timeout per follower — not to the number of heartbeats delivered,
and a follower must hold no heartbeat timer at all.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.core.config import OmegaConfig
from repro.harness.scenarios import OmegaScenario
from repro.sim.process import Process
from repro.sim.topology import LinkTimings

N, HORIZON, TIMEOUT, TAIL = 48, 120.0, 8.0, 20.0


@pytest.mark.parametrize("algorithm,system", [
    ("comm-efficient", "source"),
    ("packet-efficient", "all-et"),
])
def test_steady_state_timer_work_is_bounded(
        monkeypatch: pytest.MonkeyPatch, algorithm: str, system: str) -> None:
    tail_fires: Counter[tuple[int, object]] = Counter()
    fire = Process._fire

    def counting_fire(self: Process, key: object) -> None:
        if self.sim.now >= HORIZON - TAIL:
            tail_fires[(self.pid, key)] += 1
        fire(self, key)

    monkeypatch.setattr(Process, "_fire", counting_fire)
    cluster = OmegaScenario(
        algorithm=algorithm, n=N, system=system, source=0, seed=7,
        horizon=HORIZON, timings=LinkTimings(gst=5.0),
        config=OmegaConfig(initial_timeout=TIMEOUT), link_rng="src").build()
    cluster.start_all()
    cluster.run_until(HORIZON)

    profile = cluster.sim.profile()
    delivered = sum(cluster.metrics.delivered_by_kind.values())
    assert delivered > 10 * N * HORIZON / TIMEOUT  # heartbeats dominate
    # Everything scheduled that is not a delivery: O(n * horizon / timeout).
    assert profile["heap_pushes"] - delivered <= 4 * N * HORIZON / TIMEOUT
    assert profile["compactions"] == 0

    def trusts_itself_after(pid: int, since: float) -> bool:
        history = cluster.process(pid).history
        held = [leader for time, leader in history if time <= since][-1:]
        return pid in held + [leader for time, leader in history
                              if time > since]

    followers = [pid for pid in cluster.pids
                 if not trusts_itself_after(pid, 10.0)]
    assert len(followers) == N - 1
    for pid in followers:
        assert tail_fires[(pid, "heartbeat")] == 0
        assert not cluster.process(pid).has_timer("heartbeat")
        assert tail_fires[(pid, "watch")] <= math.ceil(TAIL / TIMEOUT) + 1
