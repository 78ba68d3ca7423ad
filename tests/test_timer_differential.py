"""Schedule-equivalence oracle: lazy watchdog deadlines vs eager re-arming.

:meth:`repro.sim.process.Process.set_timer` answers a reset to a later
time by recording a deadline; the reference below is the eager form it
replaced — cancel, tombstone, push — kept here, under ``tests/`` only,
as the oracle.  Both must produce the same protocol-visible schedule:
every leader history, every per-kind send count and every send
timestamp, for every registry algorithm, in three synchrony systems,
under crashes, a crash-recovery bounce and a pause that spans several
watchdog deadlines.

A second oracle covers the other half of the timer discipline: a
process that does not trust itself holds no heartbeat timer
(:meth:`repro.core.omega.OmegaProtocol._silence`).  Turning ``_silence``
into a no-op restores the idle η tick it replaced; every process must
still send the same messages at the same simulated instants.  Only the
order among *different* processes' sends at one instant may differ — a
resumed cycle is queued later than its neighbours' — which is the tie
order the timer contract leaves unspecified.
"""

from __future__ import annotations

from functools import partial
from typing import Hashable

import pytest

from repro.core.omega import OmegaProtocol
from repro.core.registry import OMEGA_ALGORITHMS
from repro.harness.scenarios import OmegaScenario
from repro.sim.process import Process, _Timer
from repro.sim.trace import SendRecord

SEEDS = range(20)
SYSTEMS = ("source", "multi-source", "all-timely")
FAULTS = "pause(t=12.0,pid=1,dur=9.0) pause(t=30.0,pid=0,dur=1.5)"
CRASHES = ((18.0, 3), (24.0, 2, 33.0))  # crash-stop, and a recovery bounce


def _eager_set_timer(self: Process, key: Hashable, delay: float) -> None:
    """``Process.set_timer`` as it was: every reset reschedules."""
    if self._crashed:
        return
    self.cancel_timer(key)
    action = partial(self._fire, key)
    self._timers[key] = _Timer(self.sim.call_after(delay, action), action,
                               self.sim.now + delay, None)


def _schedule(algorithm: str, system: str, seed: int):
    outcome = OmegaScenario(
        algorithm=algorithm, n=5, system=system, source=1, sources=(1, 4),
        seed=seed, horizon=45.0, crashes=CRASHES, faults=FAULTS,
        trace=True).run()
    cluster = outcome.cluster
    sends = [(record.time, record.src, record.dst, record.kind)
             for record in cluster.trace if isinstance(record, SendRecord)]
    histories = {pid: list(cluster.process(pid).history)
                 for pid in cluster.pids}
    return (histories, dict(cluster.metrics.sent_by_kind), sends,
            cluster.sim.profile()["heap_pushes"])


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("algorithm", sorted(OMEGA_ALGORITHMS))
def test_lazy_and_eager_timers_produce_the_same_schedule(
        monkeypatch: pytest.MonkeyPatch, algorithm: str, system: str) -> None:
    lazy = [_schedule(algorithm, system, seed) for seed in SEEDS]
    monkeypatch.setattr(Process, "set_timer", _eager_set_timer)
    eager = [_schedule(algorithm, system, seed) for seed in SEEDS]
    for seed, (now, before) in enumerate(zip(lazy, eager)):
        assert now[0] == before[0], f"seed {seed}: leader histories differ"
        assert now[1] == before[1], f"seed {seed}: send counts differ"
        assert now[2] == before[2], f"seed {seed}: send timestamps differ"
    # The oracle is not vacuous: the eager runs did reschedule more.
    assert sum(run[3] for run in lazy) < sum(run[3] for run in eager)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("algorithm", ["comm-efficient", "crash-recovery",
                                       "packet-efficient"])
def test_silent_processes_beat_on_the_grid_they_left(
        monkeypatch: pytest.MonkeyPatch, algorithm: str, system: str) -> None:
    def per_sender(run):
        histories, counts, sends, pushes = run
        by_src: dict[int, list] = {}
        for send in sends:
            by_src.setdefault(send[1], []).append(send)
        return histories, counts, by_src, pushes

    silent = [per_sender(_schedule(algorithm, system, seed))
              for seed in SEEDS[:10]]
    monkeypatch.setattr(OmegaProtocol, "_silence", lambda self: None)
    ticking = [per_sender(_schedule(algorithm, system, seed))
               for seed in SEEDS[:10]]
    for seed, (now, before) in enumerate(zip(silent, ticking)):
        assert now[:3] == before[:3], f"seed {seed}: schedules differ"
    assert sum(run[3] for run in silent) < sum(run[3] for run in ticking)
