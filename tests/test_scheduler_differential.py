"""Differential property tests: calendar queue vs the reference heap.

:class:`~repro.sim.engine.Simulation` (the two-tier calendar-queue
scheduler) must execute every workload in exactly the order the
heap-only ``ReferenceSimulation`` of ``tests/reference_kernel.py`` does
— the calendar queue is a throughput optimization with zero semantic
freedom.  These tests drive randomized workloads (timers,
cancellations, fire-and-forget posts, batched posts, self-perpetuating
churn) and full protocol runs (broadcast fan-out, crashes, recovery)
through both schedulers and assert identical event orderings and trace
digests.

The second half works in the regime the benchmarks live in: delays
shorter than one bucket, so most posts land inside the window that is
already open and take the merge path (``insort`` / tail sort) rather
than a bucket append.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro.sim.cluster as cluster_mod
from repro.harness.scenarios import OmegaScenario
from reference_kernel import ReferenceSimulation
from repro.sim.engine import Simulation, SimulationError


class _Churn:
    """A self-perpetuating randomized workload, deterministic per seed.

    Every fired event logs ``(now, label)`` and draws from its own
    :class:`random.Random` to decide what to schedule next: a
    cancellable timer (sometimes cancelling an older one), a
    fire-and-forget post, or a batched post of several events.  Both
    schedulers run the identical decision sequence as long as they fire
    events in the identical order — which is exactly the property under
    test: any ordering divergence snowballs into different logs.
    """

    MAX_EVENTS = 400

    def __init__(self, sim, seed: int) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.log: list[tuple[float, str]] = []
        self.handles: list = []

    def kick(self, actors: int) -> None:
        for index in range(actors):
            self._spawn(f"a{index}")

    def _spawn(self, tag: str) -> None:
        rng = self.rng
        choice = rng.random()
        delay = rng.uniform(0.0, 2.5)
        if choice < 0.40:
            handle = self.sim.call_after(
                delay, lambda t=tag: self._fire(f"timer/{t}"))
            self.handles.append(handle)
            if len(self.handles) > 3 and rng.random() < 0.5:
                victim = self.handles.pop(rng.randrange(len(self.handles)))
                victim.cancel()
        elif choice < 0.70:
            self.sim.post_after(delay, lambda t=tag: self._fire(f"post/{t}"))
        else:
            base = self.sim.now
            count = rng.randrange(1, 6)
            self.sim.post_batch([
                (base + rng.uniform(0.0, 4.0),
                 lambda t=f"{tag}.{k}": self._fire(f"batch/{t}"))
                for k in range(count)
            ])

    def _fire(self, label: str) -> None:
        self.log.append((self.sim.now, label))
        if len(self.log) < self.MAX_EVENTS and self.rng.random() < 0.85:
            self._spawn(label.rsplit("/", 1)[-1])

    def digest(self) -> str:
        payload = repr(self.log).encode()
        return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 91])
def test_randomized_churn_orders_identically(seed: int) -> None:
    logs = {}
    for cls in (Simulation, ReferenceSimulation):
        churn = _Churn(cls(seed=seed), seed)
        churn.kick(6)
        churn.sim.run_until(60.0)
        logs[cls.__name__] = (churn.log, churn.digest(),
                              churn.sim.events_executed)
    fast_log, fast_digest, fast_events = logs["Simulation"]
    ref_log, ref_digest, ref_events = logs["ReferenceSimulation"]
    assert fast_log == ref_log
    assert fast_digest == ref_digest
    assert fast_events == ref_events


@pytest.mark.parametrize("seed", [3, 17])
def test_step_and_run_batch_agree_with_reference(seed: int) -> None:
    # Mixed-granularity draining must preserve the total order too.
    churns = []
    for cls in (Simulation, ReferenceSimulation):
        churn = _Churn(cls(seed=seed), seed)
        churn.kick(4)
        drive = random.Random(seed + 1)
        while True:
            mode = drive.random()
            if mode < 0.3:
                if not churn.sim.step():
                    break
            elif mode < 0.6:
                if churn.sim.run_batch() == 0:
                    break
            else:
                before = churn.sim.events_executed
                churn.sim.run_for(drive.uniform(0.1, 5.0))
                if before == churn.sim.events_executed \
                        and churn.sim.pending() == 0:
                    break
        churns.append(churn)
    assert churns[0].log == churns[1].log
    assert churns[0].sim.events_executed == churns[1].sim.events_executed


def _scenario_digest(trace) -> str:
    payload = "\n".join(repr(record) for record in trace).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("algorithm,faults", [
    ("comm-efficient", ()),
    ("source", ((12.0, 3, 25.0),)),   # crash + recovery mid-run
    ("all-timely", ((8.0, 2),)),      # crash-stop
])
def test_protocol_runs_trace_identically(monkeypatch, algorithm: str,
                                         faults: tuple) -> None:
    """Full protocol runs — broadcasts, faults — digest identically."""
    def run(sim_cls):
        monkeypatch.setattr(cluster_mod, "Simulation", sim_cls)
        scenario = OmegaScenario(
            algorithm=algorithm, n=5,
            system="source" if algorithm != "all-timely" else "all-et",
            source=1, seed=11, horizon=40.0, ce_window=10.0,
            crashes=faults, trace=True)
        outcome = scenario.run()
        return (outcome.cluster.sim.events_executed,
                _scenario_digest(outcome.cluster.trace),
                outcome.report.final_leader)

    fast = run(Simulation)
    reference = run(ReferenceSimulation)
    assert fast == reference


# ----------------------------------------------------------------------
# The short-delay regime: posts that land inside the open window
# ----------------------------------------------------------------------

# The default width, and one narrow enough that the same workloads cross
# many more window boundaries.
WIDTHS = [0.0625, 2.0 ** -9]


def _pair(seed: int, width: float):
    """The kernel under test at ``width`` and the oracle, same seed."""
    return (Simulation(seed=seed, bucket_width=width),
            ReferenceSimulation(seed=seed))


def _queue_state(sim) -> tuple:
    return (sim.now, sim.events_executed, sim.pending(),
            sorted(sim.pending_times()))


class _ShortChurn(_Churn):
    """``_Churn`` on the scale of one bucket, in absolute times.

    Every event is scheduled in ``[now, now + 2·width)``: often at
    exactly ``now``, often at exactly the end of ``now``'s own bucket
    span (the first instant that is *not* late), and regularly at one
    instant through all three entry points at once, so ties are broken
    by seq alone across ``post_at``, ``post_batch`` and ``call_at``.
    """

    def __init__(self, sim, seed: int, width: float) -> None:
        super().__init__(sim, seed)
        self.width = width
        self.posts = self.late = 0

    def _when(self) -> float:
        now = self.sim.now
        choice = self.rng.random()
        if choice < 0.15:
            when = now
        elif choice < 0.30:
            when = (int(now / self.width) + 1) * self.width
        else:
            when = now + self.rng.uniform(0.0, 2 * self.width)
        # How much of the workload takes the merge path (the calendar
        # queue's own notion of late; the oracle has none).
        self.posts += 1
        self.late += when < getattr(self.sim, "_drained_until", 0.0)
        return when

    def _spawn(self, tag: str) -> None:
        rng, sim = self.rng, self.sim
        choice = rng.random()
        if choice < 0.20:
            self.handles.append(sim.call_at(
                self._when(), lambda t=tag: self._fire(f"timer/{t}")))
            if len(self.handles) > 3 and rng.random() < 0.5:
                self.handles.pop(rng.randrange(len(self.handles))).cancel()
        elif choice < 0.45:
            sim.post_at(self._when(),
                        lambda t=tag: self._fire(f"post/{t}"))
        elif choice < 0.80:
            sim.post_batch([
                (self._when(),
                 lambda t=f"{tag}.{k}": self._fire(f"batch/{t}"))
                for k in range(rng.randrange(1, 6))])
        else:
            when = self._when()
            sim.post_at(when, lambda t=tag: self._fire(f"tie-post/{t}"))
            sim.post_batch([
                (when, lambda t=f"{tag}.{k}": self._fire(f"tie-batch/{t}"))
                for k in range(2)])
            self.handles.append(sim.call_at(
                when, lambda t=tag: self._fire(f"tie-timer/{t}")))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_short_delay_churn_in_lockstep(seed: int, width: float) -> None:
    fast, ref = (_ShortChurn(sim, seed, width)
                 for sim in _pair(seed, width))
    fast.kick(6)
    ref.kick(6)
    assert _queue_state(fast.sim) == _queue_state(ref.sim)
    while True:
        stepped = fast.sim.step()
        assert stepped == ref.sim.step()
        assert fast.log == ref.log
        assert _queue_state(fast.sim) == _queue_state(ref.sim)
        if not stepped:
            break
    assert len(fast.log) >= _Churn.MAX_EVENTS
    # About a third of the schedule takes the merge path (``_Churn``:
    # at most 2.5 %).
    assert fast.late * 4 > fast.posts


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("seed", [2, 13])
def test_late_posts_between_driver_calls(seed: int, width: float) -> None:
    """step / run_batch / a run_until that stops mid-window, with posts
    made from outside the run loop into whatever window is open."""
    runs = []
    for sim in _pair(seed, width):
        churn = _ShortChurn(sim, seed, width)
        churn.kick(4)
        drive = random.Random(seed + 1)
        states = []
        for round_ in range(250):
            mode = drive.random()
            if mode < 0.35:
                sim.step()
            elif mode < 0.55 and width == 0.0625:
                sim.run_batch()  # the oracle's is fixed at that width
            else:
                sim.run_until(sim.now + drive.uniform(0.0, 1.5 * width))
            sim.post_at(sim.now + drive.choice((0.0, 0.125, 0.5)) * width,
                        lambda r=round_: churn.log.append((sim.now, f"x{r}")))
            if round_ % 7 == 0:
                sim.post_batch([
                    (sim.now + share * width,
                     lambda r=round_, k=k: churn.log.append(
                         (sim.now, f"xb{r}.{k}")))
                    for k, share in enumerate((0.25, 0.0, 3.0, 0.25))])
            states.append(_queue_state(sim))
        sim.run_until(sim.now + 4 * width)
        runs.append((churn.log, states, _queue_state(sim)))
    assert runs[0] == runs[1]


def _mixed_batch_run(sim, w: float) -> list:
    log: list = []

    def note(label: str):
        return lambda: log.append((sim.now, label))

    def mixed_batch(tag: str) -> None:
        now = sim.now
        sim.post_batch([
            (now + 0.35 * w, note(f"{tag}/late-b")),
            (0.5 * w, note(f"{tag}/late-tie")),
            (now, note(f"{tag}/late-now")),
            ((int(now / w) + 1) * w, note(f"{tag}/boundary")),
            (3.5 * w, note(f"{tag}/bucketed")),
            (2.0 ** 60, note(f"{tag}/far")),
            (float("inf"), note(f"{tag}/inf")),
            (now + 0.05 * w, note(f"{tag}/late-a")),
        ])
        sim.call_at(0.5 * w, note(f"{tag}/timer-tie"))

    sim.post_at(0.25 * w, lambda: mixed_batch("inside"))
    sim.post_at(0.5 * w, note("resident"))
    sim.run_until(0.375 * w)        # stops inside the window [0, w)
    log.append(_queue_state(sim))
    mixed_batch("outside")          # ... and posts into it from outside
    log.append(_queue_state(sim))
    sim.run_until(8 * w)
    log.append(_queue_state(sim))
    return log


@pytest.mark.parametrize("width", WIDTHS)
def test_post_batch_mixes_late_bucketed_and_far_items(width: float) -> None:
    fast, ref = (_mixed_batch_run(sim, width) for sim in _pair(0, width))
    assert fast == ref
    # Everything ran but the four items at or beyond 2**60 s.
    assert len(fast) == 2 * 7 + 1 + 3 and fast[-1][2] == 4


def _empty_bucket_run(sim, w: float) -> list:
    log: list = []

    def note(label: str):
        return lambda: log.append((sim.now, label))

    def timer() -> None:
        log.append((sim.now, "timer"))
        sim.post_at(sim.now, note("late-now"))
        sim.post_after(0.25 * w, note("late-tie"))
        sim.post_batch([(sim.now + 0.5 * w, note("late-batch")),
                        (sim.now + 0.25 * w, note("late-batch-tie")),
                        (sim.now + 0.125 * w, note("late-first"))])

    # Nothing is ever posted into bucket 5: its window is opened by the
    # heap head alone, and the late posts are the window's only entries.
    sim.call_at(5.25 * w, timer)
    sim.call_at(5.5 * w, note("timer-tie"))      # lower seq: runs first
    sim.call_at(5.4375 * w, note("timer-between"))
    sim.post_at(7.0 * w, note("next-window"))
    while sim.step():
        log.append(_queue_state(sim))
    return log


@pytest.mark.parametrize("width", WIDTHS)
def test_late_post_from_a_heap_event_in_an_empty_window(width: float) -> None:
    fast, ref = (_empty_bucket_run(sim, width) for sim in _pair(0, width))
    assert fast == ref
    assert [label for _, label in fast[::2]] == [
        "timer", "late-now", "late-first", "timer-between", "timer-tie",
        "late-tie", "late-batch-tie", "late-batch", "next-window"]


@pytest.mark.parametrize("width", WIDTHS)
def test_post_batch_error_keeps_the_items_before_it(width: float) -> None:
    w = width
    for sim in _pair(0, width):
        log: list = []
        sim.post_at(0.25 * w, lambda: None)
        sim.post_at(0.5 * w, lambda: log.append("resident"))
        sim.run_until(0.3 * w)
        with pytest.raises(SimulationError):
            sim.post_batch([
                (0.4 * w, lambda: log.append("late")),
                (2.5 * w, lambda: log.append("bucketed")),
                (0.1 * w, lambda: log.append("in the past")),
                (0.45 * w, lambda: log.append("never reached")),
            ])
        assert sim.pending() == 3
        assert sorted(sim.pending_times()) == [0.4 * w, 0.5 * w, 2.5 * w]
        sim.run_until(4 * w)
        assert log == ["late", "resident", "bucketed"]
        assert sim.pending() == 0


# ----------------------------------------------------------------------
# The far horizon: a heap head at or beyond 2**60 s has no window to open
# ----------------------------------------------------------------------

FAR_TIMES = (2.0 ** 60, 2.0 ** 61, float("inf"))


def _far_run(sim, far: float, via: str, driver: str) -> list:
    log: list = []

    def note(label: str):
        return lambda: log.append((sim.now, label))

    def schedule(time: float, label: str) -> None:
        if via == "post_at":
            sim.post_at(time, note(label))
        elif via == "post_batch":
            sim.post_batch([(time, note(label))])
        else:
            sim.call_at(time, note(label))

    def from_the_far_side() -> None:
        log.append((sim.now, "far-first"))
        schedule(sim.now, "far-child")      # now is `far`: far again

    sim.post_at(0.3, note("near-post"))
    sim.call_at(0.7, note("near-timer"))
    schedule(far, "far-tie")                # same instant, lower seq
    sim.call_at(far, note("far-cancelled")).cancel()
    schedule(far, "far-second")
    sim.post_at(far, from_the_far_side)
    if driver == "drain":
        log.append(sim.drain(max_events=100))
    elif driver == "run_until":
        sim.run_until(2.0 ** 59)
        log.append(_queue_state(sim))
        sim.run_until(float("inf"))
    else:
        while sim.step():
            log.append(_queue_state(sim))
    log.append(_queue_state(sim))
    return log


@pytest.mark.parametrize("driver", ["drain", "run_until", "step"])
@pytest.mark.parametrize("via", ["post_at", "post_batch", "call_at"])
@pytest.mark.parametrize("far", FAR_TIMES)
def test_far_horizon_events_run_from_the_heap(far: float, via: str,
                                              driver: str) -> None:
    # At 2**61 a window has no width in floats and at inf no index: the
    # kernel used to spin forever / raise OverflowError opening one.
    fast, ref = (_far_run(sim, far, via, driver) for sim in _pair(0, 0.0625))
    assert fast == ref
    labels = [entry[1] for entry in fast
              if isinstance(entry, tuple) and isinstance(entry[1], str)]
    assert labels == ["near-post", "near-timer", "far-tie", "far-second",
                      "far-first", "far-child"]
    assert fast[-1][2] == 0     # nothing pending


@pytest.mark.parametrize("far", FAR_TIMES)
def test_run_batch_at_the_far_horizon_is_that_instant(far: float) -> None:
    sim = Simulation()
    fired: list = []
    sim.post_at(0.01, lambda: fired.append("near"))
    sim.post_at(far, lambda: fired.append("far-a"))
    sim.call_at(far, lambda: fired.append("far-b"))
    assert [sim.run_batch(), sim.run_batch(), sim.run_batch()] == [1, 2, 0]
    assert fired == ["near", "far-a", "far-b"] and sim.now == far
