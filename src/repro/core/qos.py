"""Quality-of-service metrics for Omega runs.

Stabilization time alone says little about how an Omega module behaves
*before* the limit.  Following the spirit of the classic
failure-detector QoS metrics (detection time, mistake rate, mistake
duration), this module computes exact interval-based statistics from
the recorded output histories — no sampling error:

* **agreement fraction** — share of the observation window during which
  all correct processes output one common leader;
* **good fraction** — share during which they agree *and* that leader is
  up (the useful service an Omega consumer actually receives);
* **crash detection times** — for every crash of a process that was some
  correct process's output at the instant it died: how long until that
  observer's output moved away for good;
* **flap statistics** — output changes per correct process.

All computations treat each process's output as a piecewise-constant
function reconstructed from :attr:`OmegaProtocol.history`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.omega import OmegaProtocol
from repro.sim.cluster import Cluster

__all__ = ["OmegaQoS", "measure_qos", "output_at"]


def output_at(history: list[tuple[float, int]], time: float) -> int | None:
    """The output recorded by ``history`` at ``time`` (None before start)."""
    if not history or time < history[0][0]:
        return None
    index = bisect_right(history, (time, float("inf"))) - 1
    return history[index][1]


@dataclass(frozen=True)
class OmegaQoS:
    """Exact QoS statistics of one Omega run."""

    window: tuple[float, float]
    agreement_fraction: float
    good_fraction: float
    detection_times: dict[int, float]
    changes_by_pid: dict[int, int]

    @property
    def worst_detection_time(self) -> float | None:
        """Slowest reaction to a crashed leader, if any leader crashed."""
        if not self.detection_times:
            return None
        return max(self.detection_times.values())

    @property
    def total_changes(self) -> int:
        """Total output flaps among correct processes in the window."""
        return sum(self.changes_by_pid.values())


def measure_qos(cluster: Cluster, start: float = 0.0,
                end: float | None = None) -> OmegaQoS:
    """Compute :class:`OmegaQoS` for a finished run on ``cluster``.

    ``start``/``end`` bound the observation window (defaults: the whole
    run).  Correct processes are those up at the end; crash instants
    come from the metrics collector every cluster network carries, so a
    traced and an untraced run measure alike.
    """
    end_time = cluster.sim.now if end is None else end
    if end_time <= start:
        raise ValueError("observation window must have positive length")

    correct = cluster.up_pids()
    histories: dict[int, list[tuple[float, int]]] = {}
    for pid in correct:
        process = cluster.process(pid)
        if not isinstance(process, OmegaProtocol):
            raise TypeError(f"process {pid} is not an OmegaProtocol")
        histories[pid] = process.history

    crash_times = cluster.metrics.crash_times

    # --- agreement / good fractions over exact intervals ---------------
    breakpoints = {start, end_time}
    for history in histories.values():
        for time, _ in history:
            if start < time < end_time:
                breakpoints.add(time)
    for time in crash_times.values():
        if start < time < end_time:
            breakpoints.add(time)
    ordered = sorted(breakpoints)

    # A process with no recorded output anywhere in the window (never
    # started, or recovered only after ``end_time``) cannot witness
    # agreement; keeping it in the probe set would hold ``outputs`` at
    # {None} on every interval and zero the fractions for everyone.
    # Such processes are excluded as witnesses; if nobody witnessed the
    # window at all, both fractions are a well-defined 0.0.  A process
    # whose history *starts inside* the window still counts — its
    # pre-start intervals legitimately deny agreement via the None skip.
    witnesses = [pid for pid in correct
                 if output_at(histories[pid], end_time) is not None]

    agreement = 0.0
    good = 0.0
    for left, right in zip(ordered, ordered[1:]):
        probe = left  # outputs are constant on [left, right)
        outputs = {output_at(histories[pid], probe) for pid in witnesses}
        if len(outputs) != 1 or None in outputs:
            continue
        leader = outputs.pop()
        span = right - left
        agreement += span
        crashed_at = crash_times.get(leader)
        leader_up = (leader in correct
                     or (crashed_at is not None and probe < crashed_at))
        if leader_up:
            good += span
    window_span = end_time - start

    # --- detection times ------------------------------------------------
    # For each observer that was outputting the victim when it crashed:
    # the *final* departure from the victim (flap-backs count against the
    # detector), censored at the window end if it never departed.
    detection: dict[int, float] = {}
    for victim, crash_time in crash_times.items():
        if not start <= crash_time <= end_time:
            continue
        worst: float | None = None
        for pid in correct:
            history = histories[pid]
            if output_at(history, crash_time) != victim:
                continue
            last_victim_index = max(
                index for index, (_, leader) in enumerate(history)
                if leader == victim)
            if last_victim_index == len(history) - 1:
                moved = end_time  # still trusting the dead victim: censored
            else:
                moved = min(history[last_victim_index + 1][0], end_time)
            lag = max(0.0, moved - crash_time)
            worst = lag if worst is None else max(worst, lag)
        if worst is not None:
            detection[victim] = worst

    # --- flaps ------------------------------------------------------------
    changes = {}
    for pid in correct:
        history = histories[pid]
        first_entry_time = history[0][0] if history else None
        changes[pid] = sum(
            1 for time, _ in history
            if start < time <= end_time and time != first_entry_time)

    return OmegaQoS(
        window=(start, end_time),
        agreement_fraction=agreement / window_span,
        good_fraction=good / window_span,
        detection_times=detection,
        changes_by_pid=changes,
    )
