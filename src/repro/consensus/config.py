"""Configuration of the consensus layer."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConsensusConfig"]

# Crash-recovery stacks (``persist=True``) back retransmissions to a
# silent peer off exponentially from ``tick`` up to this many seconds
# between attempts, so a long-down peer costs O(log) traffic instead of
# one message per tick; any message from the peer resets its backoff.
BACKOFF_CAP = 8.0


@dataclass(frozen=True)
class ConsensusConfig:
    """Tunables shared by single-decree consensus and the replicated log.

    Attributes
    ----------
    tick:
        Period of the driver timer: outstanding messages are
        retransmitted on ticks (mandatory over fair-lossy links) — an
        open log slot's ``Propose`` once the peer's measured round trip
        has passed, never twice in one tick — and a proposer (re)starts
        ballots on ticks.  The replicated log batches on ticks only
        under load: an idle log forwards and proposes a new command at
        once (Nagle's rule, :mod:`repro.consensus.replica`).
    max_batch:
        Replicated log only: how many log instances the leader may keep
        open concurrently (the pipelining window).
    batch_size:
        Replicated log only: how many pending commands the leader may
        pack into one log instance.  ``1`` (the default) proposes plain
        ``(command_id, command)`` pairs exactly as before; larger values
        wrap multi-command slots in
        :class:`~repro.consensus.replica.Batch`.
    queue_limit:
        Replicated log only: bound on the per-replica pending-command
        queue.  ``None`` (the default) keeps the queue unbounded; with a
        limit, :meth:`~repro.consensus.replica.LogReplica.submit`
        returns ``False`` (sheds) once the queue is full, and the
        workload is expected to defer and retry — the leader-side
        backpressure signal.
    sync_latency:
        Crash-recovery stacks only: seconds a stable-storage sync takes
        (the window in which a crash loses buffered writes).
    """

    tick: float = 0.5
    max_batch: int = 8
    batch_size: int = 1
    queue_limit: int | None = None
    sync_latency: float = 0.02

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be None or at least 1")
        if self.tick > BACKOFF_CAP:
            raise ValueError(f"tick must be at most BACKOFF_CAP "
                             f"({BACKOFF_CAP} s)")
        if self.sync_latency < 0:
            raise ValueError("sync_latency must be non-negative")
