"""Per-process stable storage with a modeled durability cost.

Crash-recovery algorithms are only as safe as their storage discipline,
so durability here is a *modeled cost*, not a free dictionary write.
:class:`StableStorage` gives each process two layers:

volatile write buffer
    :meth:`put` lands here.  Its contents are **lost on crash** — a
    process that updates its state and crashes before :meth:`sync`
    completes recovers the *previous* durable value, exactly the window
    real write-ahead logs close with fsync.

durable map
    :meth:`sync` snapshots the buffer and commits it after a
    deterministic ``sync_latency`` (one kernel event).  Only a commit
    that lands while the process is still in the same life (no crash in
    between) becomes durable; a crash mid-flight loses the whole batch.

The ``on_durable`` callback of :meth:`sync` is the safety hook: an
acceptor that must not acknowledge a promise before the promise is
durable passes its reply as the callback, and the storage invokes it at
commit time — after the latency, only if the batch survived.

Fault injection: ``failing_syncs`` names sync indices (0-based, per
storage) whose batches are silently discarded (a lying disk), and
:meth:`corrupt` poisons a durable key so the next :meth:`get` raises
:class:`StorageError` (bit rot detected by checksum).  Both are
deterministic, so a faulty-storage run replays exactly.

Determinism: all latencies are seconds of simulated time; the storage
draws no randomness of its own.  A process that never touches storage
schedules no events and pays nothing — see
:attr:`~repro.sim.process.Process.storage` for the lazy attachment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import ObserverHub
    from repro.sim.engine import Simulation

__all__ = ["StableStorage", "StorageError"]


class StorageError(RuntimeError):
    """Raised when stable storage misbehaves (corrupted key, misuse)."""


class _Corrupt:
    """Sentinel marking a durable key whose bits rotted."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<corrupt>"


_CORRUPT = _Corrupt()


class StableStorage:
    """Crash-surviving key/value store for one process.

    Parameters
    ----------
    pid:
        Owning process id (used in observer events and error messages).
    sim:
        The simulation kernel that owns time; commits are kernel events.
    hub:
        Optional :class:`~repro.obs.ObserverHub`; every completed sync
        (successful or failed) is dispatched as a ``sync`` event.
    sync_latency:
        Seconds between :meth:`sync` and the batch becoming durable.
        ``0.0`` commits synchronously (an ideal disk).
    failing_syncs:
        0-based indices of :meth:`sync` calls whose batches are
        discarded instead of committed.
    """

    def __init__(self, pid: int, sim: Simulation,
                 hub: "ObserverHub | None" = None,
                 sync_latency: float = 0.02,
                 failing_syncs: Iterable[int] = ()) -> None:
        if sync_latency < 0:
            raise StorageError("sync_latency must be >= 0")
        self.pid = pid
        self.sim = sim
        self.hub = hub
        self.sync_latency = float(sync_latency)
        self.failing_syncs = frozenset(failing_syncs)
        self._durable: dict[Hashable, Any] = {}
        self._buffer: dict[Hashable, Any] = {}
        self._sync_count = 0
        self._life = 0  # bumped on crash; in-flight commits from old lives abort
        self.syncs_ok = 0
        self.syncs_failed = 0
        self.batches_lost = 0

    # ------------------------------------------------------------------
    # Reads and writes
    # ------------------------------------------------------------------

    def put(self, key: Hashable, value: Any) -> None:
        """Write ``key`` into the volatile buffer (durable only after sync)."""
        self._buffer[key] = value

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Read-your-writes lookup: buffer first, then the durable map.

        Raises :class:`StorageError` if the durable value was corrupted.
        """
        if key in self._buffer:
            return self._buffer[key]
        value = self._durable.get(key, default)
        if value is _CORRUPT:
            raise StorageError(
                f"stable storage of pid {self.pid}: key {key!r} is corrupted")
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._buffer or key in self._durable

    def durable_keys(self) -> tuple[Hashable, ...]:
        """Keys currently in the durable map (corrupted ones included)."""
        return tuple(self._durable)

    @property
    def dirty(self) -> bool:
        """Whether unsynced writes sit in the volatile buffer."""
        return bool(self._buffer)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def sync(self, on_durable: Callable[[], None] | None = None) -> int:
        """Flush the buffer toward the durable map; returns the sync index.

        The buffer is snapshotted and cleared immediately; the snapshot
        commits after ``sync_latency`` unless the process crashes first
        (batch lost) or the index is in ``failing_syncs`` (batch
        discarded, modeling a lying disk).  ``on_durable`` runs exactly
        when — and only if — the batch commits, making it the safe place
        for actions that must not precede durability (acceptor replies).
        """
        batch = dict(self._buffer)
        self._buffer.clear()
        index = self._sync_count
        self._sync_count += 1
        life = self._life
        commit = self._make_commit(batch, index, life, on_durable)
        if self.sync_latency <= 0.0:
            commit()
        else:
            self.sim.post_after(self.sync_latency, commit)
        return index

    def _make_commit(self, batch: dict[Hashable, Any], index: int, life: int,
                     on_durable: Callable[[], None] | None) -> Callable[[], None]:
        def commit() -> None:
            if self._life != life:
                # The process crashed while the batch was in flight: the
                # write never reached the platter.  Nothing is dispatched;
                # from the outside the sync simply never happened.
                self.batches_lost += 1
                return
            ok = index not in self.failing_syncs
            if ok:
                self._durable.update(batch)
                self.syncs_ok += 1
            else:
                self.syncs_failed += 1
            if self.hub is not None:
                self.hub.sync(self.sim.now, self.pid, tuple(batch), ok)
            if ok and on_durable is not None:
                on_durable()
        return commit

    # ------------------------------------------------------------------
    # Faults and lifecycle
    # ------------------------------------------------------------------

    def corrupt(self, key: Hashable) -> None:
        """Poison durable ``key``: the next :meth:`get` raises StorageError."""
        if key not in self._durable:
            raise StorageError(
                f"stable storage of pid {self.pid}: cannot corrupt missing "
                f"key {key!r}")
        self._durable[key] = _CORRUPT

    def note_crash(self) -> None:
        """Crash bookkeeping: drop the buffer and abort in-flight batches.

        Called by :meth:`Process.crash`; the durable map survives — that
        is the whole point of stable storage.
        """
        self._buffer.clear()
        self._life += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StableStorage(pid={self.pid}, durable={len(self._durable)}, "
                f"buffered={len(self._buffer)})")
