"""File-backed stable storage for live nodes.

The simulator's :class:`~repro.sim.storage.StableStorage` keeps its
durable map in process memory — fine there, because a sim "crash" never
kills the interpreter.  A live node dies by SIGKILL, so durability must
reach the filesystem: :class:`FileStorage` snapshots the durable map to
a file on every committed sync (atomic ``os.replace`` of a temp file,
so a kill mid-write leaves the previous snapshot intact) and reloads it
at construction.  A respawned incarnation therefore boots
with exactly the state its predecessor had synced — the
``crash -> SIGKILL -> respawn`` path of a live soak campaign goes
through real storage-backed recovery.

The commit discipline is inherited unchanged: ``on_durable`` callbacks
(acceptor replies that must not precede durability) run only after the
snapshot has been flushed and replaced on disk.  ``sync_latency``
should be ``0.0`` live — the real ``fsync`` is the cost, not a modeled
one.

A snapshot is a version byte, the durable map as a :mod:`repro.wire`
tagged value, and a CRC32 of both.  Reloading decodes data only, and a
damaged file is a ``StorageError`` that names the damage: truncated,
unknown version or checksum mismatch.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Callable, Hashable

from repro.sim.storage import StableStorage, StorageError
from repro.wire import CodecError, decode_value, encode_value

__all__ = ["FileStorage"]

_VERSION = b"\x01"


def _reload(data: bytes) -> dict:
    """The durable map in snapshot ``data``; a ``ValueError`` names damage."""
    if data[:1] not in (b"", _VERSION):
        raise ValueError(f"unknown snapshot version {data[0]}")
    body = data[:-4]
    try:
        durable = decode_value(body[1:])
    except CodecError as error:
        # A cut-short file runs off the self-delimiting value's end.
        if error.reason == "truncated_frame":
            raise ValueError("truncated snapshot") from None
        durable = None
    if zlib.crc32(body).to_bytes(4, "big") != data[-4:]:
        raise ValueError("checksum mismatch")
    if not isinstance(durable, dict):
        raise ValueError("snapshot does not hold a map")
    return durable


class FileStorage(StableStorage):
    """A :class:`StableStorage` whose durable map survives SIGKILL.

    ``path`` is the snapshot file, stable across incarnations (the
    cluster derives it from the pid, not the incarnation).  ``clock``
    plays the ``sim`` role of the base class; with the default
    ``sync_latency=0.0`` commits are synchronous and the clock is only
    read for observer timestamps.
    """

    def __init__(self, pid: int, clock: Any, path: str,
                 hub: Any = None, sync_latency: float = 0.0) -> None:
        super().__init__(pid, clock, hub=hub, sync_latency=sync_latency)
        self.path = path
        if os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    self._durable.update(_reload(handle.read()))
            except (OSError, ValueError) as error:
                raise StorageError(
                    f"stable storage of pid {pid}: cannot reload "
                    f"snapshot {path!r}: {error}") from None

    def _flush(self) -> None:
        """Write the durable map to disk atomically (temp + replace)."""
        tmp = f"{self.path}.tmp"
        body = _VERSION + encode_value(self._durable)
        with open(tmp, "wb") as handle:
            handle.write(body + zlib.crc32(body).to_bytes(4, "big"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def _make_commit(self, batch: dict[Hashable, Any], index: int, life: int,
                     on_durable: Callable[[], None] | None
                     ) -> Callable[[], None]:
        def durable_after_flush() -> None:
            self._flush()
            if on_durable is not None:
                on_durable()

        # The base commit updates the durable map, dispatches observers,
        # and calls our wrapper only on a successful commit — so failed
        # or aborted batches never touch the file either.
        return super()._make_commit(batch, index, life, durable_after_flush)
