"""Length-prefixed wire codec for live transports.

A **frame** is what actually crosses a socket:

``[4-byte big-endian length][JSON body]``

The body carries the message kind, the sender's incarnation (for the
receiver-side stale-incarnation drop rule of the crash-recovery model),
the sender-clock send timestamp (for delivery observers), and the
message's dataclass fields::

    {"k": "Alive", "i": 0, "t": 1.25, "f": {"sender": 2, "counter": 0, "phase": 0}}

One frame fits one UDP datagram; the length prefix is redundant there
but makes the same frames streamable over TCP (the control channel uses
newline-delimited JSON instead, see :mod:`repro.live.node`) and lets a
receiver reject truncated datagrams instead of mis-parsing them.

Values are encoded losslessly for everything the repository's messages
carry: JSON scalars pass through, tuples are tagged (``{"$t": [...]}``
— JSON has no tuple, and frozen dataclasses require exact types back),
and :class:`~repro.consensus.messages.Ballot` gets its own tag
(``{"$b": [round, proposer]}``) so ballot comparisons survive the trip.

The **kind registry** maps the ``k`` tag back to the dataclass.  Every
``Message`` subclass in :mod:`repro.core.messages` and
:mod:`repro.consensus.messages` is pre-registered; protocol extensions
register theirs with :func:`register_message`.

Note on sizing: live packet accounting deliberately reuses the *modeled*
wire size of :mod:`repro.sim.packets` (``message.wire_size()``), not
``len(frame)`` — the JSON envelope is an implementation detail, and
using the shared model keeps the ``packets`` blocks of sim and live
reports directly comparable.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields, is_dataclass
from typing import Any

from repro.consensus import messages as _consensus_messages
from repro.consensus.messages import Ballot
from repro.consensus.replica import Batch
from repro.core import messages as _core_messages
from repro.sim.messages import Message

__all__ = [
    "CodecError",
    "MAX_FRAME",
    "encode_frame",
    "decode_frame",
    "encode_value",
    "decode_value",
    "register_message",
    "registered_kinds",
]

_LENGTH = struct.Struct(">I")

#: Upper bound on one frame's body, defensively small: the largest
#: legitimate message here is a full ``Forwards`` of load-generator
#: commands (256 of them, ≈15 KiB).
MAX_FRAME = 64 * 1024


class CodecError(ValueError):
    """Raised on malformed frames or unregistered message kinds.

    ``reason`` is a short drop-reason tag (``oversized_frame``,
    ``truncated_frame``, ``unknown_kind``, or the generic
    ``corrupt_frame``) so the datagram handler can account the drop
    under a precise key instead of raising into the event loop.
    """

    def __init__(self, message: str, *,
                 reason: str = "corrupt_frame") -> None:
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# Kind registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, type[Message]] = {}


def register_message(cls: type[Message]) -> type[Message]:
    """Register a :class:`Message` dataclass for decoding; returns it.

    The kind tag is the class name (matching :attr:`Message.kind`).
    Registering the same class twice is a no-op; a *different* class
    under an already-taken name is an error — silent shadowing would
    corrupt decoding.
    """
    if not (is_dataclass(cls) and issubclass(cls, Message)):
        raise CodecError(f"{cls!r} is not a Message dataclass")
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise CodecError(f"message kind {name!r} already registered "
                         f"by {existing.__module__}.{existing.__qualname__}")
    _REGISTRY[name] = cls
    return cls


def registered_kinds() -> tuple[str, ...]:
    """All decodable message kinds, sorted."""
    return tuple(sorted(_REGISTRY))


def _register_module(module: Any) -> None:
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if isinstance(obj, type) and issubclass(obj, Message) \
                and is_dataclass(obj):
            register_message(obj)


_register_module(_core_messages)
_register_module(_consensus_messages)


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """``value`` as JSON-ready data, tuples/ballots/batches tagged."""
    if isinstance(value, Ballot):
        return {"$b": [value.round, value.proposer]}
    if isinstance(value, Batch):
        # Multi-command log slots (replicated log, batch_size > 1).
        return {"$B": [encode_value(item) for item in value.entries]}
    if isinstance(value, tuple):
        return {"$t": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {"$d": [[encode_value(k), encode_value(v)]
                       for k, v in value.items()]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CodecError(f"no wire encoding for {type(value).__name__!r}")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "$b" in value:
            return Ballot(*value["$b"])
        if "$B" in value:
            return Batch(tuple(decode_value(item) for item in value["$B"]))
        if "$t" in value:
            return tuple(decode_value(item) for item in value["$t"])
        if "$d" in value:
            return {decode_value(k): decode_value(v)
                    for k, v in value["$d"]}
        raise CodecError(f"unknown value tag in {sorted(value)!r}")
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

def encode_frame(message: Message, incarnation: int,
                 sent_at: float) -> bytes:
    """One length-prefixed frame carrying ``message``.

    ``incarnation`` is the sender's at send time (the receiver's
    stale-incarnation filter keys on it); ``sent_at`` is the sender's
    clock, carried for delivery observers.
    """
    body = json.dumps({
        "k": message.kind,
        "i": incarnation,
        "t": sent_at,
        "f": {spec.name: encode_value(getattr(message, spec.name))
              for spec in fields(message)},
    }, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise CodecError(f"frame body of {len(body)} bytes exceeds "
                         f"MAX_FRAME={MAX_FRAME}", reason="oversized_frame")
    return _LENGTH.pack(len(body)) + body


def decode_frame(data: bytes) -> tuple[Message, int, float]:
    """Decode one frame back into ``(message, incarnation, sent_at)``.

    Raises :class:`CodecError` on truncation, unknown kinds, or fields
    that do not reconstruct the registered dataclass.
    """
    if len(data) < _LENGTH.size:
        raise CodecError(f"frame shorter than its length prefix "
                         f"({len(data)} bytes)", reason="truncated_frame")
    (length,) = _LENGTH.unpack_from(data)
    if length > MAX_FRAME:
        raise CodecError(f"frame length {length} exceeds MAX_FRAME",
                         reason="oversized_frame")
    body = data[_LENGTH.size:]
    if len(body) != length:
        raise CodecError(f"frame length prefix says {length} bytes, "
                         f"got {len(body)}", reason="truncated_frame")
    try:
        document = json.loads(body)
    except ValueError as error:
        raise CodecError(f"frame body is not JSON: {error}") from None
    try:
        kind = document["k"]
        incarnation = document["i"]
        sent_at = document["t"]
        raw_fields = document["f"]
    except (KeyError, TypeError):
        raise CodecError("frame body missing k/i/t/f") from None
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise CodecError(f"unregistered message kind {kind!r}; "
                         f"known: {registered_kinds()}",
                         reason="unknown_kind")
    try:
        message = cls(**{name: decode_value(value)
                         for name, value in raw_fields.items()})
    except TypeError as error:
        raise CodecError(f"fields do not fit {kind}: {error}") from None
    return message, incarnation, sent_at
