"""Live frames: one :mod:`repro.wire` message per datagram.

A frame is ``encode(message)``, then the sender's incarnation as a
varint (the receiver's stale-incarnation drop rule), then ``sent_at``
as an 8-byte float (the delivery observers).  A datagram carries its
own length, so there is no length prefix.  The layout is in
docs/TRANSPORT.md ("The wire format").
"""

from __future__ import annotations

from typing import Any

from repro.wire import (_DOUBLE, CodecError, _decode_all, _get_message,
                        _get_uvarint, _put_message, _put_uvarint)

__all__ = ["MAX_FRAME", "decode_frame", "encode_frame", "frame_overhead"]

#: Upper bound on one frame, defensively small: the largest legitimate
#: message here is a full ``Forwards`` of load-generator commands.
MAX_FRAME = 64 * 1024


def encode_frame(message: Any, incarnation: int, sent_at: float) -> bytes:
    """One datagram: ``message``, the sender's incarnation, ``sent_at``."""
    out = bytearray()
    _put_message(message, out)
    _put_uvarint(incarnation, out)
    out += _DOUBLE.pack(sent_at)
    if len(out) > MAX_FRAME:
        raise CodecError(f"frame of {len(out)} bytes exceeds "
                         f"MAX_FRAME={MAX_FRAME}", reason="oversized_frame")
    return bytes(out)


def _get_frame(data: bytes, pos: int) -> tuple[Any, int]:
    message, pos = _get_message(data, pos)
    incarnation, pos = _get_uvarint(data, pos)
    return (message, incarnation, _DOUBLE.unpack_from(data, pos)[0]), pos + 8


def decode_frame(data: bytes) -> tuple[Any, int, float]:
    """Decode one frame back into ``(message, incarnation, sent_at)``."""
    if len(data) > MAX_FRAME:
        raise CodecError(f"frame of {len(data)} bytes exceeds MAX_FRAME",
                         reason="oversized_frame")
    return _decode_all(_get_frame, data, "frame")


def frame_overhead(incarnation: int) -> int:
    """Bytes a frame adds to its message: incarnation and ``sent_at``."""
    return (max(incarnation.bit_length(), 1) + 6) // 7 + _DOUBLE.size
