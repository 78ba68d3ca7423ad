"""The one binary encoding of messages, frames and stored values.

The sim sizes a message as ``len(encode(message))``; live frames
(:mod:`repro.live.codec`), storage snapshots and node-report values are
the same bytes.  A message
is a kind id (its position in :data:`KINDS` from 1; 0 for a class
outside the table, which has a size but no decoder) and its fields in
the wire types of :func:`schema`.  Decoding is typed and total: bad
input raises :class:`CodecError` with a ``reason``, nothing else.  The
byte layout is in docs/TRANSPORT.md ("The wire format").
"""

from __future__ import annotations

import struct
import types
import typing
from collections.abc import Hashable
from dataclasses import fields
from functools import cache
from importlib import import_module
from itertools import chain
from typing import Any

__all__ = ["CodecError", "KINDS", "decode_value", "encode", "encode_value",
           "kind_class", "schema", "wire_size"]

#: Every message class that crosses a wire, kind id 1 first.  Append
#: only: a class's position is its id in every encoding.  A retired
#: class keeps its slot as ``None`` (``-`` below), and its id decodes as
#: ``unknown_kind``; id 18 was the per-instance ``DecideAcks``.
KINDS = tuple(None if name == "-" else f"repro.{module}.{name}"
              for module, names in (
    ("core.messages", "Heartbeat Alive BatchedAlive Accusation FsAlive "
                      "Beat Suspect"),
    ("consensus.messages", "Prepare Promise Propose Accepted Nack Decide "
                           "DecideAck Forward Forwards Decides -"),
    ("consensus.compaction", "SnapshotOffer SnapshotAck"),
    ("core.relay", "Relay"),
) for name in names.split())
_KIND_IDS = {path: kind for kind, path in enumerate(KINDS, start=1) if path}

_DOUBLE = struct.Struct(">d")

#: Kind-id flag of a message whose trailing ``stamp`` field is set: the
#: stamp follows the other fields.  Kind ids stay below it.
_STAMP_FLAG = 0x80

# Value tags of an ``"any"`` field.
(_NONE, _FALSE, _TRUE, _INT, _FLOAT, _STR, _BYTES, _TUPLE, _LIST, _SET,
 _FROZENSET, _DICT, _BALLOT, _BATCH, _MESSAGE) = range(15)
_ITEMS = {tuple: _TUPLE, list: _LIST, set: _SET, frozenset: _FROZENSET,
          dict: _DICT}
_ITEM_TYPES = {tag: kind for kind, tag in _ITEMS.items()}


class CodecError(ValueError):
    """Input that is not an encoding, or a value that has none.

    ``reason`` names the drop: ``oversized_frame``, ``truncated_frame``,
    ``unknown_kind`` or ``corrupt_frame``.
    """

    def __init__(self, message: str, *, reason: str = "corrupt_frame") -> None:
        super().__init__(message)
        self.reason = reason


@cache
def _types() -> tuple[type, type, type]:
    """``Ballot``, ``Batch`` and ``Message``, imported on first use."""
    from repro.consensus.messages import Ballot
    from repro.consensus.replica import Batch
    from repro.sim.messages import Message

    return Ballot, Batch, Message


def _put_uvarint(value: int, out: bytearray) -> None:
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _get_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    byte = data[pos]
    value, shift = byte & 0x7F, 0
    while byte & 0x80:
        pos += 1
        shift += 7
        if shift > 63:
            raise CodecError("varint longer than 10 bytes")
        byte = data[pos]
        value |= (byte & 0x7F) << shift
    if (shift and not byte) or value >> 64:
        raise CodecError("varint is not a canonical 64-bit value")
    return value, pos + 1


def _put_int(value: int, out: bytearray) -> None:
    if value.__class__ is not int:
        raise CodecError(f"expected an int, got {type(value).__name__!r}")
    zigzag = value << 1 if value >= 0 else ~(value << 1)
    if zigzag >> 64:
        raise CodecError(f"int {value} is outside the 64-bit range")
    _put_uvarint(zigzag, out)


def _get_int(data: bytes, pos: int) -> tuple[int, int]:
    zigzag, pos = _get_uvarint(data, pos)
    return (zigzag >> 1) ^ -(zigzag & 1), pos


def _get_count(data: bytes, pos: int) -> tuple[int, int]:
    # Each item takes a byte or more: a longer count is a truncation.
    count, pos = _get_uvarint(data, pos)
    if count > len(data) - pos:
        raise CodecError(f"count {count} runs past the end of the input",
                         reason="truncated_frame")
    return count, pos


def _spec(hint: Any, where: str) -> str:
    args = typing.get_args(hint)
    if (typing.get_origin(hint) in (typing.Union, types.UnionType)
            and args == (tuple[int, int], type(None))):
        return "stamp"
    if typing.get_origin(hint) is tuple:
        for arg in set(args) - {Ellipsis}:  # the parts need wire types too
            _spec(arg, where)
        return "ints" if args == (int, ...) else "any"
    if hint is int:
        return "int"
    ballot, _, message = _types()
    spec = {ballot: "Ballot", message: "any", Any: "any", Hashable: "any",
            typing.Hashable: "any"}.get(hint)
    if spec is None:
        raise TypeError(f"{where}: annotation {hint!r} has no wire type")
    return spec


@cache
def schema(cls: type) -> tuple[tuple[str, str], ...]:
    """``(field name, wire type)`` of each field of dataclass ``cls``.

    ``"int"``, ``"ints"`` (``tuple[int, ...]``), ``"Ballot"``,
    ``"any"`` (``Any``, ``Hashable``, ``Message``, other tuples) or
    ``"stamp"`` (``tuple[int, int] | None``, the last field only); any
    other annotation raises ``TypeError``.
    """
    hints = typing.get_type_hints(cls)
    specs = tuple((spec.name, _spec(hints[spec.name],
                                    f"{cls.__name__}.{spec.name}"))
                  for spec in fields(cls))
    if any(spec == "stamp" for _, spec in specs[:-1]):
        raise TypeError(f"{cls.__name__}: a stamp must be the last field")
    return specs


def _put(spec: str, value: Any, out: bytearray) -> None:
    if spec == "int":
        _put_int(value, out)
    elif spec == "any":
        _put_value(value, out)
    elif spec == "ints":
        if value.__class__ is not tuple:
            raise CodecError(f"expected a tuple, got {value!r}")
        _put_uvarint(len(value), out)
        for item in value:
            _put_int(item, out)
    else:
        if value.__class__ is not _types()[0]:
            raise CodecError(f"expected a Ballot, got {value!r}")
        _put_int(value.round, out)
        _put_int(value.proposer, out)


def _get(spec: str, data: bytes, pos: int) -> tuple[Any, int]:
    if spec == "int":
        return _get_int(data, pos)
    if spec == "any":
        return _get_value(data, pos)
    count, pos = _get_count(data, pos) if spec == "ints" else (2, pos)
    items = []
    for _ in range(count):
        item, pos = _get_int(data, pos)
        items.append(item)
    return tuple(items) if spec == "ints" else _types()[0](*items), pos


@cache
def kind_class(kind: int) -> type:
    """The message class with kind id ``kind`` (imported on first use)."""
    path = KINDS[kind - 1] if 1 <= kind <= len(KINDS) else None
    if path is None:
        raise CodecError(f"unknown message kind id {kind}",
                         reason="unknown_kind")
    module, name = path.rsplit(".", 1)
    return getattr(import_module(module), name)


@cache
def _kind_id(cls: type) -> int:
    if not issubclass(cls, _types()[2]):
        raise CodecError(f"expected a Message, got {cls.__name__!r}")
    return _KIND_IDS.get(f"{cls.__module__}.{cls.__qualname__}", 0)


def _put_message(message: Any, out: bytearray) -> None:
    cls = message.__class__
    at = len(out)
    out.append(_kind_id(cls))
    for name, spec in schema(cls):
        value = getattr(message, name)
        if spec != "stamp":
            _put(spec, value, out)
        elif value is not None:
            # An unset stamp costs nothing: the flag says one follows.
            if (value.__class__ is not tuple or len(value) != 2
                    or any(item.__class__ is not int or item < 0
                           for item in value)):
                raise CodecError(f"expected a stamp of two ints >= 0, "
                                 f"got {value!r}")
            out[at] |= _STAMP_FLAG
            _put_uvarint(value[0], out)
            _put_uvarint(value[1], out)


def _get_message(data: bytes, pos: int) -> tuple[Any, int]:
    kind = data[pos]
    cls = kind_class(kind & ~_STAMP_FLAG)
    pos += 1
    specs = schema(cls)
    stamped = kind & _STAMP_FLAG
    if stamped and (not specs or specs[-1][1] != "stamp"):
        raise CodecError(f"{cls.__name__} carries no stamp")
    values = []
    for _, spec in specs:
        if spec != "stamp":
            value, pos = _get(spec, data, pos)
        elif stamped:
            counter, pos = _get_uvarint(data, pos)
            phase, pos = _get_uvarint(data, pos)
            value = (counter, phase)
        else:
            value = None
        values.append(value)
    return cls(*values), pos


def _put_value(value: Any, out: bytearray) -> None:
    cls = value.__class__
    if value is None or cls is bool:
        out.append(_NONE if value is None else _TRUE if value else _FALSE)
    elif cls is int:
        out.append(_INT)
        _put_int(value, out)
    elif cls is float:
        out.append(_FLOAT)
        out += _DOUBLE.pack(value)
    elif cls is str or cls is bytes:
        raw = value.encode() if cls is str else value
        out.append(_STR if cls is str else _BYTES)
        _put_uvarint(len(raw), out)
        out += raw
    elif cls in _ITEMS:
        out.append(_ITEMS[cls])
        _put_uvarint(len(value), out)
        items = chain.from_iterable(value.items()) if cls is dict else value
        for item in items:  # a dict's keys and values, alternating
            _put_value(item, out)
    else:
        ballot, batch, message = _types()
        if cls is ballot:
            out.append(_BALLOT)
            _put("Ballot", value, out)
        elif cls is batch:
            out.append(_BATCH)
            _put_value(value.entries, out)
        elif isinstance(value, message):
            out.append(_MESSAGE)
            _put_message(value, out)
        else:
            raise CodecError(f"no wire encoding for {cls.__name__!r}")


def _get_value(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag <= _TRUE:
        return (None, False, True)[tag], pos
    if tag == _INT:
        return _get_int(data, pos)
    if tag == _FLOAT:
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag == _STR or tag == _BYTES:
        size, pos = _get_count(data, pos)
        raw = bytes(data[pos:pos + size])
        return raw.decode() if tag == _STR else raw, pos + size
    if tag in _ITEM_TYPES:
        count, pos = _get_count(data, pos)
        items = []
        for _ in range(count * 2 if tag == _DICT else count):
            item, pos = _get_value(data, pos)
            items.append(item)
        if tag == _DICT:
            items = zip(items[::2], items[1::2])
        return _ITEM_TYPES[tag](items), pos
    if tag == _BALLOT:
        return _get("Ballot", data, pos)
    if tag == _BATCH:
        entries, pos = _get_value(data, pos)
        return _types()[1](entries), pos
    if tag == _MESSAGE:
        return _get_message(data, pos)
    raise CodecError(f"unknown value tag {tag}")


def _decode_all(get: Any, data: bytes, what: str) -> Any:
    """``get`` over all of ``data``, every failure a :class:`CodecError`."""
    try:
        value, end = get(data, 0)
    except CodecError:
        raise
    except (IndexError, struct.error):
        raise CodecError(f"{what} ends mid-value ({len(data)} bytes)",
                         reason="truncated_frame") from None
    except (TypeError, ValueError, RecursionError) as error:
        raise CodecError(f"corrupt {what}: {error}") from None
    if end != len(data):
        raise CodecError(f"{len(data) - end} stray bytes after the {what}")
    return value


def encode(message: Any) -> bytes:
    """The bytes of ``message``: kind id, then its fields."""
    out = bytearray()
    _put_message(message, out)
    return bytes(out)


def wire_size(message: Any) -> int:
    """Bytes of ``message`` on the wire: ``len(encode(message))``."""
    return len(encode(message))


def encode_value(value: Any) -> bytes:
    """The tagged-value bytes of ``value``."""
    out = bytearray()
    _put_value(value, out)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`."""
    return _decode_all(_get_value, data, "value")
