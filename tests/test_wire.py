"""The one wire format (``repro.wire``): schemas, sizes, hostile bytes.

Hypothesis runs derandomized under tier-1 (``tests/conftest.py``), so
every property here checks the same examples on every run.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import tempfile
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.consensus.messages import Ballot, Decide
from repro.consensus.replica import Batch
from repro.core.messages import FsAlive, Heartbeat
from repro.live.storage import FileStorage
from repro.sim.engine import Simulation
from repro.sim.messages import Message
from repro.sim.storage import StorageError
from repro.live.codec import decode_frame, encode_frame, frame_overhead
from repro.wire import (KINDS, CodecError, encode, encode_value, kind_class,
                        schema)

CLASSES = [kind_class(kind) for kind, path in enumerate(KINDS, start=1)
           if path is not None]
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
STAMP_INTS = st.integers(0, 2 ** 64 - 1)
SCALARS = (st.none() | st.booleans() | INTS | st.text(max_size=8)
           | st.binary(max_size=8) | st.floats(allow_nan=False))
HASHABLES = st.recursive(
    SCALARS | st.builds(Ballot, INTS, INTS) | st.builds(Heartbeat, INTS)
    | st.builds(FsAlive, INTS, st.lists(INTS, max_size=3).map(tuple)),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6)
VALUES = st.recursive(
    HASHABLES,
    lambda inner: (
        st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
        | st.sets(HASHABLES, max_size=3)
        | st.dictionaries(HASHABLES, inner, max_size=3)
        | st.builds(Batch, st.lists(st.tuples(HASHABLES, inner),
                                    max_size=3).map(tuple))),
    max_leaves=10)


def _strategy(spec: str) -> st.SearchStrategy:
    """Values of one wire type, as :func:`repro.wire.schema` names it."""
    return {"int": INTS, "ints": st.lists(INTS, max_size=4).map(tuple),
            "Ballot": st.builds(Ballot, INTS, INTS), "any": VALUES,
            "stamp": st.none() | st.tuples(STAMP_INTS, STAMP_INTS)}[spec]


def _messages(cls) -> st.SearchStrategy:
    return st.builds(cls, *(_strategy(spec) for _, spec in schema(cls)))


MESSAGES = st.one_of(*(_messages(cls) for cls in CLASSES))


def _all_message_classes() -> set[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = set(), [Message]
    while todo:
        for sub in todo.pop().__subclasses__():
            # ``slots=True`` replaces each class; skip the discarded one.
            home = importlib.import_module(sub.__module__)
            if getattr(home, sub.__qualname__, None) is sub \
                    and sub.__module__.startswith("repro."):
                found.add(sub)
            todo.append(sub)
    return found


class TestSchema:
    def test_every_message_class_has_a_wire_type_per_field(self) -> None:
        classes = _all_message_classes()
        assert classes == set(CLASSES)
        for cls in classes:
            assert [name for name, _ in schema(cls)] == \
                [name for name in cls.__dataclass_fields__]

    def test_a_wrong_annotation_fails_at_the_schema(self) -> None:
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Wrong(Message):
            ratio: float

        with pytest.raises(TypeError, match="Wrong.ratio"):
            schema(Wrong)

    def test_the_kind_table_names_each_class_once(self) -> None:
        assert len(set(KINDS)) == len(KINDS)
        assert [f"{cls.__module__}.{cls.__name__}" for cls in CLASSES] \
            == [path for path in KINDS if path is not None]

    def test_a_retired_kind_id_decodes_as_unknown_kind(self) -> None:
        # Id 18 was the per-instance DecideAcks; every later id kept its
        # place (append-only table).
        assert KINDS[17] is None
        assert KINDS[18] == "repro.consensus.compaction.SnapshotOffer"
        frame = encode_frame(Heartbeat(sender=0), 0, 0.0)
        with pytest.raises(CodecError) as caught:
            decode_frame(bytes([18]) + frame[1:])
        assert caught.value.reason == "unknown_kind"


class TestRoundTrip:
    @given(MESSAGES)
    def test_every_kind_round_trips(self, message) -> None:
        decoded = decode_frame(encode_frame(message, 0, 0.0))[0]
        assert decoded == message
        assert type(decoded) is type(message)

    @given(MESSAGES, st.integers(0, 2 ** 64 - 1),
           st.floats(allow_nan=False))
    def test_a_frame_is_the_message_plus_its_header(
            self, message, incarnation, sent_at) -> None:
        frame = encode_frame(message, incarnation, sent_at)
        assert message.wire_size() == len(encode(message))
        assert len(frame) == message.wire_size() + frame_overhead(incarnation)
        assert decode_frame(frame) == (message, incarnation, sent_at)

    @given(st.sampled_from([cls for cls in CLASSES
                            if cls.__module__ == "repro.core.messages"])
           .flatmap(_messages))
    def test_omega_sizes_are_the_varint_model(self, message) -> None:
        # 1-byte kind, a zig-zag varint per int, a 1-byte count per
        # (short) tuple: the sizes E17's packet rows were measured with.
        def int_size(value: int) -> int:
            zigzag = value << 1 if value >= 0 else ~(value << 1)
            return max(1, (zigzag.bit_length() + 6) // 7)

        size = 1
        for name, _ in schema(type(message)):
            value = getattr(message, name)
            if isinstance(value, tuple):
                size += 1 + sum(int_size(item) for item in value)
            else:
                size += int_size(value)
        assert message.wire_size() == size


def _mutations() -> st.SearchStrategy:
    """Arbitrary bytes, and valid frames with one byte changed or cut."""
    def mutate(args) -> bytes:
        frame, at, byte, cut = args
        at %= len(frame)
        frame = frame[:at] + bytes([byte]) + frame[at + 1:]
        return frame[:len(frame) - cut]

    frames = st.builds(encode_frame, MESSAGES, st.integers(0, 9),
                       st.floats(allow_nan=False))
    return st.binary(max_size=64) | st.tuples(
        frames, st.integers(0, 1 << 16), st.integers(0, 255),
        st.integers(0, 3)).map(mutate)


class TestHostileBytes:
    @given(_mutations())
    def test_decode_frame_raises_only_codec_errors(self, data) -> None:
        try:
            decode_frame(data)
        except CodecError as error:
            assert error.reason in {"truncated_frame", "corrupt_frame",
                                    "unknown_kind"}

    @given(st.binary(max_size=64) | st.binary(max_size=64).map(
        lambda payload: b"\x01" + payload
        + zlib.crc32(b"\x01" + payload).to_bytes(4, "big")))
    def test_the_snapshot_reader_raises_only_storage_errors(self,
                                                            data) -> None:
        # The second strategy carries a valid version and checksum, so
        # the payload reaches the value decoder.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "node0.storage")
            with open(path, "wb") as handle:
                handle.write(data)
            try:
                FileStorage(0, Simulation(seed=1), path)
            except StorageError:
                pass

    def test_deep_nesting_is_a_codec_error(self) -> None:
        nested = encode_value((None,))[:-1] * 5000 + encode_value(None)
        marker = encode_value("marker")
        frame = encode_frame(Decide(0, 0, "marker"), 0, 0.0)
        with pytest.raises(CodecError, match="corrupt frame"):
            decode_frame(frame.replace(marker, nested))

    def test_an_int_outside_64_bits_has_no_encoding(self) -> None:
        with pytest.raises(CodecError, match="64-bit"):
            encode(Heartbeat(2 ** 63))
        frame = encode_frame(Heartbeat(-2 ** 63), 0, 0.0)
        assert decode_frame(frame)[0] == Heartbeat(-2 ** 63)
