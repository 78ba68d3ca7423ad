"""Public-API contract tests.

The documentation deliverable is enforced, not aspirational: every name
exported through ``__all__`` must resolve, every public module, class,
function and method must carry a docstring, and the curated top-level
re-exports must stay importable.  A rename or an undocumented addition
fails here before it reaches a user.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = sorted(
    name for _, name, __ in pkgutil.walk_packages(repro.__path__, "repro.")
)


def public_modules() -> list[str]:
    return [name for name in MODULES if not name.rsplit(".", 1)[-1]
            .startswith("_")]


class TestExports:
    @pytest.mark.parametrize("module_name", public_modules())
    def test_module_imports(self, module_name: str) -> None:
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", public_modules())
    def test_all_names_resolve(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_top_level_reexports(self) -> None:
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version(self) -> None:
        assert repro.__version__


class TestConfigSurface:
    """Every settable value of the config objects, by name.  A value no
    run ever changes is a constant at its point of use, not a field;
    adding one here must be a deliberate edit."""

    FIELDS = {
        "repro.core.config.OmegaConfig": (
            "eta", "initial_timeout", "growth_policy", "growth_step",
            "phase_tagged_accusations", "adaptive_qos"),
        "repro.consensus.config.ConsensusConfig": (
            "tick", "max_batch", "batch_size", "queue_limit",
            "sync_latency"),
        "repro.sim.topology.LinkTimings": (
            "gst", "pre_gst_loss", "pre_gst_delay_max", "fair_loss",
            "fair_delay_max", "fair_delay_growth", "fair_outage_period",
            "fair_outage_growth"),
        "repro.load.LoadSpec": (
            "n", "groups", "omega", "gst", "seed", "batch_size", "window",
            "queue_limit", "persist", "compacting", "keep_tail", "clients",
            "keys", "mode", "rate", "arrival", "think_time", "start",
            "duration", "horizon"),
        "repro.harness.scenarios.OmegaScenario": (
            "algorithm", "n", "system", "source", "sources", "targets", "f",
            "faults", "seed", "horizon", "ce_window",
            "quorum_override", "timings", "config", "trace", "link_rng"),
        "repro.live.cluster.LiveClusterSpec": (
            "n", "algorithm", "eta", "initial_timeout", "horizon", "seed",
            "consensus", "proposals", "faults", "tick", "host", "log",
            "persist", "batch_size", "workload", "workload_period",
            "workload_start", "workload_clients"),
    }

    @pytest.mark.parametrize("path", sorted(FIELDS))
    def test_fields_are_pinned(self, path: str) -> None:
        import dataclasses

        module_name, name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), name)
        assert tuple(spec.name for spec in dataclasses.fields(cls)) == \
            self.FIELDS[path]


class TestLoadSurface:
    """The PR-9 additions ride the same top-level re-export contract."""

    def test_new_names_exported(self) -> None:
        for name in ("Batch", "LoadSpec", "LoadRun", "LoadOutcome",
                     "ClientFleet", "ZipfSampler"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_deprecated_shim_is_gone(self) -> None:
        # LogWorkload was kept for one release (shim policy), then cut.
        import repro.consensus

        for module in (repro, repro.consensus):
            assert "LogWorkload" not in module.__all__
            assert not hasattr(module, "LogWorkload")

    def test_drive_is_the_one_client_attach_path(self) -> None:
        # A fixed-count drip is a one-client LoadSpec fleet driven onto a
        # system the caller built; the drip's own module is gone.
        assert callable(repro.LoadSpec.drive)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.consensus.workload")

    def test_spec_types_are_frozen(self) -> None:
        import dataclasses

        for cls in (repro.LoadSpec, repro.Batch):
            params = getattr(cls, "__dataclass_params__")
            assert params.frozen, f"{cls.__name__} must be frozen"
            assert dataclasses.is_dataclass(cls)


class TestDocstrings:
    @pytest.mark.parametrize("module_name", public_modules())
    def test_module_docstring(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), \
            f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", public_modules())
    def test_public_items_documented(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        undocumented: list[str] = []
        for name in getattr(module, "__all__", ()):
            item = getattr(module, name)
            if not (inspect.isclass(item) or inspect.isfunction(item)):
                continue
            if item.__module__ != module_name:
                continue  # re-export; checked at its home module
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(item):
                for member_name, member in vars(item).items():
                    if member_name.startswith("_"):
                        continue
                    if not inspect.isfunction(member):
                        continue
                    if member.__doc__ and member.__doc__.strip():
                        continue
                    # Overrides inherit their contract's documentation
                    # (e.g. ``on_message``, ``plan``, ``apply``).
                    if any(getattr(base, member_name, None) is not None
                           and getattr(base, member_name).__doc__
                           for base in item.__mro__[1:]):
                        continue
                    undocumented.append(f"{name}.{member_name}")
        assert not undocumented, \
            f"{module_name}: undocumented public items: {undocumented}"


def _one_message_per_kind() -> list:
    from repro.consensus.compaction import SnapshotAck, SnapshotOffer
    from repro.consensus.messages import (
        Accepted, Ballot, Decide, DecideAck, Decides, Forward, Forwards,
        Nack, Prepare, Promise, Propose)
    from repro.consensus.replica import Batch
    from repro.core.messages import (
        Accusation, Alive, BatchedAlive, Beat, FsAlive, Heartbeat, Suspect)
    from repro.core.relay import Relay

    ballot, command = Ballot(3, 1), (("c1", 17), ("set", "k5", 35))
    return [
        Heartbeat(3), Alive(2, 5, 1), BatchedAlive(2, 5, 1, 4),
        Accusation(1, 2, 0), FsAlive(0, (0, 3, 1)), Beat(4, 2),
        Suspect(1, 2, 3), Prepare(0, ballot, 12),
        Promise(2, ballot, 12, ((12, (Ballot(2, 0), command)),), 11),
        Propose(0, ballot, 41, Batch((command,)), 40),
        Accepted(1, ballot, 41, 40), Nack(1, ballot, 41, Ballot(4, 2)),
        Decide(0, 41, None), DecideAck(2, 41),
        Forward(1, ("c1", 17), ("set", "k5", 35)), Forwards(1, (command,)),
        Decides(0, ((41, command),)),
        SnapshotOffer(0, 7, {"k5": 35, "k6": -1.5}, (("c1", 17),)),
        SnapshotAck(1, 7), Relay(3, 0, 9, -1, Alive(0, 1, 1)),
    ]


#: ``encode_frame(message, incarnation=1, sent_at=1.5)`` of each message
#: above, in kind-id order: the wire format (``repro.wire``, framed by
#: ``repro.live.codec``), byte for byte.  A change here is a change of
#: what nodes send and store.  Id 18 (0x12) is retired.
FRAME_HEX = [
    "0106013ff8000000000000",
    "02040a02013ff8000000000000",
    "03040a0208013ff8000000000000",
    "04020400013ff8000000000000",
    "050003000602013ff8000000000000",
    "060804013ff8000000000000",
    "07020406013ff8000000000000",
    "0800060218013ff8000000000000",
    "090406021807010702031807020c04000702070205026331032207030503"
    "73657405026b35034616013ff8000000000000",
    "0a000602520d0701070207020502633103220703050373657405026b3503"
    "4650013ff8000000000000",
    "0b0206025250013ff8000000000000",
    "0c020602520804013ff8000000000000",
    "0d005200013ff8000000000000",
    "0e0452013ff8000000000000",
    "0f0207020502633103220703050373657405026b350346013ff800000000"
    "0000",
    "10020701070207020502633103220703050373657405026b350346013ff8"
    "000000000000",
    "1100070107020352070207020502633103220703050373657405026b3503"
    "46013ff8000000000000",
    "13000e0b0205026b35034605026b3604bff8000000000000070107020502"
    "63310322013ff8000000000000",
    "14020e013ff8000000000000",
    "15060012010e02000202013ff8000000000000",
]


class TestWireFormat:
    def test_one_frame_per_kind_is_pinned(self) -> None:
        from repro.live.codec import decode_frame, encode_frame
        from repro.wire import KINDS

        messages = _one_message_per_kind()
        assert [type(message).__name__ for message in messages] == \
            [path.rsplit(".", 1)[1] for path in KINDS if path is not None]
        for message, pinned in zip(messages, FRAME_HEX):
            frame = encode_frame(message, 1, 1.5)
            assert frame.hex() == pinned, message
            assert decode_frame(frame) == (message, 1, 1.5)
