"""Per-pass coalescing of the log's forward / decide / ack traffic.

The tick-paced driver of :class:`~repro.consensus.replica.LogReplica`
sends at most one message of a kind to a peer per pass
(docs/PERFORMANCE.md, "Per-pass coalescing"), and a follower answers
decisions with one cumulative ``DecideAck`` (its watermark).  Counts and
state only, no wall clock: a traffic guard on the benchmark's
``--quick`` ``log_closed`` shape, single-vs-plural equivalence at a
follower, the persisted ack rule, the wire surface of the two plural
kinds, and the packed latency samples the faster drive made necessary.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import partial

import pytest

from repro.consensus.compaction import CompactingReplica, SnapshotOffer
from repro.consensus.messages import (
    Accepted,
    Ballot,
    Decide,
    DecideAck,
    Decides,
    Forward,
    Forwards,
    Promise,
    Propose,
)
from repro.consensus.replica import (FORWARD_SPLIT, NOOP, PHASE_LEADING,
                                     Batch, LogReplica)
from repro.consensus.statemachine import JournalMachine
from repro.harness import bench
from repro.harness.stats import percentile
from repro.live.codec import MAX_FRAME, decode_frame, encode_frame
from repro.wire import KINDS
from repro.load import LoadSpec
from repro.obs.observer import Observer
from repro.obs.report import PHASE_OF_KIND
from repro.sim.engine import Simulation
from repro.sim.network import Network

FORWARD_KINDS = ("Forward", "Forwards")


class _ForwardCensus(Observer):
    """Forward-kind sends per ``(sender, send instant)`` on one network."""

    def __init__(self) -> None:
        self.per_pass: Counter[tuple[int, float]] = Counter()

    def on_send(self, time: float, src: int, dst: int, kind: str) -> None:
        if kind in FORWARD_KINDS:
            self.per_pass[(src, time)] += 1


def test_closed_loop_saturation_costs_a_bounded_number_of_messages() -> None:
    # The benchmark's --quick log_closed shape.  queue_limit (128) keeps
    # every backlog under the split constant, so a follower's pass
    # forwards with exactly one message.
    spec = LoadSpec(n=5, mode="closed", groups=4, clients=256,
                    think_time=1.0, keys=256, duration=30.0, horizon=70.0,
                    seed=7)
    assert spec.queue_limit <= FORWARD_SPLIT
    run = spec.build()
    censuses = []
    for group in run.system.groups:
        censuses.append(_ForwardCensus())
        group.agreement_network.hub.attach(censuses[-1])
    outcome = run.run()
    assert outcome.verdict.ok and outcome.done
    sends = sum(sum(group.agreement_network.metrics.sent_by_kind.values())
                for group in run.system.groups)
    # 2.09 here (1.53 of it Propose + Accepted; 2.50 with a Decide and a
    # DecideAck per decided instance); 7.30 when every pending command
    # and every decided instance is its own message.
    assert sends / outcome.committed <= 2.6
    for census in censuses:
        assert census.per_pass and max(census.per_pass.values()) == 1


def test_a_backlog_over_the_split_constant_is_forwarded_whole() -> None:
    sim = Simulation()
    network = Network(sim)
    follower = LogReplica(1, sim, network, 3, leader_of=lambda: 0)
    sent = []
    follower.send = lambda peer, message: sent.append((peer, message))
    commands = [((client, 0), ("w", client, 0, client % 7))
                for client in range(2 * FORWARD_SPLIT + 1)]
    for command_id, command in commands:
        assert follower.submit(command_id, command)
    follower._drive()
    assert [type(message) for _, message in sent] == [
        Forwards, Forwards, Forward]
    assert {peer for peer, _ in sent} == {0}
    assert [pair for _, message in sent
            for pair in message.commands] == commands


# ----------------------------------------------------------------------
# One multi-entry decide == its entries as single Decides, in order
# ----------------------------------------------------------------------

# Out of order, gaps filled late, a multi-command slot, a filler, a
# command id the follower still holds as pending (twice), and — for the
# compacting follower — two instances under its snapshot base.
ENTRIES = (
    (0, (14, "e")),
    (2, (10, "a")),
    (3, Batch(((11, "b"), (12, "c")))),
    (5, (13, "d")),
    (1, (15, "f")),
    (4, NOOP),
    (6, (10, "a")),
)


def build_pair(kind: str):  # noqa: ANN201
    """An unstarted, prepared leader (pid 0) that has decided
    ``ENTRIES`` and heard no watermark, and a started follower (pid 1)
    whose sends are handed straight to it."""
    sim = Simulation()
    network = Network(sim)

    def make(pid: int) -> LogReplica:
        if kind == "compacting":
            return CompactingReplica(pid, sim, network, 3,
                                     leader_of=lambda: 0,
                                     machine_factory=JournalMachine,
                                     keep_tail=2)
        return LogReplica(pid, sim, network, 3, leader_of=lambda: 0,
                          persist=(kind == "persist"))

    leader, follower = make(0), make(1)
    for instance, value in ENTRIES:
        leader.log[instance] = value
    leader.commit_index = leader._next_instance = len(ENTRIES)
    leader.commit_index -= 1
    leader.owner.ballot, leader.phase = Ballot(0, 0), PHASE_LEADING
    follower.start()
    sent = []

    def hand_over(peer: int, message) -> None:  # noqa: ANN001
        sent.append(message)
        if peer == 0:
            leader.deliver(message)

    follower.send = hand_over
    follower.submit(10, "a")
    follower.submit(99, "z")
    if kind == "compacting":
        # A snapshot base inside the entries: instances 0..1 are gone.
        follower.deliver(SnapshotOffer(0, 1, ("x", "y"), (7, 8)))
    return sim, leader, follower, sent


def follower_state(follower: LogReplica) -> dict:
    state = {
        "log": dict(follower.log),
        "commit_index": follower.commit_index,
        "committed_ids": set(follower.committed_ids),
        "pending": list(follower.pending.items()),
        "decision_times": dict(follower.decision_times),
    }
    if follower.persist:
        storage = follower.storage
        state["durable"] = {key: storage.get(key)
                            for key in storage.durable_keys()}
    if isinstance(follower, CompactingReplica):
        state["machine"] = follower.machine_snapshot()
        state["applied_ids"] = set(follower.applied_ids)
        state["compact_floor"] = follower.compact_floor
    return state


@pytest.mark.parametrize("kind", ["plain", "persist", "compacting"])
def test_one_multi_entry_decide_equals_its_single_decides_in_order(
        kind: str) -> None:
    sim, leader, follower, sent = build_pair(kind)
    follower.deliver(Decides(0, ENTRIES))
    sim.run_until(0.4)  # past the sync latency, before the first tick
    acks = [message for message in sent if isinstance(message, DecideAck)]
    assert acks == [DecideAck(1, 6)]

    sim_b, leader_b, follower_b, sent_b = build_pair(kind)
    for instance, value in ENTRIES:
        follower_b.deliver(Decide(0, instance, value))
    sim_b.run_until(0.4)
    # One ack per Decide, each the watermark after it: the gap at 1
    # holds it at 0 until 1 lands, unless the snapshot covers 0..1.
    assert [message.commit_through for message in sent_b
            if isinstance(message, DecideAck)] \
        == ([1, 2, 3, 3, 3, 5, 6] if kind == "compacting"
            else [0, 0, 0, 0, 3, 5, 6])

    assert follower_state(follower) == follower_state(follower_b)
    assert follower.commit_index == 6
    assert 99 in follower.pending and 10 not in follower.pending
    assert leader._watermarks == leader_b._watermarks == [-1, 6, -1]


def test_a_one_entry_plural_decide_is_acked_with_the_plain_class() -> None:
    sim, leader, follower, sent = build_pair("plain")
    follower.deliver(Decides(0, ENTRIES[:1]))
    assert sent == [DecideAck(1, 0)]
    assert leader._watermarks[1] == 0


def test_a_crash_before_the_sync_sends_no_ack_and_the_leader_retransmits(
        ) -> None:
    sim, leader, follower, sent = build_pair("persist")
    follower.deliver(Decides(0, ENTRIES))
    assert follower.log and not sent  # learned, not yet durable
    follower.crash()
    sim.run_until(1.0)
    assert not sent
    follower.recover()
    assert follower.log == {} and follower.committed_ids == set()
    assert leader._watermarks[1] == -1

    resent = []
    leader.send = lambda peer, message: resent.append((peer, message))
    leader._drive()
    assert (1, Decides(0, tuple(sorted(ENTRIES, key=lambda e: e[0])))) \
        in resent
    follower.deliver(resent[[peer for peer, _ in resent].index(1)][1])
    sim.run_until(2.0)
    assert leader._watermarks[1] == 6
    assert set(follower.log) == {instance for instance, _ in ENTRIES}


def durable_through(replica: LogReplica) -> int:
    """The highest instance through which the log is on stable storage."""
    durable = {key[1] for key in replica.storage.durable_keys()
               if isinstance(key, tuple) and key[0] == "log"}
    mark = -1
    while mark + 1 in durable:
        mark += 1
    return mark


def test_a_reported_watermark_never_runs_ahead_of_the_durable_log() -> None:
    # A crash inside the sync window sends no report at all ...
    sim, leader, follower, sent = build_pair("persist")
    follower.deliver(Propose(0, Ballot(0, 0), 7, (16, "g"), 6))
    follower.deliver(Decides(0, ENTRIES))
    follower.crash()
    sim.run_until(1.0)
    assert not sent

    # ... and on a persisted log under load, through a crash and
    # recovery of the trusted leader and a follower bounce, no report
    # ever carries a watermark above its sender's durable prefix.
    run = LoadSpec(persist=True, omega="crash-recovery", rate=3.0,
                   duration=40.0, horizon=80.0, clients=1000, keys=256,
                   seed=7).build()
    system = run.system
    reports = []
    for pid in system.pids:
        replica = system.node(pid).agreement

        def send(dst, message, replica=replica,  # noqa: ANN001
                 send=replica.send) -> None:
            if isinstance(message, (Accepted, DecideAck, Promise)):
                reports.append((message.commit_through,
                                durable_through(replica)))
            send(dst, message)

        replica.send = send

    def bounce(down: float, follower: bool) -> None:
        leader = system.node(system.up_pids()[0]).omega.leader()
        pid = (leader + 1) % len(system.pids) if follower else leader
        system.crash(pid)
        system.sim.call_at(system.sim.now + down, partial(system.recover,
                                                          pid))

    for at, down, follower in ((10.0, 5.0, False), (25.0, 3.0, True)):
        system.sim.call_at(at, partial(bounce, down, follower))
    outcome = run.run()
    assert outcome.verdict.ok and outcome.done
    assert len(reports) > 100 and max(mark for mark, _ in reports) > 30
    assert all(mark <= durable for mark, durable in reports)


# ----------------------------------------------------------------------
# Wire surface of the plural kinds (``DecideAck`` is cumulative: one)
# ----------------------------------------------------------------------

def load_generator_forward(entries: int, pad: str = "") -> Forwards:
    """A forward of ``ClientFleet``-shaped commands (worst-case digits)."""
    return Forwards(3, tuple(
        ((999_999 - index, 9_999), ("w" + pad, 999_999 - index, 9_999, 255))
        for index in range(entries)))


@pytest.mark.parametrize("message", [
    load_generator_forward(3),
    Decides(0, ENTRIES),
], ids=lambda message: message.kind)
def test_plural_kinds_are_registered_sized_phased_and_round_trip(
        message) -> None:  # noqa: ANN001
    assert f"repro.consensus.messages.{message.kind}" in KINDS
    decoded, incarnation, sent_at = decode_frame(
        encode_frame(message, 2, 1.5))
    assert (decoded, incarnation, sent_at) == (message, 2, 1.5)
    assert isinstance(message.wire_size(), int) and message.wire_size() > 3
    assert PHASE_OF_KIND.get(message.kind, "other") != "other"
    assert message.fairness_key() == message.kind


def test_singular_classes_read_as_the_one_entry_case() -> None:
    assert Forward(1, (4, 0), "cmd").commands == (((4, 0), "cmd"),)
    assert Decide(0, 7, "v").entries == ((7, "v"),)
    # Views, not fields: the wire form and the constructors are as before.
    assert Decide(0, 7, "v").wire_size() == 1 + 1 + 1 + 3
    decoded, _, _ = decode_frame(encode_frame(Forward(1, 4, "cmd"), 0, 0.0))
    assert decoded == Forward(1, 4, "cmd")


def test_a_full_forward_of_load_commands_fits_a_quarter_frame() -> None:
    message = load_generator_forward(FORWARD_SPLIT)
    frame = encode_frame(message, 0, 123.456)
    assert len(frame) <= MAX_FRAME // 4
    assert decode_frame(frame)[0] == message


# ----------------------------------------------------------------------
# Packed latency samples
# ----------------------------------------------------------------------

def _quick_e19_specs() -> list:
    specs = []
    for case in bench.default_suite(seed=7, experiments=("e19",),
                                    quick=True):
        params = {key: value for key, value in case.params.items()
                  if key not in ("mode", "crash_at", "recover_at")}
        specs.append(pytest.param(LoadSpec(**params), id=case.case_id))
    return specs


@pytest.mark.parametrize("spec", _quick_e19_specs())
def test_fleet_latencies_are_the_old_sorted_list_packed(spec) -> None:  # noqa: ANN001
    run = spec.build()
    outcome = run.run()
    fleet = run.fleet
    as_list = sorted(fleet.commit_times[cid] - fleet.submit_times[cid]
                     for cid in fleet.commit_times)
    packed = fleet.latencies()
    assert isinstance(packed, array) and packed.typecode == "d"
    assert len(as_list) > 100 and list(packed) == as_list
    assert (outcome.latency_p50_s, outcome.latency_p95_s,
            outcome.latency_p99_s) == tuple(
        percentile(as_list, fraction) for fraction in (0.50, 0.95, 0.99))
