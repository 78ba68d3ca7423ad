"""Consensus on top of Omega (result R5 of DESIGN.md).

Single-decree, ballot-based consensus and a multi-decree replicated log
— two drivers over the one ballot protocol of
:mod:`repro.consensus.paxos` — both safe under asynchrony/loss/crash and
live once the paired Omega module stabilizes with a majority of correct
processes.  Assembled with
:class:`ConsensusSystem` (or, sharded over many groups, with
:class:`ShardedLog`), exercised by :class:`WorkloadSpec` workloads,
judged by :func:`check_single_decree` / :func:`check_log`.
"""

from repro.consensus.checker import (
    LogReport,
    SingleDecreeReport,
    check_log,
    check_single_decree,
)
from repro.consensus.compaction import (
    CompactingLogReport,
    CompactingReplica,
    SnapshotAck,
    SnapshotOffer,
    check_compacting_log,
)
from repro.consensus.config import ConsensusConfig
from repro.consensus.messages import (
    BOTTOM_BALLOT,
    Accepted,
    Ballot,
    Decide,
    DecideAck,
    DecideAcks,
    Decides,
    Forward,
    Forwards,
    Nack,
    Prepare,
    Promise,
    Propose,
)
from repro.consensus.node import ConsensusNode, ConsensusSystem
from repro.consensus.replica import NOOP, Batch, LogReplica, entry_commands
from repro.consensus.sharding import ShardedLog
from repro.consensus.rotating import (
    RotatingLeaderOracle,
    build_rotating_single_decree,
)
from repro.consensus.single import SingleDecreeConsensus
from repro.consensus.statemachine import (
    CounterMachine,
    JournalMachine,
    KeyValueStore,
    ReplicatedStateMachine,
    StateMachine,
)
from repro.consensus.workload import (
    WorkloadDriver,
    WorkloadOutcome,
    WorkloadSpec,
)

__all__ = [
    "LogReport",
    "SingleDecreeReport",
    "check_log",
    "check_single_decree",
    "CompactingLogReport",
    "CompactingReplica",
    "SnapshotAck",
    "SnapshotOffer",
    "check_compacting_log",
    "ConsensusConfig",
    "BOTTOM_BALLOT",
    "Accepted",
    "Ballot",
    "Decide",
    "DecideAck",
    "DecideAcks",
    "Decides",
    "Forward",
    "Forwards",
    "Nack",
    "Prepare",
    "Promise",
    "Propose",
    "ConsensusNode",
    "ConsensusSystem",
    "NOOP",
    "Batch",
    "LogReplica",
    "ShardedLog",
    "entry_commands",
    "RotatingLeaderOracle",
    "build_rotating_single_decree",
    "SingleDecreeConsensus",
    "CounterMachine",
    "JournalMachine",
    "KeyValueStore",
    "ReplicatedStateMachine",
    "StateMachine",
    "WorkloadDriver",
    "WorkloadOutcome",
    "WorkloadSpec",
]
