"""Consensus on top of Omega (result R5 of DESIGN.md).

Single-decree, ballot-based consensus and a multi-decree replicated log
— two drivers over the one ballot protocol of
:mod:`repro.consensus.paxos` — both safe under asynchrony/loss/crash and
live once the paired Omega module stabilizes with a majority of correct
processes.  Assembled with
:class:`ConsensusSystem` (one Omega per machine, one or more log groups
sharding the key space), driven by :mod:`repro.load`'s client fleet
(:meth:`~repro.load.LoadSpec.drive`), judged by
:func:`check_single_decree` / :func:`check_log`.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.consensus.checker": (
        "LogReport", "SingleDecreeReport", "check_log", "check_single_decree"),
    "repro.consensus.compaction": (
        "CompactingLogReport", "CompactingReplica", "SnapshotAck",
        "SnapshotOffer", "check_compacting_log"),
    "repro.consensus.config": ("ConsensusConfig",),
    "repro.consensus.messages": (
        "BOTTOM_BALLOT", "Accepted", "Ballot", "Decide", "DecideAck",
        "Decides", "Forward", "Forwards", "Nack", "Prepare", "Promise",
        "Propose"),
    "repro.consensus.node": ("ConsensusNode", "ConsensusSystem"),
    "repro.consensus.replica": ("NOOP", "Batch", "LogReplica", "entry_commands"),
    "repro.consensus.rotating": (
        "RotatingLeaderOracle", "build_rotating_single_decree"),
    "repro.consensus.single": ("SingleDecreeConsensus",),
    "repro.consensus.statemachine": (
        "CounterMachine", "JournalMachine", "KeyValueStore",
        "ReplicatedStateMachine", "StateMachine"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
