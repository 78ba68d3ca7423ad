"""Deterministic discrete-event simulation substrate.

This package is the "hardware" of the reproduction: a simulated partially
synchronous message-passing system with per-link synchrony models, crash
injection, tracing and message accounting.  The paper's algorithms (in
:mod:`repro.core` and :mod:`repro.consensus`) run unmodified on top of it.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.sim.cluster": ("Cluster",),
    "repro.sim.engine": ("Simulation", "SimulationError"),
    "repro.sim.faults": ("CrashEvent", "CrashPlan", "random_crash_plan"),
    "repro.sim.nemesis": (
        "CrashFault", "DegradeFault", "DuplicateFault", "FaultEvent",
        "FaultPlan", "FaultPlanError", "FlapFault", "ModelEnvelope",
        "Nemesis", "PartitionFault", "PauseFault", "ProcessClasses",
        "RecoverFault", "model_violations", "parse_event", "process_classes",
        "sample_degraded_plan", "sample_plan", "sample_recovery_plan"),
    "repro.sim.links": (
        "DegradedWindow", "PerturbedLink", "DeadLink", "EventuallyTimelyLink",
        "FairLossyLink", "LinkPolicy", "LossyAsyncLink", "TimelyLink"),
    "repro.sim.messages": ("Message",),
    "repro.sim.metrics": ("MetricsCollector", "WindowStats"),
    "repro.sim.network": ("Network", "NetworkError"),
    "repro.sim.packets": ("DEFAULT_MTU", "packet_count", "wire_size"),
    "repro.sim.process": ("Process", "ProcessError"),
    "repro.sim.rng": ("RngFabric",),
    "repro.sim.storage": ("StableStorage", "StorageError"),
    "repro.sim.topology": (
        "LinkTimings", "all_eventually_timely_links", "all_timely_links",
        "apply_links", "f_source_links", "multi_source_links",
        "ordered_pairs", "relay_tree_links", "source_links",
        "source_links_lossy_elsewhere"),
    "repro.sim.trace": (
        "CrashRecord", "DeliverRecord", "DropRecord", "SendRecord", "TraceLog"),
    "repro.sim.traceview": (
        "render_message_flow", "render_process_timeline", "summarize_trace"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
