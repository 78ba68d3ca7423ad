"""repro — reproduction of "Communication-efficient leader election and
consensus with limited link synchrony" (Aguilera, Delporte-Gallet,
Fauconnier, Toueg — PODC 2004).

The library has four layers:

:mod:`repro.sim`
    A deterministic discrete-event simulator of a partially synchronous
    message-passing system with per-link synchrony models (timely,
    eventually timely, fair-lossy, lossy-asynchronous), crash and
    crash-recovery injection with per-process stable storage, tracing
    and message accounting.

:mod:`repro.core`
    The paper's contribution: Omega (eventual leader election) failure
    detectors — a pre-paper baseline, the eventually-timely-source
    algorithm, the communication-efficient algorithm, and the ◇f-source
    algorithm — plus a checker that decides stabilization, agreement and
    communication efficiency for a run.

:mod:`repro.consensus`
    Leader-based consensus driven by Omega: single-decree (Paxos-style,
    retransmitting over fair-lossy links) and a replicated log whose
    steady state is communication-efficient.

:mod:`repro.harness`
    The experiment catalogue behind every benchmark, with scenario
    builders, statistics and table rendering.

:mod:`repro.obs`
    The observability layer: the :class:`Observer` protocol and its
    fan-out :class:`ObserverHub` (every network dispatches sim events
    through one), the shared :class:`Verdict` checker shape, the
    per-link :class:`TimelinessInspector`, and the versioned
    :class:`RunReport` behind ``python -m repro report``.

:mod:`repro.live`
    The live backend: the same protocol classes on asyncio UDP across
    real OS processes, behind the :class:`Clock`/:class:`Transport`
    seam of :mod:`repro.transport` (``python -m repro live``;
    ``docs/TRANSPORT.md`` spells out the contract).

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
claim-by-claim validation results, and docs/OBSERVABILITY.md for the
observer protocol and report schema.

:mod:`repro.load`
    Population-scale client load: :class:`ClientFleet` (open/closed
    loops, Zipf key skew, at-least-once retry), sharded multi-group
    logs (:class:`ShardedLog`), and the :class:`LoadSpec` →
    :class:`LoadOutcome` pipeline behind ``python -m repro load``
    (docs/LOAD.md spells out the model and the E19 schema).

Deprecation policy: a superseded entry point keeps working for one
release but emits a ``DeprecationWarning`` once per call site, then is
deleted (none is pending; the last, ``Network(trace=..., metrics=...)``,
is gone — observers attach through ``Network(observers=...)``).  The
test suite escalates these warnings to errors so no in-repo code
regresses onto a shim.
"""

__version__ = "1.3.0"

from repro.consensus import (  # noqa: E402  (re-exports after docstring)
    Batch,
    ConsensusConfig,
    ConsensusSystem,
    LogReplica,
    ShardedLog,
    SingleDecreeConsensus,
    WorkloadOutcome,
    WorkloadSpec,
    check_log,
    check_single_decree,
)
from repro.core import (  # noqa: E402
    AllTimelyOmega,
    CommEfficientOmega,
    FSourceOmega,
    RecoveringOmega,
    OmegaConfig,
    OmegaProtocol,
    SourceOmega,
    analyze_omega_run,
    communication_report,
    make_factory,
)
from repro.harness import OmegaOutcome, OmegaScenario, render_table  # noqa: E402
from repro.load import (  # noqa: E402
    ClientFleet,
    LoadOutcome,
    LoadRun,
    LoadSpec,
    ZipfSampler,
)
from repro.obs import (  # noqa: E402
    Observer,
    ObserverHub,
    RunReport,
    TimelinessInspector,
    Verdict,
    capture,
    scenario_report,
    validate_report,
)
from repro.transport import (  # noqa: E402
    Clock,
    TimerHandle,
    Transport,
    TransportError,
)
from repro.sim import (  # noqa: E402
    Cluster,
    CrashPlan,
    FaultPlan,
    StableStorage,
    StorageError,
    LinkTimings,
    Message,
    ModelEnvelope,
    Nemesis,
    Network,
    Process,
    Simulation,
)

__all__ = [
    "__version__",
    "Batch",
    "ConsensusConfig",
    "ConsensusSystem",
    "LogReplica",
    "ShardedLog",
    "SingleDecreeConsensus",
    "WorkloadOutcome",
    "WorkloadSpec",
    "check_log",
    "check_single_decree",
    "ClientFleet",
    "LoadOutcome",
    "LoadRun",
    "LoadSpec",
    "ZipfSampler",
    "AllTimelyOmega",
    "CommEfficientOmega",
    "FSourceOmega",
    "RecoveringOmega",
    "OmegaConfig",
    "OmegaProtocol",
    "SourceOmega",
    "analyze_omega_run",
    "communication_report",
    "make_factory",
    "OmegaOutcome",
    "OmegaScenario",
    "render_table",
    "Observer",
    "ObserverHub",
    "RunReport",
    "TimelinessInspector",
    "Verdict",
    "capture",
    "scenario_report",
    "validate_report",
    "Clock",
    "TimerHandle",
    "Transport",
    "TransportError",
    "Cluster",
    "CrashPlan",
    "FaultPlan",
    "StableStorage",
    "StorageError",
    "ModelEnvelope",
    "Nemesis",
    "LinkTimings",
    "Message",
    "Network",
    "Process",
    "Simulation",
]
