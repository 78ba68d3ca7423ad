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
    loops, Zipf key skew, at-least-once retry) driving one- or
    multi-group :class:`ConsensusSystem` logs, and the :class:`LoadSpec` →
    :class:`LoadOutcome` pipeline behind ``python -m repro bench
    --experiments e19`` (docs/LOAD.md spells out the model and the E19
    schema).

Deprecation policy: a superseded entry point keeps working for one
release but emits a ``DeprecationWarning`` once per call site, then is
deleted (none is pending; the last, ``Network(trace=..., metrics=...)``,
is gone — observers attach through ``Network(observers=...)``).  The
test suite escalates these warnings to errors so no in-repo code
regresses onto a shim.

Imports are paid for on first use: ``import repro`` loads no submodule.
This package and each subpackage name their re-exports once, in an
``{home module: names}`` table; a re-exported name imports its home
module the first time it is read (and is a plain attribute after that),
and any other attribute that names a submodule imports it, so
``import repro.sim; repro.sim.engine`` works as it always did.
"""

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable

__version__ = "1.3.0"


class _Package(ModuleType):
    """A package module whose re-exports a submodule import cannot shadow.

    Importing ``repro.harness.soak`` binds the attribute ``soak`` of
    ``repro.harness`` to the module; the package exports a *function*
    of that name, so that one binding is dropped (the module stays
    reachable through ``sys.modules`` and ``import``).
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (isinstance(value, ModuleType) and name in self.__all__
                and value.__name__ == f"{self.__name__}.{name}"):
            return
        super().__setattr__(name, value)


def _lazy_exports(package: str, table: dict[str, tuple[str, ...]],
                  ) -> tuple[list[str], Callable[[str], Any],
                             Callable[[], list[str]]]:
    """``(names, __getattr__, __dir__)`` of a package exporting ``table``.

    ``table`` maps each home module to the names re-exported from it;
    ``names`` (in table order) is the package's ``__all__``.  The
    ``__getattr__`` (PEP 562) imports a name's home module on first
    access and stores the value in the package namespace; a name not in
    the table is imported as a submodule; anything else raises
    :class:`AttributeError`.
    """
    home = {name: module for module, names in table.items() for name in names}
    module = sys.modules[package]
    namespace = module.__dict__

    def __getattr__(name: str) -> Any:
        if name in home:
            value = getattr(import_module(home[name]), name)
        else:
            submodule = f"{package}.{name}"
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise  # the submodule exists but failed to import
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    module.__class__ = _Package
    return list(home), __getattr__, __dir__


_EXPORTS = {
    "repro.consensus": (
        "Batch", "ConsensusConfig", "ConsensusSystem", "LogReplica",
        "SingleDecreeConsensus", "check_log", "check_single_decree"),
    "repro.load": (
        "ClientFleet", "LoadOutcome", "LoadRun", "LoadSpec", "ZipfSampler"),
    "repro.core": (
        "AllTimelyOmega", "CommEfficientOmega", "FSourceOmega",
        "RecoveringOmega", "OmegaConfig", "OmegaProtocol", "SourceOmega",
        "analyze_omega_run", "communication_report", "make_factory"),
    "repro.harness": ("OmegaOutcome", "OmegaScenario", "render_table"),
    "repro.obs": (
        "Observer", "ObserverHub", "RunReport", "TimelinessInspector",
        "Verdict", "capture", "scenario_report", "validate_report"),
    "repro.transport": ("Clock", "TimerHandle", "Transport", "TransportError"),
    "repro.sim": (
        "Cluster", "FaultPlan", "StableStorage", "StorageError",
        "ModelEnvelope", "LinkTimings", "Message", "Network", "Process",
        "Simulation"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__.insert(0, "__version__")
