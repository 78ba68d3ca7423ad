"""Name-indexed registry of the Omega algorithms.

The experiment harness and the examples refer to algorithms by short
names (``"all-timely"``, ``"source"``, ``"comm-efficient"``,
``"f-source"``) so sweeps can be written as data.  :func:`make_factory`
binds a name plus configuration into the process factory shape expected
by :meth:`repro.sim.cluster.Cluster.build`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.all_timely import AllTimelyOmega
from repro.core.comm_efficient import CommEfficientOmega
from repro.core.config import OmegaConfig
from repro.core.f_source import FSourceOmega
from repro.core.omega import OmegaProtocol
from repro.core.packet_efficient import PacketEfficientOmega
from repro.core.recovering import RecoveringOmega
from repro.core.source_omega import SourceOmega

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.network import Network

__all__ = ["OMEGA_ALGORITHMS", "make_factory", "algorithm_class"]

OMEGA_ALGORITHMS: dict[str, type[OmegaProtocol]] = {
    "all-timely": AllTimelyOmega,
    "source": SourceOmega,
    "comm-efficient": CommEfficientOmega,
    "f-source": FSourceOmega,
    "crash-recovery": RecoveringOmega,
    "packet-efficient": PacketEfficientOmega,
}

ProcessFactory = Callable[[int, "Simulation", "Network"], OmegaProtocol]


def algorithm_class(name: str) -> type[OmegaProtocol]:
    """The algorithm class registered under ``name``."""
    try:
        return OMEGA_ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(OMEGA_ALGORITHMS))
        raise KeyError(f"unknown Omega algorithm {name!r}; known: {known}") from None


def make_factory(name: str, config: OmegaConfig | None = None,
                 n: int | None = None, f: int | None = None,
                 quorum_override: int | None = None) -> ProcessFactory:
    """A ``Cluster.build`` process factory for the named algorithm.

    ``n`` and ``f`` are required by (and only by) ``"f-source"``.
    """
    cls = algorithm_class(name)
    if cls is FSourceOmega:
        if n is None or f is None:
            raise ValueError("the f-source algorithm needs explicit n and f")

        def fs_factory(pid: int, sim: Simulation, network: Network) -> OmegaProtocol:
            return FSourceOmega(pid, sim, network, config, n=n, f=f,
                                quorum_override=quorum_override)

        return fs_factory

    def factory(pid: int, sim: Simulation, network: Network) -> OmegaProtocol:
        return cls(pid, sim, network, config)

    return factory
