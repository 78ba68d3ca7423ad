"""The paper's contribution: Omega failure detectors under limited link synchrony.

Four algorithms (see DESIGN.md §1.5 for the reconstruction notes):

* :class:`AllTimelyOmega` — pre-paper baseline; needs every link ◇timely.
* :class:`SourceOmega` — R1: one eventually timely source suffices.
* :class:`CommEfficientOmega` — R2, the headline: eventually only the
  leader sends messages.
* :class:`FSourceOmega` — R3: an ◇f-source (only f timely output links)
  suffices, via quorum-confirmed suspicion counters.
* :class:`RecoveringOmega` — crash-recovery extension (docs/RECOVERY.md):
  the communication-efficient algorithm with counters persisted to
  stable storage, surviving crash+restart cycles.
* :class:`PacketEfficientOmega` — packet-efficiency extension
  (docs/DEGRADATION.md, after arXiv:1505.05025): bounded-size beats
  only, so the per-*packet* budget stays bounded where the accusation
  counters of R1/R2 grow; needs every link ◇timely.

Plus the adaptive degradation layer (:mod:`repro.core.adaptive`): EWMA
link-quality estimation, bounded-exponential timeout backoff, and
heartbeat batching, behind ``OmegaConfig.adaptive_qos``.

Plus the run checker (:func:`analyze_omega_run`,
:func:`communication_report`) that turns a finished simulation into the
verdicts the experiments report.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.core.adaptive": (
        "AdaptiveController", "BackoffPolicy", "LinkQualityEstimator"),
    "repro.core.all_timely": ("AllTimelyOmega",),
    "repro.core.checker": (
        "CommunicationReport", "OmegaRunReport", "analyze_omega_run",
        "communication_report"),
    "repro.core.comm_efficient": ("CommEfficientOmega",),
    "repro.core.config": ("AdaptiveTimeouts", "OmegaConfig"),
    "repro.core.f_source": ("FSourceOmega",),
    "repro.core.messages": (
        "Accusation", "Alive", "BatchedAlive", "Beat", "FsAlive",
        "Heartbeat", "Suspect"),
    "repro.core.omega": ("OmegaProtocol",),
    "repro.core.packet_efficient": ("PacketEfficientOmega",),
    "repro.core.registry": ("OMEGA_ALGORITHMS", "algorithm_class", "make_factory"),
    "repro.core.qos": ("OmegaQoS", "measure_qos", "output_at"),
    "repro.core.recovering": ("RecoveringOmega",),
    "repro.core.relay": (
        "Relay", "SeenTracker", "make_relayed", "origins_between"),
    "repro.core.source_omega": ("SourceOmega",),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
