"""Live asyncio transport backend: the sim's protocols on real sockets.

This package makes the same ``Process``/Omega/consensus code that runs
inside the deterministic simulator run across real OS processes over
UDP on localhost (or any reachable interface):

:mod:`repro.live.codec`
    Length-prefixed wire codec for every registered
    :class:`~repro.sim.messages.Message` subclass, with incarnation
    stamping for the stale-incarnation drop rule.

:mod:`repro.live.runtime`
    :class:`LiveClock` — the :class:`~repro.transport.Clock`
    implementation on an asyncio event loop (monotonic time,
    ``loop.call_later`` timers).

:mod:`repro.live.transport`
    :class:`LiveTransport` — the :class:`~repro.transport.Transport`
    implementation on UDP datagram endpoints, with socket-level
    delay/drop/duplication fault windows and full observer-hub
    dispatch (so :class:`~repro.obs.report.RunRecorder` and friends
    work unchanged).

:mod:`repro.live.node`
    One OS process of a live cluster: builds clock + transports +
    protocol stack from a JSON spec, serves a control socket, and
    writes its node report at the horizon.

:mod:`repro.live.cluster`
    :class:`LiveCluster` — spawns node subprocesses, maps nemesis
    fault plans onto them (SIGKILL/SIGSTOP/SIGCONT and socket-level
    degrade windows), and merges node reports into a schema-valid
    ``repro-report/v1`` document.

:mod:`repro.live.control`
    A small stdlib HTTP control plane (``python -m repro live serve``)
    for spawning clusters, injecting faults, and scraping reports over
    REST.

:mod:`repro.live.crossval`
    The cross-validation harness: run the same scenario live and
    in-sim, judge both with the existing checkers, and diff the
    verdicts and leader timelines.

:mod:`repro.live.storage`
    :class:`FileStorage` — stable storage whose durable map survives
    SIGKILL (atomic snapshot file), so live crash→respawn goes through
    real storage-backed recovery.

:mod:`repro.live.chaos`
    Supervised soak campaigns (``python -m repro live soak``): the
    protocol zoo under sampled, replayable crash/netem fault plans,
    every run judged through the standard Verdict machinery.

See ``docs/TRANSPORT.md`` for the transport contract and the
quickstart.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.live.chaos": (
        "LiveSoakCase", "LiveSoakResult", "live_soak", "run_live_case",
        "sample_live_case"),
    "repro.live.cluster": ("ControlError", "LiveCluster", "LiveClusterSpec"),
    "repro.live.codec": ("decode_frame", "encode_frame", "registered_kinds"),
    "repro.live.crossval": ("cross_validate",),
    "repro.live.report": ("analyze_live_run", "merged_live_report"),
    "repro.live.runtime": ("Backoff", "Deadline", "LiveClock"),
    "repro.live.storage": ("FileStorage",),
    "repro.live.transport": ("LinkWindow", "LiveTransport"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
