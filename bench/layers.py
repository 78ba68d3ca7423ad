"""The per-layer metrics: their names, units, and how each is measured.

A layer is a module of the program (``sim.engine``, ``consensus``,
``live.codec``...).  ``BENCHMARK.json`` lists the metrics under
``per_layer`` (name, unit, direction; bench/README.md says what each
means); :func:`layer_values` fills them in for one workload from a
traced pass (span counts and self times), the untraced reference pass
next to it (throughput and the tracing overhead), the program's own
public counters, and a few microbenchmarks.  A layer a workload does
not touch reads 0 there — that is information: an optimisation of that
layer predicts no change on that workload.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Any

from repro.harness import percentile

from bench.trace import LiveProbe, Tracer
from bench.workloads import PassResult

__all__ = ["layer_values", "micro_live", "micro_zipf"]

_SCHEDULE = ("sim.engine.call_at", "sim.engine.call_after",
             "sim.engine.post_at", "sim.engine.post_after",
             "sim.engine.post_batch")
_TIMER_ARM = ("sim.process.set_timer", "sim.process.set_periodic")
_DISPATCH = ("sim.process.deliver", "sim.process.fire")


def _count_under(tracer: Tracer, names: tuple[str, ...],
                 parents: tuple[str, ...]) -> int:
    """Spans called ``names`` whose parent is one of ``parents``."""
    return int(sum(cell[0] for (name, parent), cell in tracer.spans.items()
                   if name in names and parent in parents))


def _percentile(values: list[float], fraction: float) -> float:
    return percentile(values, fraction) if values else 0.0


def layer_values(names: list[str], reference: PassResult,
                 traced: PassResult, tracer: Tracer | None,
                 probe: LiveProbe | None, micro: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in ``names`` for one workload (0 where idle)."""
    values = {name: 0.0 for name in names}
    facts = traced.facts
    values["trace.overhead_ratio"] = traced.wall_s / reference.wall_s
    values.update(micro)
    if tracer is None:  # the live backend: node reports and the probe
        assert probe is not None
        commits = traced.attempted - traced.failed
        values.update({
            "live.transport.packets_sent": facts["packets_sent"],
            "live.transport.packet_bytes": facts["packet_bytes"],
            "live.transport.drops": facts["dropped"],
            "live.node.cpu_ms_per_commit":
                facts["cpu_s"] * 1000 / max(commits, 1),
            "live.node.events": facts["events"],
            "live.control.submit_rtt_p50_ms":
                _percentile(probe.submit_rtts, 0.50) * 1000,
            "live.control.submit_rtt_p95_ms":
                _percentile(probe.submit_rtts, 0.95) * 1000,
            "live.driver.lateness_p95_ms":
                _percentile(probe.lateness, 0.95) * 1000,
        })
        return values

    count, self_s = tracer.count, tracer.self_s
    arms = _count_under(tracer, ("sim.engine.call_after",),
                        _TIMER_ARM + ("sim.process.fire",))
    fires = _count_under(tracer, ("core.on_timer", "consensus.on_timer"),
                         ("sim.process.fire",))
    values.update({
        "sim.engine.events": traced.events,
        "sim.engine.events_per_wall_s": reference.events / reference.wall_s,
        "sim.engine.self_s": self_s("sim.engine.run_until",
                                    "sim.engine.cancel", *_SCHEDULE),
        "sim.engine.schedule_calls": count(
            "sim.engine.call_at", "sim.engine.post_at",
            "sim.engine.post_batch"),
        "sim.engine.schedule_s": self_s(*_SCHEDULE),
        "sim.engine.cancel_calls": count("sim.engine.cancel"),
        "sim.engine.heap_pushes": facts["heap_pushes"],
        "sim.engine.tombstone_pops": facts["tombstone_pops"],
        "sim.engine.compactions": facts["compactions"],
        "sim.process.timer_sets": count(*_TIMER_ARM),
        "sim.process.timer_cancels": _count_under(
            tracer, ("sim.engine.cancel",), ("sim.process.cancel_timer",)),
        "sim.process.timer_fires": fires,
        "sim.process.timer_fire_ratio": fires / arms if arms else 0.0,
        "sim.process.timer_self_s": self_s(
            "sim.process.cancel_timer", "sim.process.fire", *_TIMER_ARM),
        "core.alive_msgs": facts["alive_msgs"],
        "core.accuse_msgs": facts["accuse_msgs"],
        "core.leader_changes": facts["leader_changes"],
        "core.stabilization_s": facts.get("stabilization_s", 0.0),
        "core.reelection_s": facts.get("reelection_s", 0.0),
        "sim.network.sends": facts["sends"],
        "sim.network.delivered": facts["delivered"],
        "sim.network.dropped": facts["dropped"],
        "sim.network.delivery_ratio":
            facts["delivered"] / facts["sends"] if facts["sends"] else 0.0,
        "sim.network.send_calls": count("sim.network.send",
                                        "sim.network.broadcast"),
        "sim.network.send_self_s": self_s(
            "sim.network.send", "sim.network.broadcast",
            "sim.network.deliver"),
        "obs.analyze_s": tracer.total_s("obs.analyze_omega_run"),
        "obs.check_log_s": tracer.total_s("obs.check_log"),
        "obs.metrics_self_s": self_s(*tracer.prefix_names("obs.metrics.")),
    })
    for layer in ("core", "consensus"):
        values[f"{layer}.handler_calls"] = _count_under(
            tracer, (f"{layer}.on_message", f"{layer}.on_timer"), _DISPATCH)
        values[f"{layer}.on_message_self_s"] = self_s(f"{layer}.on_message")
        values[f"{layer}.on_timer_self_s"] = self_s(f"{layer}.on_timer")
    if "issued" in facts:  # the log workloads
        submits = count("consensus.submit")
        commits = traced.attempted - traced.failed
        syncs = count("sim.storage.sync")
        values.update({
            "consensus.submit_calls": submits,
            "consensus.submit_self_s": self_s("consensus.submit"),
            "consensus.slots_decided": sum(len(watch.slots)
                                           for watch in tracer.watches),
            "consensus.cmds_per_slot": facts["cmds_per_slot"],
            "consensus.queue_max_depth": facts["queue_max_depth"],
            "consensus.shed": facts["shed"],
            "consensus.shed_ratio":
                facts["client_shed"] / submits if submits else 0.0,
            "consensus.follower_lag_slots_max": max(
                watch.max_lag for watch in tracer.watches),
            "consensus.unavailable_s": facts.get("unavailable_s", 0.0),
            "sim.storage.puts": count("sim.storage.put"),
            "sim.storage.syncs": syncs,
            "sim.storage.syncs_per_commit": syncs / max(commits, 1),
            "load.issued": facts["issued"],
            "load.retries": facts["retries"],
            "load.retry_ratio": facts["retries"] / facts["issued"],
            "load.commit_p99_s": facts["commit_p99_s"],
            "load.goodput_cps": facts["goodput_cps"],
        })
    return values


def micro_zipf(samples: int = 20_000) -> dict[str, float]:
    """Cost of one key draw from the load generator's Zipf sampler."""
    import random

    from repro import ZipfSampler

    sampler, rng = ZipfSampler(512, 1.1), random.Random(7)
    started = time.perf_counter()
    for _ in range(samples):
        sampler.sample(rng)
    elapsed = time.perf_counter() - started
    return {"load.zipf_sample_ns": elapsed / samples * 1e9}


def _message_mix() -> list[Any]:
    """A fixed mix of registry messages, weighted like a live log run."""
    from repro.consensus import Ballot
    from repro.consensus.messages import (Accepted, Decide, DecideAck,
                                          Forward, Prepare, Promise, Propose)
    from repro.core import Accusation, Alive

    ballot = Ballot(3, 1)
    command = (("c1", 17), ("set", "k5", 35))
    return [
        Alive(2, 0, 0), Alive(2, 0, 0), Alive(0, 3, 3), Accusation(1, 2, 0),
        Forward(1, ("c1", 17), ("set", "k5", 35)),
        Propose(0, ballot, 41, command, 40), Accepted(1, ballot, 41),
        Decide(0, 41, command), DecideAck(2, 41), Prepare(0, ballot, 12),
        Promise(2, ballot, 12, ((12, (Ballot(2, 0), command)),)),
    ]


def micro_live(tmp: Path, repeats: int = 300) -> dict[str, float]:
    """Codec and file-storage microbenchmarks (live layers, no sockets)."""
    from repro import Simulation
    from repro.live import FileStorage, decode_frame, encode_frame

    mix = _message_mix()
    frames = [encode_frame(message, 0, 1.25) for message in mix]
    started = time.perf_counter()
    for _ in range(repeats):
        for message in mix:
            encode_frame(message, 0, 1.25)
    encoded = time.perf_counter()
    for _ in range(repeats):
        for frame in frames:
            decode_frame(frame)
    decoded = time.perf_counter()
    calls = repeats * len(mix)
    frame_bytes = statistics.mean(len(frame) for frame in frames)
    modeled = statistics.mean(message.wire_size() for message in mix)

    path = tmp / "micro.storage"
    storage = FileStorage(0, Simulation(), str(path))
    syncs = []
    for round_ in range(20):
        for key in range(64):
            storage.put(("log", key), (round_, ("set", f"k{key}", key)))
        began = time.perf_counter()
        storage.sync()
        syncs.append(time.perf_counter() - began)
    return {
        "live.codec.encode_us": (encoded - started) / calls * 1e6,
        "live.codec.decode_us": (decoded - encoded) / calls * 1e6,
        "live.codec.frame_bytes": frame_bytes,
        "live.codec.modeled_bytes": modeled,
        "live.codec.inflation_ratio": frame_bytes / modeled,
        "live.storage.sync_ms_p50": statistics.median(syncs) * 1000,
        "live.storage.snapshot_bytes": float(os.path.getsize(path)),
    }
