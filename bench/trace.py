"""Per-layer tracing, installed from outside the program.

The benchmark measures each layer at its public entry points without
touching ``src/``: :class:`Tracer` replaces those entry points (class
attributes and two module-level checkers) with timing wrappers for the
duration of one traced pass and restores the originals afterwards.

A wrapper records one **span** per call: name, start, end, and the span
that was open when it began.  Spans nest on a stack, so a span's *self
time* is its duration minus the time its child spans cover — the
figure that says where a pass's wall time actually went.  Spans are
aggregated in memory per ``(name, parent name)`` as
``[count, total_s, self_s]``; the first :data:`RAW_LIMIT` spans are
also kept raw, as are the first ``consensus.submit`` spans and the
``load.command`` spans (first submit to first decide) of the first
commands, which carry the command id as their trace id.  Everything is
written out once, when the benchmark ends.

Events the kernel runs are attributed too: the scheduling wrappers wrap
each event's action in a span named after the module the action comes
from (a ``Network._deliver`` partial becomes ``sim.network.deliver``,
a ``Process._fire`` partial ``sim.process.fire``, ...), so the kernel's
own self time is the run loop and the heap, not the work it dispatches.

The wrappers only read the clock: they schedule nothing, draw no random
numbers and change no argument, so a traced pass executes the identical
event schedule — the benchmark checks that ``sim.engine.events`` and
every protocol-clock metric match the untraced pass.

Live runs span several OS processes and several driver threads, so they
get :class:`LiveProbe` instead: a thread-safe wrapper around the
cluster's control channel that records submit round trips and how late
the open-loop driver ran.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Hashable

__all__ = ["RAW_LIMIT", "Tracer", "LiveProbe"]

#: Raw spans kept per traced pass (aggregates cover all of them).
RAW_LIMIT = 1000

# Span name for an event's action, by the module the action is defined in.
_ACTION_SPANS = (
    ("repro.sim.network", "sim.network.deliver"),
    ("repro.sim.process", "sim.process.fire"),
    ("repro.sim.storage", "sim.storage.commit"),
    ("repro.load", "load.event"),
    ("repro.consensus", "consensus.event"),
    ("repro.core", "core.event"),
)


def _layer_of(module: str) -> str:
    """The layer prefix (``core`` / ``consensus``) of a protocol module."""
    return "consensus" if module.startswith("repro.consensus") else "core"


class Tracer:
    """Span recorder plus the wrappers that feed it (one per traced pass)."""

    def __init__(self) -> None:
        # (span name, parent span name) -> [count, total_s, self_s]
        self.spans: dict[tuple[str, str], list[float]] = {}
        # (id, name, start, end, parent id, trace id): the first spans of
        # the pass, and the first spans that belong to a client command.
        self.raw: list[tuple[int, str, float, float, int | None, Any]] = []
        self.requests: list[tuple[int, str, float, float, int | None,
                                  Any]] = []
        # Open frames: [name, seconds covered by children, span id].
        self._stack: list[list[Any]] = [["<root>", 0.0, None]]
        self._next_id = [0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._action_names: dict[str, str] = {}
        self._command_started: dict[Hashable, float] = {}
        self.watches: list[Any] = []

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------

    def timed(self, original: Callable[..., Any], name: str,
              trace_id_of: Callable[[tuple], Any] | None = None,
              ) -> Callable[..., Any]:
        """``original`` wrapped in a span called ``name``."""
        stack, spans = self._stack, self.spans
        raw, requests = self.raw, self.requests
        next_id, clock = self._next_id, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            span_id = next_id[0]
            next_id[0] = span_id + 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                cell = spans.get((name, parent[0]))
                if cell is None:
                    spans[(name, parent[0])] = [1, elapsed,
                                                elapsed - frame[1]]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[1]
                if span_id < RAW_LIMIT:
                    raw.append((span_id, name, start, end, parent[2],
                                trace_id_of(args) if trace_id_of else None))
                elif trace_id_of is not None and len(requests) < RAW_LIMIT:
                    requests.append((span_id, name, start, end, parent[2],
                                     trace_id_of(args)))
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, self.timed(owner.__dict__[attr], name))

    def _action(self, action: Callable[[], None]) -> Callable[[], None]:
        """``action`` wrapped in a span named after its defining module."""
        func: Any = action
        while isinstance(func, partial):
            func = func.func
        module = getattr(getattr(func, "__func__", func),
                         "__module__", None) or ""
        name = self._action_names.get(module)
        if name is None:
            name = next((span for prefix, span in _ACTION_SPANS
                         if module.startswith(prefix)), "bench.event")
            self._action_names[module] = name
        return self.timed(action, name)

    # ------------------------------------------------------------------
    # Installing and removing
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer (see module doc)."""
        from repro.consensus import checker as log_checker
        from repro.consensus.replica import LogReplica
        from repro.core import checker as omega_checker
        from repro.load import ZipfSampler
        from repro.sim import (MetricsCollector, Network, Process,
                               Simulation, StableStorage)
        from repro.sim.events import EventHandle

        self._wrap(Simulation, "run_until", "sim.engine.run_until")
        self._wrap(Simulation, "call_after", "sim.engine.call_after")
        self._wrap(Simulation, "post_after", "sim.engine.post_after")
        self._wrap(EventHandle, "cancel", "sim.engine.cancel")
        wrap_action = self._action
        for attr in ("call_at", "post_at"):
            inner = self.timed(Simulation.__dict__[attr],
                               f"sim.engine.{attr}")
            self._patch(Simulation, attr,
                        lambda sim, when, action, _inner=inner:
                        _inner(sim, when, wrap_action(action)))
        post_batch = self.timed(Simulation.__dict__["post_batch"],
                                "sim.engine.post_batch")
        self._patch(Simulation, "post_batch",
                    lambda sim, items: post_batch(
                        sim, [(when, wrap_action(action))
                              for when, action in items]))

        self._wrap(Network, "send", "sim.network.send")
        self._wrap(Network, "broadcast", "sim.network.broadcast")
        for attr in ("deliver", "set_timer", "set_periodic", "cancel_timer"):
            self._wrap(Process, attr, f"sim.process.{attr}")
        for cls in _subclasses(Process):
            if not cls.__module__.startswith("repro."):
                continue
            for attr in ("on_message", "on_timer"):
                if attr in cls.__dict__:
                    self._wrap(cls, attr,
                               f"{_layer_of(cls.__module__)}.{attr}")
        for attr in ("put", "sync"):
            self._wrap(StableStorage, attr, f"sim.storage.{attr}")
        for attr in ("on_send", "on_send_batch", "on_deliver", "on_drop"):
            self._wrap(MetricsCollector, attr, f"obs.metrics.{attr}")
        self._wrap(ZipfSampler, "sample", "load.zipf_sample")
        self._wrap(omega_checker, "analyze_omega_run",
                   "obs.analyze_omega_run")
        self._wrap(log_checker, "check_log", "obs.check_log")

        submit = self.timed(LogReplica.__dict__["submit"],
                            "consensus.submit",
                            trace_id_of=lambda args: repr(args[1]))
        started, clock = self._command_started, time.perf_counter
        budget = [RAW_LIMIT]  # commands followed from submit to decide

        def traced_submit(replica: Any, command_id: Hashable,
                          command: Any) -> bool:
            if command_id not in started and budget[0] > 0:
                budget[0] -= 1
                started[command_id] = clock()
            return submit(replica, command_id, command)
        self._patch(LogReplica, "submit", traced_submit)

    def remove(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def watch(self) -> Any:
        """A fresh per-network observer (pass as a ``capture`` factory)."""
        watch = _network_watch_class()(self)
        self.watches.append(watch)
        return watch

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _sum(self, index: int, names: tuple[str, ...]) -> float:
        return sum(cell[index] for (name, _), cell in self.spans.items()
                   if name in names)

    def count(self, *names: str) -> int:
        """Spans recorded under any of ``names``."""
        return int(self._sum(0, names))

    def total_s(self, *names: str) -> float:
        """Summed duration of the spans under ``names`` (children included)."""
        return self._sum(1, names)

    def self_s(self, *names: str) -> float:
        """Summed self time of the spans under ``names``."""
        return self._sum(2, names)

    def prefix_names(self, prefix: str) -> tuple[str, ...]:
        """Every recorded span name starting with ``prefix``."""
        return tuple(sorted({name for name, _ in self.spans
                             if name.startswith(prefix)}))

    def command_spans(self) -> list[tuple[str, float, float]]:
        """Closed ``load.command`` spans: (trace id, start, end)."""
        return [span for watch in self.watches for span in watch.commands]

    def to_json(self) -> dict[str, Any]:
        """The trace document written at the end of a traced run."""
        return {
            "clock": "host perf_counter seconds",
            "spans": [
                {"name": name, "parent": parent, "count": int(cell[0]),
                 "total_s": cell[1], "self_s": cell[2]}
                for (name, parent), cell in sorted(self.spans.items())],
            "raw": [
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "trace_id": trace_id}
                for span_id, name, start, end, parent, trace_id
                in sorted(self.raw + self.requests)],
            "commands": [
                {"name": "load.command", "trace_id": trace_id,
                 "start": start, "end": end}
                for trace_id, start, end in self.command_spans()],
        }


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _network_watch_class() -> type:
    """Build the observer class lazily: ``repro`` is imported by then."""
    from repro.consensus.replica import entry_commands
    from repro.obs import Observer

    class NetworkWatch(Observer):
        """Counts taken where the work happens, one instance per network.

        Leader changes, syncs, decided slots and — the replication
        figure the kinds sheet asks for — how far the slowest up replica
        trailed the most advanced one, sampled at every decision.
        """

        def __init__(self, tracer: Tracer) -> None:
            self._started = tracer._command_started
            self.commands: list[tuple[str, float, float]] = []
            self.leader_changes = 0
            self.syncs = 0
            self.slots: set[int] = set()
            self.highest: dict[int, int] = {}
            self.down: set[int] = set()
            self.max_lag = 0

        def on_leader_change(self, time_: float, pid: int,
                             leader: int) -> None:
            self.leader_changes += 1

        def on_sync(self, time_: float, pid: int, keys: tuple,
                    ok: bool) -> None:
            self.syncs += 1

        def on_crash(self, time_: float, pid: int) -> None:
            self.down.add(pid)

        def on_recover(self, time_: float, pid: int,
                       incarnation: int) -> None:
            self.down.discard(pid)

        def on_decide(self, time_: float, pid: int, value: Any) -> None:
            instance, entry = value
            self.slots.add(instance)
            if instance > self.highest.get(pid, -1):
                self.highest[pid] = instance
            up = [top for peer, top in self.highest.items()
                  if peer not in self.down]
            if up:
                self.max_lag = max(self.max_lag, max(up) - min(up))
            now = time.perf_counter()
            for command_id, _ in entry_commands(entry):
                began = self._started.pop(command_id, None)
                if began is not None:
                    self.commands.append((repr(command_id), began, now))

    return NetworkWatch


class LiveProbe:
    """Driver-side probe of live clusters: control RTTs and lateness.

    Wraps ``LiveCluster.run`` (to learn each cluster's start instant)
    and ``LiveCluster.control``.  Several clusters run on their own
    driver threads, so the probe keeps no stack — only appends to lists,
    which the interpreter lock makes safe.
    """

    def __init__(self) -> None:
        self.submit_rtts: list[float] = []
        self.lateness: list[float] = []
        self._started: dict[int, float] = {}
        self._seen: set[tuple[int, Any]] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro.live import LiveCluster

        run, control = LiveCluster.run, LiveCluster.control

        def traced_run(cluster: Any) -> Any:
            self._started[id(cluster)] = time.monotonic()
            return run(cluster)

        def traced_control(cluster: Any, pid: int, request: dict[str, Any],
                           *args: Any, **kwargs: Any) -> dict[str, Any]:
            if request.get("op") != "submit":
                return control(cluster, pid, request, *args, **kwargs)
            spec = cluster.spec
            client, seq = request["id"]
            key = (id(cluster), (client, seq))
            began = time.monotonic()
            if key not in self._seen:  # first offer of this command
                self._seen.add(key)
                index = seq * spec.workload_clients + int(client[1:])
                due = (self._started[id(cluster)] + spec.workload_start
                       + index * spec.workload_period)
                self.lateness.append(max(0.0, began - due))
            try:
                return control(cluster, pid, request, *args, **kwargs)
            finally:
                self.submit_rtts.append(time.monotonic() - began)

        for attr, replacement in (("run", traced_run),
                                  ("control", traced_control)):
            self._patches.append((LiveCluster, attr,
                                  LiveCluster.__dict__[attr]))
            setattr(LiveCluster, attr, replacement)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
