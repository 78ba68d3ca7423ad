"""Nemesis: composable fault plans and in-model campaign generation.

This module is the one fault script of the simulator.  A
:class:`FaultPlan` is an ordered script of typed fault events —

:class:`CrashFault`
    Crash a process at a time (``FaultPlan.crashes_at`` builds a
    crash-only plan); with ``recover_at`` set, the process later comes
    back as a fresh incarnation (crash-recovery).

:class:`RecoverFault`
    Recover a down process at a time — the standalone spelling of the
    ``recover_at`` sugar, for plans scripted event by event.

:class:`PauseFault`
    Freeze a process for a duration: it stops sending and dispatching
    timers, buffers deliveries, and resumes later — provoking false
    suspicions the detectors must recover from.

:class:`PartitionFault`
    Split the network into groups for a window, then heal (subsumes the
    ad-hoc partition lists on :class:`~repro.sim.network.Network`).

:class:`DegradeFault`
    A loss/delay storm on chosen ordered links for a window.

:class:`FlapFault`
    Links that cycle up/down during a window.

:class:`DuplicateFault`
    Probabilistic message duplication on chosen links for a window.

Every event is data-first: a frozen dataclass that prints, serializes to
a compact *repro string* (``crash(t=20.0,pid=3)``), parses back with
:func:`parse_event`, and is therefore replayable.  Plans schedule onto
anything with the cluster surface (``sim``, ``pids``, ``crash``,
``pause``/``resume``, ``networks``) — both
:class:`~repro.sim.cluster.Cluster` and
:class:`~repro.consensus.node.ConsensusSystem` qualify, and network
faults apply to *every* network of the target (the consensus stack runs
two).

On top, :func:`sample_plan` (and its crash-recovery and hostile-link
siblings) draws random plans from an explicit seeded generator that
stay inside the paper's model for a given :class:`ModelEnvelope` (never
more than ``f`` crashes, never the designated ◇source, every
disturbance healing with enough calm left before the horizon), and
:func:`model_violations` judges arbitrary plans against an envelope so
out-of-model campaigns are reported as such instead of masquerading as
invariant failures.  The soak harness (:mod:`repro.harness.soak`) names
each sampled campaign by ``(seed, index)``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterable, Sequence

from repro.sim.links import DegradedWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Network

__all__ = [
    "FaultEvent",
    "CrashFault",
    "RecoverFault",
    "PauseFault",
    "PartitionFault",
    "DegradeFault",
    "FlapFault",
    "DuplicateFault",
    "NetemFault",
    "FaultPlan",
    "FaultPlanError",
    "ModelEnvelope",
    "ProcessClasses",
    "model_violations",
    "process_classes",
    "sample_plan",
    "sample_recovery_plan",
    "sample_degraded_plan",
    "parse_event",
]


class FaultPlanError(ValueError):
    """Raised on malformed fault events, plans, or repro strings."""


# ----------------------------------------------------------------------
# Formatting helpers (shared by every event's repro string)
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    """Round-tripping float rendering (``repr`` is exact)."""
    return repr(float(value))


def _fmt_pairs(pairs: Sequence[tuple[int, int]]) -> str:
    return ";".join(f"{src}>{dst}" for src, dst in pairs)


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in text.split(";"):
        src_text, sep, dst_text = part.partition(">")
        if not sep:
            raise FaultPlanError(f"bad link pair {part!r}; expected SRC>DST")
        pairs.append((int(src_text), int(dst_text)))
    return tuple(pairs)


def _fmt_groups(groups: Sequence[Sequence[int]]) -> str:
    return "|".join(".".join(str(pid) for pid in sorted(group))
                    for group in groups)


def _parse_groups(text: str) -> tuple[tuple[int, ...], ...]:
    groups = []
    for part in text.split("|"):
        if not part:
            raise FaultPlanError(f"empty partition group in {text!r}")
        groups.append(tuple(int(pid) for pid in part.split(".")))
    return tuple(groups)


# (render, parse) per attribute; every other field is a float.
_FLOAT = (_fmt, float)
_CODECS = {"pid": (str, int), "dist": (str, str),
           "pairs": (_fmt_pairs, _parse_pairs),
           "groups": (_fmt_groups, _parse_groups)}


def _fields(cls: type) -> list[tuple[str, str, bool]]:
    """``cls.repro_fields`` parsed: ``(short name, attribute, optional)``."""
    out = []
    for spec in cls.repro_fields.split():
        short, _, name = spec.rstrip("?").partition("=")
        out.append((short, name or short, spec.endswith("?")))
    return out


def _networks(target: object) -> "tuple[Network, ...]":
    networks = getattr(target, "networks", None)
    if networks is None:
        raise FaultPlanError(
            f"{type(target).__name__} exposes no networks for link faults")
    return tuple(networks)


def _normalized_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    normalized = tuple((int(src), int(dst)) for src, dst in pairs)
    if not normalized:
        raise FaultPlanError("link fault needs at least one ordered pair")
    for src, dst in normalized:
        if src == dst:
            raise FaultPlanError(f"no self-links in the model ({src}>{dst})")
    return normalized


# ----------------------------------------------------------------------
# Fault events
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """Base class: one typed, schedulable, serializable fault."""

    kind: ClassVar[str] = "fault"
    repro_fields: ClassVar[str] = ""
    """The repro token's fields in order, each ``short=attribute`` (or
    just ``attribute``); ``?`` marks one a token may leave out (its
    default applies).  One table serves :meth:`to_repro` and
    :func:`parse_event`."""

    def window(self) -> tuple[float, float]:
        """The ``[start, end)`` interval this fault disturbs."""
        raise NotImplementedError

    def pids(self) -> frozenset[int]:
        """Processes this fault touches directly (empty for link faults)."""
        return frozenset()

    def link_pairs(self) -> tuple[tuple[int, int], ...]:
        """Ordered link pairs this fault touches (empty for process faults)."""
        return ()

    def to_repro(self) -> str:
        """Compact one-token repro string; inverse of :func:`parse_event`."""
        parts = [f"{short}={_CODECS.get(name, _FLOAT)[0](value)}"
                 for short, name, _ in _fields(type(self))
                 if (value := getattr(self, name)) is not None]
        return f"{self.kind}({','.join(parts)})"

    def schedule(self, target: object) -> None:
        """Install this fault on a cluster-like target."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_repro()


@dataclass(frozen=True)
class CrashFault(FaultEvent):
    """Crash ``pid`` at ``time``; with ``recover_at``, bounce it back up.

    ``recover_at=None`` is the classic crash-stop departure.  Setting it
    schedules a matching recovery — sugar for a ``CrashFault`` plus a
    :class:`RecoverFault` — making the downtime a single event with a
    single repro token, ``crash(t=...,pid=...,recover=...)``.
    """

    time: float
    pid: int
    recover_at: float | None = None

    kind: ClassVar[str] = "crash"
    repro_fields: ClassVar[str] = "t=time pid recover=recover_at?"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.time}")
        if self.recover_at is not None and self.recover_at <= self.time:
            raise FaultPlanError(
                f"recover_at={self.recover_at} must come after the crash "
                f"at t={self.time}")

    def window(self) -> tuple[float, float]:
        # A final departure disturbs nothing afterwards; a bounce keeps
        # the process down for the whole [crash, recover) interval.
        return (self.time, self.time if self.recover_at is None
                else self.recover_at)

    def pids(self) -> frozenset[int]:
        return frozenset((self.pid,))

    def schedule(self, target: object) -> None:
        target.sim.call_at(self.time, lambda: target.crash(self.pid))
        if self.recover_at is not None:
            target.sim.call_at(self.recover_at,
                               lambda: target.recover(self.pid))


@dataclass(frozen=True)
class RecoverFault(FaultEvent):
    """Recover the down process ``pid`` at ``time`` (fresh incarnation)."""

    time: float
    pid: int

    kind: ClassVar[str] = "recover"
    repro_fields: ClassVar[str] = "t=time pid"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultPlanError(f"recover time must be >= 0, got {self.time}")

    def window(self) -> tuple[float, float]:
        return (self.time, self.time)

    def pids(self) -> frozenset[int]:
        return frozenset((self.pid,))

    def schedule(self, target: object) -> None:
        target.sim.call_at(self.time, lambda: target.recover(self.pid))


@dataclass(frozen=True)
class PauseFault(FaultEvent):
    """Freeze ``pid`` during ``[time, time + duration)``."""

    time: float
    pid: int
    duration: float

    kind: ClassVar[str] = "pause"
    repro_fields: ClassVar[str] = "t=time pid dur=duration"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultPlanError(f"pause time must be >= 0, got {self.time}")
        if self.duration <= 0:
            raise FaultPlanError("pause duration must be positive")

    def window(self) -> tuple[float, float]:
        return (self.time, self.time + self.duration)

    def pids(self) -> frozenset[int]:
        return frozenset((self.pid,))

    def schedule(self, target: object) -> None:
        target.sim.call_at(self.time, lambda: target.pause(self.pid))
        target.sim.call_at(self.time + self.duration,
                           lambda: target.resume(self.pid))


@dataclass(frozen=True)
class PartitionFault(FaultEvent):
    """Split the network into ``groups`` during ``[start, end)``, then heal."""

    start: float
    end: float
    groups: tuple[tuple[int, ...], ...]

    kind: ClassVar[str] = "partition"
    repro_fields: ClassVar[str] = "start end groups"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise FaultPlanError("partition must have positive duration")
        if not self.groups:
            raise FaultPlanError("partition needs at least one group")
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise FaultPlanError("partition groups must be non-empty")
            overlap = seen & set(group)
            if overlap:
                raise FaultPlanError(
                    f"partition groups must be pairwise disjoint; "
                    f"{sorted(overlap)} repeat")
            seen |= set(group)

    def window(self) -> tuple[float, float]:
        return (self.start, self.end)

    def pids(self) -> frozenset[int]:
        return frozenset(pid for group in self.groups for pid in group)

    def schedule(self, target: object) -> None:
        for network in _networks(target):
            network.add_partition(self.start, self.end,
                                  [set(group) for group in self.groups])


@dataclass(frozen=True)
class _LinkWindowFault(FaultEvent):
    """Shared shape of the window-scoped link faults."""

    start: float
    end: float
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # Normalize the pairs first so a degenerate window can be
        # reported with the links it targets, not just the fault kind.
        object.__setattr__(self, "pairs", _normalized_pairs(self.pairs))
        if self.end <= self.start:
            raise FaultPlanError(
                f"{self.kind} on {_fmt_pairs(self.pairs)} has degenerate "
                f"window [{self.start:g}, {self.end:g}); end must come "
                f"after start")

    def window(self) -> tuple[float, float]:
        return (self.start, self.end)

    def link_pairs(self) -> tuple[tuple[int, int], ...]:
        return self.pairs

    def _window_object(self) -> DegradedWindow:
        raise NotImplementedError

    def schedule(self, target: object) -> None:
        window = self._window_object()
        for network in _networks(target):
            for src, dst in self.pairs:
                network.perturb_link(src, dst, window)


@dataclass(frozen=True)
class DegradeFault(_LinkWindowFault):
    """A loss/delay storm: extra ``loss`` and up to ``delay`` extra latency."""

    loss: float = 0.0
    delay: float = 0.0

    kind: ClassVar[str] = "degrade"
    repro_fields: ClassVar[str] = "start end pairs loss delay"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.loss <= 1.0:
            raise FaultPlanError(f"loss must be a probability, got {self.loss}")
        if self.delay < 0:
            raise FaultPlanError("delay must be >= 0")
        if self.loss == 0.0 and self.delay == 0.0:
            raise FaultPlanError("degrade must add loss or delay")

    def _window_object(self) -> DegradedWindow:
        return DegradedWindow(self.start, self.end, loss=self.loss,
                              extra_delay=self.delay)


@dataclass(frozen=True)
class FlapFault(_LinkWindowFault):
    """Links cycling up/down: up for ``up`` of each ``period``."""

    period: float = 2.0
    up: float = 0.5

    kind: ClassVar[str] = "flap"
    repro_fields: ClassVar[str] = "start end pairs period up"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period <= 0:
            raise FaultPlanError("flap period must be positive")
        if not 0.0 < self.up < 1.0:
            raise FaultPlanError("flap up fraction must lie in (0, 1)")

    def _window_object(self) -> DegradedWindow:
        return DegradedWindow(self.start, self.end, flap_period=self.period,
                              flap_up=self.up)


@dataclass(frozen=True)
class DuplicateFault(_LinkWindowFault):
    """Duplicate delivered messages with probability ``p``."""

    p: float = 0.2
    lag: float = 0.05

    kind: ClassVar[str] = "dup"
    repro_fields: ClassVar[str] = "start end pairs p lag"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.p <= 1.0:
            raise FaultPlanError(f"p must lie in (0, 1], got {self.p}")
        if self.lag < 0:
            raise FaultPlanError("lag must be >= 0")

    def _window_object(self) -> DegradedWindow:
        return DegradedWindow(self.start, self.end, duplicate=self.p,
                              duplicate_lag=self.lag)


_NETEM_DISTS = ("uniform", "pareto")


@dataclass(frozen=True)
class NetemFault(_LinkWindowFault):
    """A netem-style traffic shape on the listed directed links.

    Models the per-direction link weather a Linux ``tc netem`` qdisc
    produces (arXiv:2102.01251 motivates the asymmetric shapes): a
    fixed base ``delay`` plus ``jitter`` drawn from ``dist``
    (``uniform`` over ``[0, jitter)`` or a heavy-tailed ``pareto``
    spread scaled by ``jitter``), probabilistic ``reorder`` (a frame
    skips its queued delay and overtakes in-flight traffic), a ``rate``
    cap in frames/second (``0`` means uncapped; excess frames drop with
    reason ``rate_cap``), and plain ``loss``.

    Because ``pairs`` are ordered, asymmetric regimes are spelled as
    two events — e.g. a slow ``0>1`` direction and a lossy ``1>0``
    direction.  On the simulator the shape is approximated by a
    :class:`DegradedWindow` with ``extra_delay = delay + jitter`` and
    the same ``loss`` (the sim's link model has no reorder/rate knobs);
    on the live backend the full shape applies at the socket
    (:class:`repro.live.transport.LinkWindow`).
    """

    delay: float = 0.0
    jitter: float = 0.0
    dist: str = "uniform"
    reorder: float = 0.0
    rate: float = 0.0
    loss: float = 0.0

    kind: ClassVar[str] = "netem"
    repro_fields: ClassVar[str] = ("start end pairs delay? jitter? dist? "
                                   "reorder? rate? loss?")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay < 0:
            raise FaultPlanError("netem delay must be >= 0")
        if self.jitter < 0:
            raise FaultPlanError("netem jitter must be >= 0")
        if self.dist not in _NETEM_DISTS:
            known = ", ".join(_NETEM_DISTS)
            raise FaultPlanError(
                f"netem dist must be one of {known}; got {self.dist!r}")
        if not 0.0 <= self.reorder <= 1.0:
            raise FaultPlanError(
                f"reorder must be a probability, got {self.reorder}")
        if self.rate < 0:
            raise FaultPlanError("netem rate must be >= 0 (0 = uncapped)")
        if not 0.0 <= self.loss <= 1.0:
            raise FaultPlanError(f"loss must be a probability, got {self.loss}")
        if (self.delay == 0.0 and self.jitter == 0.0 and self.reorder == 0.0
                and self.rate == 0.0 and self.loss == 0.0):
            raise FaultPlanError(
                "netem must shape something: delay, jitter, reorder, "
                "rate, or loss")

    def _window_object(self) -> DegradedWindow:
        extra = self.delay + self.jitter
        if extra == 0.0 and self.loss == 0.0:
            # Reorder/rate-only shapes have no sim-window equivalent;
            # schedule a negligible delay so the window still exists
            # (and shows up in traces) without perturbing timeouts.
            extra = 1e-9
        return DegradedWindow(self.start, self.end, loss=self.loss,
                              extra_delay=extra)


# ----------------------------------------------------------------------
# Repro-string codec
# ----------------------------------------------------------------------

_EVENT_RE = re.compile(r"^(\w+)\((.*)\)$")

_EVENT_KINDS: dict[str, type[FaultEvent]] = {cls.kind: cls for cls in (
    CrashFault, RecoverFault, PauseFault, PartitionFault, DegradeFault,
    FlapFault, DuplicateFault, NetemFault)}


def parse_event(text: str) -> FaultEvent:
    """Parse one event repro string (inverse of ``event.to_repro()``)."""
    match = _EVENT_RE.match(text.strip())
    if match is None:
        raise FaultPlanError(f"malformed fault event {text!r}")
    kind, body = match.groups()
    if kind not in _EVENT_KINDS:
        known = ", ".join(sorted(_EVENT_KINDS))
        raise FaultPlanError(f"unknown fault kind {kind!r}; known: {known}")
    fields: dict[str, str] = {}
    for item in body.split(","):
        name, sep, value = item.partition("=")
        if not sep:
            raise FaultPlanError(f"malformed field {item!r} in {text!r}")
        fields[name.strip()] = value.strip()
    cls = _EVENT_KINDS[kind]
    try:
        return cls(**{name: _CODECS.get(name, _FLOAT)[1](fields[short])
                      for short, name, optional in _fields(cls)
                      if not optional or short in fields})
    except (KeyError, ValueError) as error:
        raise FaultPlanError(f"cannot parse {text!r}: {error}") from None


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------

class FaultPlan:
    """An ordered, validated script of fault events.

    From a crash-only script (:meth:`crashes_at`) to the full event zoo.
    Plans are immutable-by-convention data: printable, serializable
    through :meth:`to_repro`, and comparable.

    Determinism: a plan is pure data — all event times and durations are
    **seconds of simulated time**, and :meth:`schedule` only registers
    events on the target's kernel, so the same plan on the same cluster
    seed replays the identical fault history (that is what makes the
    repro strings replayable).  Randomness exists only in the
    *sampling* of plans (:func:`sample_plan`), which draws from an
    explicit seeded generator, never from the plan itself.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.window()[0], e.kind, e.to_repro())))
        self._lifecycle = self._validate_lifecycle(self.events)

    @staticmethod
    def _validate_lifecycle(
        events: tuple[FaultEvent, ...],
    ) -> dict[int, tuple[tuple[float, str], ...]]:
        """Check per-pid crash/recover alternation; return the transitions.

        A pid may crash only while up and recover only while down, so a
        plan is a well-formed lifecycle script: crash-stop plans (no
        recoveries) degenerate to "each pid crashes at most once".
        """
        transitions: dict[int, list[tuple[float, str]]] = {}
        for event in events:
            if isinstance(event, CrashFault):
                steps = transitions.setdefault(event.pid, [])
                steps.append((event.time, "crash"))
                if event.recover_at is not None:
                    steps.append((event.recover_at, "recover"))
            elif isinstance(event, RecoverFault):
                transitions.setdefault(event.pid, []).append(
                    (event.time, "recover"))
        for pid, steps in transitions.items():
            steps.sort()  # "crash" < "recover" breaks same-time ties
            down = False
            for when, what in steps:
                if what == "crash" and down:
                    raise FaultPlanError(
                        f"pid {pid} crashes at t={when:g} while already "
                        f"down; schedule a recover first")
                if what == "recover" and not down:
                    raise FaultPlanError(
                        f"pid {pid} recovers at t={when:g} while up; "
                        f"recovery requires a preceding crash")
                down = what == "crash"
        return {pid: tuple(steps) for pid, steps in transitions.items()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def crashes_at(cls, *pairs: tuple[float, ...]) -> "FaultPlan":
        """A pure-crash plan from ``(time, pid)`` pairs.

        A 3-tuple ``(time, pid, recover_at)`` schedules the bounce sugar
        instead: crash at ``time``, recover at ``recover_at``.
        """
        return cls([CrashFault(spec[0], int(spec[1]),
                               recover_at=spec[2] if len(spec) > 2 else None)
                    for spec in pairs])

    @classmethod
    def from_repro(cls, text: str) -> "FaultPlan":
        """Parse a whitespace-separated sequence of event repro strings."""
        return cls([parse_event(token) for token in text.split()])

    # -- data accessors -------------------------------------------------

    @property
    def crashed_pids(self) -> set[int]:
        """Pids that crash at least once under this plan (recovered or not)."""
        return {event.pid for event in self.events
                if isinstance(event, CrashFault)}

    @property
    def crash_events(self) -> tuple[CrashFault, ...]:
        """The crash subset, in schedule order."""
        return tuple(event for event in self.events
                     if isinstance(event, CrashFault))

    def lifecycle(self) -> dict[int, tuple[tuple[float, str], ...]]:
        """Per-pid ``(time, "crash" | "recover")`` transitions, time-ordered."""
        return dict(self._lifecycle)

    def down_pids(self) -> set[int]:
        """Pids that end the plan down (crashed with no later recovery)."""
        return {pid for pid, steps in self._lifecycle.items()
                if steps[-1][1] == "crash"}

    def involved_pids(self) -> frozenset[int]:
        """Every pid any event touches directly or via a link pair."""
        pids: set[int] = set()
        for event in self.events:
            pids |= event.pids()
            for src, dst in event.link_pairs():
                pids.add(src)
                pids.add(dst)
        return frozenset(pids)

    def last_disturbance(self) -> float:
        """When the final fault window closes (0.0 for an empty plan)."""
        return max((event.window()[1] for event in self.events), default=0.0)

    # -- execution ------------------------------------------------------

    def schedule(self, target: object) -> None:
        """Validate against ``target`` and install every event.

        ``target`` is anything with the cluster surface: ``sim``,
        ``pids``, ``crash(pid)``, ``pause``/``resume`` and ``networks``.
        Raises :class:`FaultPlanError` for pids the target does not own
        or events already in the past at install time.
        """
        known = set(target.pids)
        now = target.sim.now
        for event in self.events:
            unknown = (event.pids() | self.involved_link_pids(event)) - known
            if unknown:
                pid = min(unknown)
                raise FaultPlanError(
                    f"{event.to_repro()} references pid {pid}, but the "
                    f"target owns pids 0..{len(known) - 1} (n={len(known)})")
            if event.window()[0] < now:
                raise FaultPlanError(
                    f"{event.to_repro()} starts in the past "
                    f"(now={now:g})")
        for event in self.events:
            event.schedule(target)

    @staticmethod
    def involved_link_pids(event: FaultEvent) -> set[int]:
        """Pids referenced through an event's link pairs."""
        return {pid for pair in event.link_pairs() for pid in pair}

    # -- dunder ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def to_repro(self) -> str:
        """One-line repro string; ``FaultPlan.from_repro`` inverts it."""
        return " ".join(event.to_repro() for event in self.events)

    def describe(self) -> str:
        """Human-oriented rendering (same as the repro string)."""
        return self.to_repro() if self.events else "(no faults)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.describe()})"


# ----------------------------------------------------------------------
# Model envelope and violation judging
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelEnvelope:
    """What the paper's model permits for one run.

    Attributes
    ----------
    n:
        System size (pids ``0..n-1``).
    source:
        The designated ◇source whose output links carry the timeliness
        assumption.  Crashing it (or disturbing it forever) exits the
        model.
    f:
        Fault bound: the maximum number of crashes.
    gst:
        Global stabilization time of the run's ◇timely links.
    horizon:
        When invariants are checked.
    heal_margin:
        Fraction of the horizon that must remain calm after the last
        non-crash disturbance heals, so "eventually" has room to happen
        (disturbances must end by ``horizon * (1 - heal_margin)``).
    failure_model:
        What the algorithm under test survives: ``"crash-recovery"``
        (the default) lets a crashed process come back, ``"crash-stop"``
        does not (``repro.core.registry.failure_model`` names it per
        algorithm).
    """

    n: int
    source: int
    f: int
    gst: float = 10.0
    horizon: float = 400.0
    heal_margin: float = 0.5
    failure_model: str = "crash-recovery"

    def __post_init__(self) -> None:
        if not 0 <= self.source < self.n:
            raise ValueError(f"source {self.source} outside 0..{self.n - 1}")
        if self.f < 0:
            raise ValueError("fault bound f must be >= 0")
        if not 0.0 < self.heal_margin < 1.0:
            raise ValueError("heal_margin must lie in (0, 1)")
        if self.failure_model not in ("crash-stop", "crash-recovery"):
            raise ValueError(f"unknown failure model {self.failure_model!r}")

    @property
    def heal_by(self) -> float:
        """Latest time a disturbance may end and stay in-model."""
        return self.horizon * (1.0 - self.heal_margin)

    def classes(self, plan: FaultPlan) -> "ProcessClasses":
        """Classify ``plan``'s processes (see :func:`process_classes`)."""
        return process_classes(plan, self)


@dataclass(frozen=True)
class ProcessClasses:
    """Crash-recovery process classes of one plan under one envelope.

    The crash-recovery literature (Aguilera et al.; Larrea's line of
    leader-election papers) splits processes into the classes below;
    *correct* in the extended model means always-up or eventually-up.

    Attributes
    ----------
    always_up:
        Never crash.
    eventually_up:
        Crash at least once but are up at the end, with their final
        recovery landing by ``envelope.heal_by`` — the crash-recovery
        analogue of a healed disturbance.
    eventually_down:
        Crash and never recover (the classic crash-stop departures).
    unstable:
        Still churning past ``heal_by``: recovered processes whose last
        lifecycle transition lands too late for "eventually" to have
        room before the horizon.  Any unstable process puts the run
        out of model.
    """

    always_up: tuple[int, ...]
    eventually_up: tuple[int, ...]
    eventually_down: tuple[int, ...]
    unstable: tuple[int, ...]

    @property
    def correct(self) -> tuple[int, ...]:
        """Processes a crash-recovery algorithm must serve: up at the end."""
        return tuple(sorted(set(self.always_up) | set(self.eventually_up)))


def process_classes(plan: FaultPlan,
                    envelope: ModelEnvelope) -> ProcessClasses:
    """Classify every pid of ``envelope`` by ``plan``'s lifecycle script."""
    lifecycle = plan.lifecycle()
    always_up, eventually_up, eventually_down, unstable = [], [], [], []
    for pid in range(envelope.n):
        steps = lifecycle.get(pid)
        if not steps:
            always_up.append(pid)
            continue
        last_time, last_what = steps[-1]
        if last_what == "crash":
            eventually_down.append(pid)
        elif last_time <= envelope.heal_by:
            eventually_up.append(pid)
        else:
            unstable.append(pid)
    return ProcessClasses(tuple(always_up), tuple(eventually_up),
                          tuple(eventually_down), tuple(unstable))


def model_violations(plan: FaultPlan, envelope: ModelEnvelope) -> list[str]:
    """Why ``plan`` exits the model of ``envelope`` (empty = in-model).

    The rules mirror the paper's assumptions, extended to crash-recovery:
    at most ``f`` *eventually-down* processes, the designated ◇source
    never permanently crashes (a bounce that heals by ``heal_by`` is a
    disturbance, not a departure), no process keeps churning past
    ``heal_by`` (unstable), and every temporary disturbance (partition,
    pause, degradation, flapping — including crash+recover downtime)
    heals by ``envelope.heal_by`` — a healed burst of loss or delay is
    legal on every link type, but one that persists to the horizon
    denies the "eventually" in eventually-timely and the fairness of
    fair-lossy links.  Duplication only adds copies and never violates
    the model.  Under a ``"crash-stop"`` envelope no process may
    recover at all.
    """
    issues: list[str] = []
    if envelope.failure_model == "crash-stop":
        recovered = sorted(pid for pid, steps in plan.lifecycle().items()
                           if any(what == "recover" for _, what in steps))
        if recovered:
            issues.append(
                f"recovers pids {recovered} under a crash-stop algorithm; "
                f"a recovered process may split leadership for good")
    classes = process_classes(plan, envelope)
    eventually_down = set(classes.eventually_down)
    if envelope.source in eventually_down:
        issues.append(
            f"crashes the designated ◇source {envelope.source} "
            f"without recovering")
    if envelope.source in classes.unstable:
        issues.append(
            f"the designated ◇source {envelope.source} is unstable "
            f"(still bouncing past t={envelope.heal_by:g})")
    if len(eventually_down) > envelope.f:
        issues.append(
            f"{len(eventually_down)} permanent crashes exceed the fault "
            f"bound f={envelope.f}")
    for pid in classes.unstable:
        if pid == envelope.source:
            continue
        issues.append(
            f"pid {pid} is unstable: its last crash/recover transition "
            f"lands past t={envelope.heal_by:g}")
    out_of_range = {pid for pid in plan.involved_pids()
                    if not 0 <= pid < envelope.n}
    if out_of_range:
        issues.append(f"references pids {sorted(out_of_range)} outside "
                      f"0..{envelope.n - 1}")
    for event in plan:
        if isinstance(event, (CrashFault, RecoverFault, DuplicateFault)):
            continue  # downtime windows are judged via the process classes
        start, end = event.window()
        if end > envelope.heal_by:
            issues.append(
                f"{event.to_repro()} persists past t={envelope.heal_by:g}; "
                f"disturbances must heal with calm left before the horizon")
    return issues


# ----------------------------------------------------------------------
# Randomized in-model plan sampling
# ----------------------------------------------------------------------

def _sample_pairs(rng: random.Random, n: int,
                  count: int) -> tuple[tuple[int, int], ...]:
    """``count`` distinct ordered links (all, if fewer), sorted."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return tuple(sorted(rng.sample(pairs, min(count, len(pairs)))))


def sample_plan(rng: random.Random, envelope: ModelEnvelope) -> FaultPlan:
    """Draw one random fault plan that is in-model for ``envelope``.

    The sampler composes every fault type the plan language offers while
    honoring :func:`model_violations` by construction: crashes spare the
    source and respect ``f``; pauses, partitions, degradations and flaps
    all heal by ``envelope.heal_by``; duplication is unconstrained.
    """
    n, source = envelope.n, envelope.source
    heal_by = envelope.heal_by
    others = [pid for pid in range(n) if pid != source]
    events: list[FaultEvent] = []

    def stamp(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, min(hi, heal_by)), 2)

    def sample_window(min_len: float, max_len: float) -> tuple[float, float]:
        start = stamp(1.0, heal_by * 0.7)
        length = rng.uniform(min_len, max_len)
        end = round(min(start + length, heal_by), 2)
        if end <= start:
            end = round(start + min_len, 2)
        return start, min(end, heal_by)

    # Crashes: up to f victims, never the source.
    crash_count = rng.randint(0, min(envelope.f, len(others)))
    victims = rng.sample(others, crash_count)
    for pid in victims:
        events.append(CrashFault(stamp(1.0, heal_by), pid))

    # Pauses: freeze up to two still-correct processes (possibly the
    # source — a finite stall just moves its effective GST).
    pausable = [pid for pid in range(n) if pid not in victims]
    for pid in rng.sample(pausable, min(len(pausable), rng.randint(0, 2))):
        start = stamp(1.0, heal_by * 0.6)
        duration = round(rng.uniform(2.0, 12.0), 2)
        if start + duration > heal_by:
            duration = round(heal_by - start, 2)
        if duration > 0:
            events.append(PauseFault(start, pid, duration))

    # One healing partition: a minority (never containing the source)
    # gets cut off, then the network heals.
    if n >= 4 and rng.random() < 0.4:
        minority_size = rng.randint(1, (n - 1) // 2)
        minority = set(rng.sample(others, minority_size))
        majority = tuple(pid for pid in range(n) if pid not in minority)
        start, end = sample_window(5.0, 30.0)
        events.append(PartitionFault(start, end,
                                     (majority, tuple(sorted(minority)))))

    # Loss/delay storms on a few links.
    for _ in range(rng.randint(0, 2)):
        start, end = sample_window(3.0, 25.0)
        events.append(DegradeFault(
            start, end, _sample_pairs(rng, n, rng.randint(1, 3)),
            loss=round(rng.uniform(0.2, 0.9), 2),
            delay=round(rng.uniform(0.0, 1.0), 2)))

    # Link flapping.
    if rng.random() < 0.3:
        start, end = sample_window(5.0, 20.0)
        events.append(FlapFault(
            start, end, _sample_pairs(rng, n, rng.randint(1, 2)),
            period=round(rng.uniform(1.0, 5.0), 2),
            up=round(rng.uniform(0.3, 0.7), 2)))

    # Duplication storms are always legal; let them run long.
    if rng.random() < 0.4:
        start = stamp(1.0, heal_by)
        end = round(min(start + rng.uniform(10.0, 60.0),
                        envelope.horizon), 2)
        events.append(DuplicateFault(
            start, end, _sample_pairs(rng, n, rng.randint(1, 3)),
            p=round(rng.uniform(0.1, 0.5), 2)))

    return FaultPlan(events)


def sample_recovery_plan(rng: random.Random,
                         envelope: ModelEnvelope) -> FaultPlan:
    """Draw one random crash-recovery plan that is in-model for ``envelope``.

    Unlike :func:`sample_plan` (which is pure crash-stop and keeps the
    historical campaign streams byte-stable), every plan from this
    sampler bounces at least one process — crash, downtime, recovery —
    with all recoveries landing by ``envelope.heal_by`` so the bounced
    processes are *eventually up*.  The source itself may bounce (legal
    in the extended model), a bounded set of other processes may depart
    permanently (≤ f), and partitions/degradations ride along to stress
    the recovery paths under message loss.  Unsynced-write loss needs no
    dedicated event: any crash landing between a storage ``put`` and its
    sync commit destroys the buffered batch.
    """
    n, source = envelope.n, envelope.source
    heal_by = envelope.heal_by
    others = [pid for pid in range(n) if pid != source]
    events: list[FaultEvent] = []

    # Bouncers: crash + recover, all healed by heal_by.
    bouncers = rng.sample(others, rng.randint(1, min(3, len(others))))
    if rng.random() < 0.3:
        bouncers.append(source)
    for pid in bouncers:
        crash_at = round(rng.uniform(1.0, heal_by * 0.7), 2)
        downtime = round(rng.uniform(2.0, 25.0), 2)
        recover_at = round(min(crash_at + downtime, heal_by), 2)
        if recover_at <= crash_at:
            recover_at = round(crash_at + 2.0, 2)
        # Exercise both spellings of the same downtime: the sugar token
        # and the standalone recover event.
        if rng.random() < 0.5:
            events.append(CrashFault(crash_at, pid, recover_at=recover_at))
        else:
            events.append(CrashFault(crash_at, pid))
            events.append(RecoverFault(recover_at, pid))

    # Permanent departures among the rest, within the fault bound.
    rest = [pid for pid in others if pid not in bouncers]
    for pid in rng.sample(rest, rng.randint(0, min(envelope.f, len(rest)))):
        events.append(CrashFault(round(rng.uniform(1.0, heal_by), 2), pid))

    # One healing partition: a minority without the source gets cut off.
    if n >= 4 and rng.random() < 0.5:
        minority = set(rng.sample(others, rng.randint(1, (n - 1) // 2)))
        majority = tuple(pid for pid in range(n) if pid not in minority)
        start = round(rng.uniform(1.0, heal_by * 0.6), 2)
        end = round(min(start + rng.uniform(5.0, 25.0), heal_by), 2)
        if end > start:
            events.append(PartitionFault(start, end,
                                         (majority, tuple(sorted(minority)))))

    # A loss/delay storm on a few links.
    if rng.random() < 0.5:
        pairs = _sample_pairs(rng, n, 3)
        start = round(rng.uniform(1.0, heal_by * 0.6), 2)
        end = round(min(start + rng.uniform(3.0, 20.0), heal_by), 2)
        if end > start:
            events.append(DegradeFault(
                start, end, pairs,
                loss=round(rng.uniform(0.2, 0.8), 2),
                delay=round(rng.uniform(0.0, 0.8), 2)))

    return FaultPlan(events)


def sample_degraded_plan(rng: random.Random,
                         envelope: ModelEnvelope) -> FaultPlan:
    """Draw one random hostile-link plan that is in-model for ``envelope``.

    Where :func:`sample_plan` spreads its budget across the whole fault
    zoo, this sampler concentrates on *link hostility* — the regime the
    adaptive degradation layer (``OmegaConfig.adaptive_qos``) is built
    for.  Every plan carries at least one sustained loss/delay storm,
    usually flapping, and often duplication; crashes are rare and spare
    the source.  All disturbances heal by ``envelope.heal_by`` so the
    plans stay in-model by construction: a post-storm calm long enough
    for "eventually" remains before the horizon.
    """
    n, source = envelope.n, envelope.source
    heal_by = envelope.heal_by
    others = [pid for pid in range(n) if pid != source]
    events: list[FaultEvent] = []

    def sample_window(min_len: float, max_len: float) -> tuple[float, float]:
        start = round(rng.uniform(1.0, heal_by * 0.5), 2)
        end = round(min(start + rng.uniform(min_len, max_len), heal_by), 2)
        if end <= start:
            end = round(min(start + min_len, heal_by), 2)
        return start, end


    # The signature storm: heavy, sustained loss (and some delay) on a
    # wide slice of the links.  Always present.
    for _ in range(rng.randint(1, 3)):
        start, end = sample_window(10.0, heal_by * 0.6)
        events.append(DegradeFault(
            start, end,
            _sample_pairs(rng, n, rng.randint(2, max(2, n * (n - 1) // 3))),
            loss=round(rng.uniform(0.4, 0.9), 2),
            delay=round(rng.uniform(0.1, 1.5), 2)))

    # Flapping links: short up/down cycles the estimator must ride out.
    if rng.random() < 0.7:
        start, end = sample_window(8.0, 30.0)
        events.append(FlapFault(
            start, end, _sample_pairs(rng, n, rng.randint(1, 3)),
            period=round(rng.uniform(0.5, 4.0), 2),
            up=round(rng.uniform(0.2, 0.6), 2)))

    # Duplication storms: always legal, so let them overlap the storms.
    if rng.random() < 0.5:
        start, end = sample_window(10.0, 40.0)
        events.append(DuplicateFault(
            start, end, _sample_pairs(rng, n, rng.randint(1, 3)),
            p=round(rng.uniform(0.2, 0.6), 2)))

    # A rare crash, never the source, within the fault bound.
    if envelope.f > 0 and others and rng.random() < 0.25:
        events.append(CrashFault(round(rng.uniform(1.0, heal_by), 2),
                                 rng.choice(others)))

    return FaultPlan(events)

