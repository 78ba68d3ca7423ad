"""Aggregate message accounting.

The paper's headline property — *communication efficiency* — is a
statement about who still sends messages in the limit, and over how many
links.  :class:`MetricsCollector` keeps exactly the aggregates needed to
decide that empirically:

* totals per sender, per link (ordered pair) and per message kind;
* per-window activity: which processes sent, which links carried
  traffic, and how many messages, in each window of ``window`` time
  units.

It is an :class:`~repro.obs.Observer`: the network's hub feeds it on
every send/delivery/drop, and it is cheap enough to stay attached in
benchmarks (unlike :class:`~repro.sim.trace.TraceLog`).

Nothing is stored per link.  A send is filed under its *target*: the
``dst`` pid of :meth:`~MetricsCollector.on_send`, or the very ``dsts``
tuple a fan-out hands to :meth:`~MetricsCollector.on_send_batch` (the
network's cached per-sender tuple, so filing it costs one reference).
Per sender the collector counts sends per target, and per window it
keeps each sender's set of targets; the link-level answers
(``sent_by_link``, ``links_between``, ``timeline``) expand targets into
``(src, dst)`` pairs only when asked, and only for the windows asked
for.  A census that keeps n−1 links busy therefore holds one target per
window, not n−1 link tuples, and the start-up round's all-to-all
fan-outs hold n tuples the network already owns instead of n² pairs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from typing import Hashable, Iterator

from repro.obs.observer import Observer

__all__ = ["MetricsCollector", "WindowStats"]


def _links(window: dict[int, set[Hashable]]) -> Iterator[tuple[int, int]]:
    """The ``(src, dst)`` pairs one window's targets name."""
    for src, targets in window.items():
        for target in targets:
            if isinstance(target, tuple):
                for dst in target:
                    yield (src, dst)
            else:
                yield (src, target)


class WindowStats:
    """Activity in one time window; returned by :meth:`MetricsCollector.timeline`."""

    __slots__ = ("start", "senders", "links", "messages")

    def __init__(self, start: float, senders: frozenset[int],
                 links: frozenset[tuple[int, int]], messages: int) -> None:
        self.start = start
        self.senders = senders
        self.links = links
        self.messages = messages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WindowStats(start={self.start}, senders={sorted(self.senders)}, "
                f"links={len(self.links)}, messages={self.messages})")


class MetricsCollector(Observer):
    """Message-flow aggregates, windowed and total.

    An observer (attach it to a network's hub, or let ``Network(sim)``
    attach a default one); it only overrides the send/deliver/drop
    hooks, so it adds nothing to the cost of the other event kinds.

    Parameters
    ----------
    window:
        Width of the aggregation windows.  Pick a few multiples of the
        algorithms' heartbeat period so that "active in the window" is a
        meaningful notion of "still sending".
    """

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.sent_by_sender: Counter[int] = Counter()
        self.sent_by_kind: Counter[str] = Counter()
        self.delivered_by_kind: Counter[str] = Counter()
        self.dropped_by_reason: Counter[str] = Counter()
        # Targets (a dst pid, or a fan-out's dsts tuple): sends per
        # target per sender, and each window's {src: targets}.
        self._sent_to: dict[int, Counter[Hashable]] = defaultdict(Counter)
        self._window_targets: dict[int, dict[int, set[Hashable]]] = \
            defaultdict(partial(defaultdict, set))
        self._window_messages: Counter[int] = Counter()

    # ------------------------------------------------------------------
    # Feed (called by the network's observer hub)
    # ------------------------------------------------------------------

    def on_send(self, time: float, src: int, dst: int, kind: str) -> None:
        """Account one message handed to the network."""
        self.sent_by_sender[src] += 1
        self.sent_by_kind[kind] += 1
        self._sent_to[src][dst] += 1
        index = int(time // self.window)
        self._window_targets[index][src].add(dst)
        self._window_messages[index] += 1

    def on_send_batch(self, time: float, src: int,
                      dsts: tuple[int, ...], kind: str) -> None:
        """Account a broadcast fan-out in one call (one message per dst).

        Batch-aware form of :meth:`on_send`: the aggregates end up
        identical, but the per-sender/per-kind/per-window counters are
        bumped once by ``len(dsts)`` instead of ``len(dsts)`` times, and
        the fan-out is filed whole: ``dsts`` itself (the network's
        cached tuple) is the target, counted once per call and expanded
        into its ``len(dsts)`` links only by the queries.
        """
        count = len(dsts)
        self.sent_by_sender[src] += count
        self.sent_by_kind[kind] += count
        self._sent_to[src][dsts] += 1
        index = int(time // self.window)
        self._window_targets[index][src].add(dsts)
        self._window_messages[index] += count

    def on_deliver(self, time: float, src: int, dst: int, kind: str,
                   sent_at: float = 0.0) -> None:
        """Account one delivered message (``sent_at`` is unused here)."""
        self.delivered_by_kind[kind] += 1

    def on_drop(self, time: float, src: int, dst: int, kind: str, reason: str) -> None:
        """Account one dropped message."""
        self.dropped_by_reason[reason] += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def total_sent(self) -> int:
        """Total messages handed to the network."""
        return sum(self.sent_by_sender.values())

    @property
    def sent_by_link(self) -> Counter[tuple[int, int]]:
        """Messages per ordered pair ``(src, dst)``.

        A computed view: each read builds a fresh :class:`Counter` from
        the per-target counts, so it is a snapshot, not a live attribute
        (writing to it changes nothing).
        """
        out: Counter[tuple[int, int]] = Counter()
        for src, targets in self._sent_to.items():
            for target, count in targets.items():
                for dst in target if isinstance(target, tuple) else (target,):
                    out[(src, dst)] += count
        return out

    def senders_between(self, start: float, end: float) -> set[int]:
        """Processes that sent in any window overlapping ``[start, end]``."""
        out: set[int] = set()
        for window in self._windows(start, end):
            out.update(window)
        return out

    def links_between(self, start: float, end: float) -> set[tuple[int, int]]:
        """Ordered pairs that carried traffic in windows overlapping ``[start, end]``."""
        out: set[tuple[int, int]] = set()
        for window in self._windows(start, end):
            out.update(_links(window))
        return out

    def messages_between(self, start: float, end: float) -> int:
        """Messages sent in windows overlapping ``[start, end]``."""
        return sum(self._window_messages.get(i, 0)
                   for i in self._window_range(start, end))

    def timeline(self, until: float) -> list[WindowStats]:
        """Per-window stats from time 0 up to ``until`` (exclusive)."""
        last = int(until // self.window)
        out = []
        for index in range(last):
            window = self._window_targets.get(index, {})
            out.append(WindowStats(
                start=index * self.window,
                senders=frozenset(window),
                links=frozenset(_links(window)),
                messages=self._window_messages.get(index, 0),
            ))
        return out

    def _windows(self, start: float,
                 end: float) -> list[dict[int, set[Hashable]]]:
        """The ``{src: targets}`` of each non-empty window overlapping ``[start, end]``."""
        targets = self._window_targets
        return [targets[index] for index in self._window_range(start, end)
                if index in targets]

    def _window_range(self, start: float, end: float) -> range:
        if end < start:
            raise ValueError(f"bad window query [{start}, {end})")
        return range(int(start // self.window), int(end // self.window) + 1)
