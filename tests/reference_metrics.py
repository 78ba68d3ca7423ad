"""The differential-testing oracle: a per-pair metrics collector.

:class:`ReferenceMetricsCollector` is the message-flow collector the
repository used to ship — it stores one ``(src, dst)`` tuple per link
in ``sent_by_link``, in every window's link set, and in a per-fan-out
link cache.  It is the simplest correct implementation of the
collector's query contract, and ``tests/test_metrics.py`` and
``tests/test_network.py`` feed it and
:class:`repro.sim.metrics.MetricsCollector` the same events and assert
identical aggregates and query answers (:func:`collector_answers`).

It lives under ``tests/`` because nothing but those tests uses it, and
it shares no accounting code with the production collector: an oracle
that expanded fan-outs the same way would inherit that code's bugs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Iterable

from repro.obs.observer import Observer
from repro.sim.metrics import WindowStats

__all__ = ["ReferenceMetricsCollector", "collector_answers"]


def collector_answers(collector: Any, ranges: Iterable[tuple[float, float]],
                      until: float) -> dict[str, Any]:
    """Every aggregate of ``collector`` and its answer to every query on
    ``ranges`` (a ``ValueError`` is an answer too) and ``timeline(until)``:
    two collectors fed the same events must return equal dicts."""

    def ask(query, start: float, end: float) -> Any:  # noqa: ANN001
        try:
            return query(start, end)
        except ValueError as exc:
            return ("ValueError", str(exc))

    return {
        "total_sent": collector.total_sent,
        "sent_by_sender": dict(collector.sent_by_sender),
        "sent_by_kind": dict(collector.sent_by_kind),
        "sent_by_link": dict(collector.sent_by_link),
        "delivered_by_kind": dict(collector.delivered_by_kind),
        "dropped_by_reason": dict(collector.dropped_by_reason),
        "queries": [(ask(collector.senders_between, start, end),
                     ask(collector.links_between, start, end),
                     ask(collector.messages_between, start, end))
                    for start, end in ranges],
        "timeline": [(w.start, w.senders, w.links, w.messages)
                     for w in collector.timeline(until)],
    }


class ReferenceMetricsCollector(Observer):
    """Message-flow aggregates, windowed and total, stored per link.

    Retained as the differential-testing oracle for
    :class:`~repro.sim.metrics.MetricsCollector`, whose public surface
    it matches.  Do not use it outside tests — it holds n² link tuples
    by construction.
    """

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.sent_by_sender: Counter[int] = Counter()
        self.sent_by_kind: Counter[str] = Counter()
        self.sent_by_link: Counter[tuple[int, int]] = Counter()
        self.delivered_by_kind: Counter[str] = Counter()
        self.dropped_by_reason: Counter[str] = Counter()
        self._window_senders: dict[int, set[int]] = defaultdict(set)
        self._window_links: dict[int, set[tuple[int, int]]] = defaultdict(set)
        self._window_messages: Counter[int] = Counter()
        # A fan-out names the same links every time: (src, dsts) -> links.
        self._batch_links: dict[tuple, tuple[tuple[int, int], ...]] = {}

    # ------------------------------------------------------------------
    # Feed (called by the network's observer hub)
    # ------------------------------------------------------------------

    def on_send(self, time: float, src: int, dst: int, kind: str) -> None:
        """Account one message handed to the network."""
        self.sent_by_sender[src] += 1
        self.sent_by_kind[kind] += 1
        self.sent_by_link[(src, dst)] += 1
        index = int(time // self.window)
        self._window_senders[index].add(src)
        self._window_links[index].add((src, dst))
        self._window_messages[index] += 1

    def on_send_batch(self, time: float, src: int,
                      dsts: tuple[int, ...], kind: str) -> None:
        """Account a broadcast fan-out in one call (one message per dst).

        Batch-aware form of :meth:`on_send`: the aggregates end up
        identical, but the per-sender/per-kind/per-window counters are
        bumped once by ``len(dsts)`` instead of ``len(dsts)`` times, and
        the per-link ones are fed the fan-out's cached link tuple in one
        C-level ``update`` each.
        """
        count = len(dsts)
        self.sent_by_sender[src] += count
        self.sent_by_kind[kind] += count
        index = int(time // self.window)
        self._window_senders[index].add(src)
        self._window_messages[index] += count
        links = self._batch_links.get((src, dsts))
        if links is None:
            links = self._batch_links[(src, dsts)] = tuple(
                (src, dst) for dst in dsts)
        self.sent_by_link.update(links)
        self._window_links[index].update(links)

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

    def senders_between(self, start: float, end: float) -> set[int]:
        """Processes that sent in any window overlapping ``[start, end]``."""
        out: set[int] = set()
        for index in self._window_range(start, end):
            out |= self._window_senders.get(index, set())
        return out

    def links_between(self, start: float, end: float) -> set[tuple[int, int]]:
        """Ordered pairs that carried traffic in windows overlapping ``[start, end]``."""
        out: set[tuple[int, int]] = set()
        for index in self._window_range(start, end):
            out |= self._window_links.get(index, set())
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
            out.append(WindowStats(
                start=index * self.window,
                senders=frozenset(self._window_senders.get(index, set())),
                links=frozenset(self._window_links.get(index, set())),
                messages=self._window_messages.get(index, 0),
            ))
        return out

    def _window_range(self, start: float, end: float) -> range:
        if end < start:
            raise ValueError(f"bad window query [{start}, {end})")
        return range(int(start // self.window), int(end // self.window) + 1)
