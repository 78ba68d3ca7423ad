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
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.obs.observer import Observer

__all__ = ["MetricsCollector", "WindowStats"]


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
