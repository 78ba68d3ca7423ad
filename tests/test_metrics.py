"""Unit tests for message-flow metrics, and a differential test against
the per-link collector of ``tests/reference_metrics.py``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_metrics import ReferenceMetricsCollector, collector_answers
from repro.sim.metrics import MetricsCollector


def feed(collector: MetricsCollector,
         events: list[tuple[float, int, int, str]]) -> None:
    for time, src, dst, kind in events:
        collector.on_send(time, src, dst, kind)


class TestTotals:
    def test_totals_by_sender_kind_link(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.1, 0, 1, "A"), (0.2, 0, 2, "A"), (0.3, 1, 0, "B")])
        assert m.total_sent == 3
        assert m.sent_by_sender[0] == 2
        assert m.sent_by_kind["A"] == 2
        assert m.sent_by_link[(0, 1)] == 1

    def test_deliver_and_drop_counters(self) -> None:
        m = MetricsCollector()
        m.on_deliver(0.5, 0, 1, "A")
        m.on_drop(0.6, 0, 2, "A", "link")
        m.on_drop(0.7, 0, 2, "A", "dst_crashed")
        assert m.delivered_by_kind["A"] == 1
        assert m.dropped_by_reason["link"] == 1
        assert m.dropped_by_reason["dst_crashed"] == 1

    def test_window_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            MetricsCollector(window=0.0)


class TestWindows:
    def test_senders_between(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.5, 0, 1, "A"), (1.5, 1, 0, "A"), (5.5, 2, 0, "A")])
        assert m.senders_between(0.0, 2.0) == {0, 1}
        assert m.senders_between(5.0, 6.0) == {2}
        assert m.senders_between(3.0, 4.0) == set()

    def test_links_between(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.5, 0, 1, "A"), (0.6, 0, 2, "A"), (9.5, 1, 0, "A")])
        assert m.links_between(0.0, 1.0) == {(0, 1), (0, 2)}
        assert m.links_between(9.0, 10.0) == {(1, 0)}

    def test_messages_between(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.5, 0, 1, "A"), (0.7, 0, 1, "A"), (2.5, 0, 1, "A")])
        assert m.messages_between(0.0, 1.0) == 2
        assert m.messages_between(0.0, 3.0) == 3

    def test_bad_window_query_rejected(self) -> None:
        m = MetricsCollector()
        with pytest.raises(ValueError):
            m.senders_between(5.0, 1.0)

    def test_sum_of_windows_equals_total(self) -> None:
        m = MetricsCollector(window=2.0)
        events = [(float(i) * 0.3, i % 3, (i + 1) % 3, "A") for i in range(50)]
        feed(m, events)
        timeline = m.timeline(until=20.0)
        assert sum(w.messages for w in timeline) == m.total_sent


class TestTimeline:
    def test_timeline_window_starts(self) -> None:
        m = MetricsCollector(window=2.0)
        feed(m, [(0.5, 0, 1, "A"), (3.5, 1, 0, "A")])
        timeline = m.timeline(until=6.0)
        assert [w.start for w in timeline] == [0.0, 2.0, 4.0]
        assert timeline[0].senders == frozenset({0})
        assert timeline[1].senders == frozenset({1})
        assert timeline[2].senders == frozenset()

    def test_timeline_links_and_counts(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.1, 0, 1, "A"), (0.2, 0, 1, "A")])
        window = m.timeline(until=1.0)[0]
        assert window.links == frozenset({(0, 1)})
        assert window.messages == 2


class TestFanOuts:
    def test_fan_out_expands_to_links_on_query(self) -> None:
        m = MetricsCollector(window=1.0)
        dsts = (1, 2, 3)
        m.on_send_batch(0.5, 0, dsts, "A")
        m.on_send_batch(0.7, 0, dsts, "A")
        m.on_send(0.8, 0, 2, "B")
        assert m.sent_by_link == {(0, 1): 2, (0, 2): 3, (0, 3): 2}
        assert m.links_between(0.0, 0.9) == {(0, 1), (0, 2), (0, 3)}
        assert m.messages_between(0.0, 0.9) == 7
        assert m.timeline(until=2.0)[1].links == frozenset()

    def test_sent_by_link_is_a_fresh_view(self) -> None:
        m = MetricsCollector()
        m.on_send(0.1, 0, 1, "A")
        view = m.sent_by_link
        view[(0, 1)] += 5
        m.on_send(0.2, 0, 1, "A")
        assert m.sent_by_link == {(0, 1): 2}
        assert m.sent_by_link is not m.sent_by_link


#: Fan-outs a sender may hand over, drawn by identity so they repeat: a
#: full one, overlapping subsets, and the empty one of a lone process.
FAN_OUTS = ((1, 2, 3, 4), (0, 2, 3, 4), (2, 3), (0, 3, 4), ())
PIDS = st.sampled_from(range(5))
KINDS = st.sampled_from(["A", "B"])


@st.composite
def feeds(draw: st.DrawFn) -> tuple:
    """A window, a stream of observer calls, query ranges and a horizon."""
    window = draw(st.sampled_from([1.0, 0.5, 2.0, 0.3]))
    times = st.one_of(
        st.integers(0, 12).map(lambda k: k * window),    # on a boundary
        st.floats(0.0, 12 * window, allow_nan=False))
    fan_outs = st.one_of(st.sampled_from(FAN_OUTS),
                         st.lists(PIDS, unique=True).map(tuple))
    calls = st.one_of(
        st.tuples(st.just("on_send"), times, PIDS, PIDS, KINDS),
        st.tuples(st.just("on_send_batch"), times, PIDS, fan_outs, KINDS),
        st.tuples(st.just("on_deliver"), times, PIDS, PIDS, KINDS),
        st.tuples(st.just("on_drop"), times, PIDS, PIDS, KINDS,
                  st.sampled_from(["link", "partition"])))
    return (window, draw(st.lists(calls, max_size=40)),
            draw(st.lists(st.tuples(times, times), min_size=1, max_size=6)),
            draw(times))


class TestAgainstPerLinkReference:
    """The collector files a send under its target (a pid or a fan-out
    tuple) and expands links on query; the per-link collector it
    replaced must not be able to tell."""

    @staticmethod
    def _answers(window: float, calls: list[tuple], ranges: list[tuple],
                 until: float) -> tuple[dict, dict]:
        collectors = MetricsCollector(window), ReferenceMetricsCollector(window)
        for name, *args in calls:
            for collector in collectors:
                getattr(collector, name)(*args)
        actual, expected = (collector_answers(collector, ranges, until)
                            for collector in collectors)
        return actual, expected

    @settings(max_examples=200)
    @given(feeds())
    def test_same_aggregates_and_answers(self, feed: tuple) -> None:
        window, calls, ranges, until = feed
        ranges = ranges + [(0.0, 13 * window), (2 * window, window)]
        actual, expected = self._answers(window, calls, ranges, until)
        assert actual == expected

    def test_unicast_inside_a_fan_out_window_on_a_boundary(self) -> None:
        calls = [("on_send_batch", 0.5, 0, FAN_OUTS[0], "A"),
                 ("on_send_batch", 0.5, 0, FAN_OUTS[0], "A"),
                 ("on_send", 0.6, 0, 2, "A"),        # covered by the fan-out
                 ("on_send", 1.5, 0, 2, "A"),        # exactly on a boundary
                 ("on_send_batch", 1.5, 1, (), "A"),
                 ("on_send_batch", 3.0, 1, FAN_OUTS[1], "A")]
        ranges = [(0.0, 0.75), (0.75, 0.75), (1.5, 1.5), (0.0, 3.0), (3.0, 0.0)]
        actual, expected = self._answers(0.75, calls, ranges, 4.0)
        assert actual == expected
        assert actual["sent_by_link"][(0, 2)] == 4
        assert actual["queries"][2][0] == {0, 1}     # the empty fan-out sent
        assert actual["queries"][4][0][0] == "ValueError"
