"""Deterministic sharing guard: a census holds per pair only what differs
per pair.

Counts only, no wall clock.  On the benchmark's ``--quick`` census shape
(n=48, 120 simulated seconds, timeout 8) the network must point its n²
pairs at one policy object per link *law*, ``build()`` must allocate in
proportion to n rather than n², the fair-lossy streak table must hold
only streaks in progress, and a steady-state heartbeat fan-out must be
planned by one ``plan_many`` call — not n−1 ``plan`` calls.  The
``MetricsCollector`` that certifies the n−1 busy links must not store
the n² links of the start-up round either.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.core.config import OmegaConfig
from repro.harness.scenarios import OmegaScenario
from repro.sim.cluster import Cluster
from repro.sim.links import EventuallyTimelyLink, FairLossyLink
from repro.sim.network import Network
from repro.sim.topology import LinkTimings

N, HORIZON, TIMEOUT, TAIL = 48, 120.0, 8.0, 20.0


def _census(n: int = N) -> Cluster:
    return OmegaScenario(
        algorithm="comm-efficient", n=n, system="source", source=0, seed=7,
        horizon=HORIZON, timings=LinkTimings(gst=5.0),
        config=OmegaConfig(initial_timeout=TIMEOUT), link_rng="src").build()


def _tracked_objects_built(n: int) -> int:
    gc.collect()
    before = len(gc.get_objects())
    cluster = _census(n)    # noqa: F841 - alive while we count
    gc.collect()    # also untracks the int-only (src, dst) key tuples
    return len(gc.get_objects()) - before


def test_build_allocates_per_process_not_per_pair() -> None:
    # Doubling n quadruples the pairs; what the collector must walk may
    # only double (one shared object per law, no per-pair state).
    assert _tracked_objects_built(2 * 24) < 3 * _tracked_objects_built(24)


def test_build_sets_links_per_process_not_per_pair(
        monkeypatch: pytest.MonkeyPatch) -> None:
    # The map is one law plus the source's n−1 out-links: installing it
    # writes the overrides, never the n² pairs the base law covers.
    calls = [0]
    set_link = Network.set_link

    def counting(self, *args) -> None:  # noqa: ANN001
        calls[0] += 1
        set_link(self, *args)

    monkeypatch.setattr(Network, "set_link", counting)

    def set_links_built(n: int) -> int:
        calls[0] = 0
        _census(n)
        return calls[0]

    assert set_links_built(2 * 24) < 3 * set_links_built(24)


def _collector_after_a_run(n: int) -> tuple[int, int]:
    """Deep ``getsizeof`` of what the census collector holds after a
    run — not counting the network's own fan-out tuples, which it may
    share — and how many ``(int, int)`` link tuples it reaches."""
    cluster = _census(n)
    cluster.start_all()
    cluster.run_until(HORIZON)
    seen = {id(fanout.dsts) for fanout in cluster.network._fanouts.values()}
    size = links = 0
    stack: list[object] = [cluster.metrics]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            links += (isinstance(obj, tuple) and len(obj) == 2
                      and all(type(item) is int for item in obj))
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(obj.__dict__)
    return size, links


def test_metrics_collector_grows_with_senders_not_pairs() -> None:
    # Doubling n quadruples the start-up round's links; what the
    # collector keeps of a fan-out is the network's destination tuple.
    size, links = _collector_after_a_run(N)
    doubled, doubled_links = _collector_after_a_run(2 * N)
    assert doubled < 2 * size
    assert links == doubled_links == 0


def test_census_run_shares_laws_and_plans_fan_outs_once(
        monkeypatch: pytest.MonkeyPatch) -> None:
    tail = {"broadcasts": 0, "plan_many": 0, "plan": 0}

    def counting(owner: type, name: str, key: str) -> None:
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):  # noqa: ANN001, ANN202
            if cluster.sim.now >= HORIZON - TAIL:
                tail[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Network, "broadcast", "broadcasts")
    counting(EventuallyTimelyLink, "plan_many", "plan_many")
    counting(EventuallyTimelyLink, "plan", "plan")
    cluster = _census()
    cluster.start_all()
    cluster.run_until(HORIZON)

    network = cluster.network
    policies = {id(policy): policy
                for policy in (network.link(src, dst)
                               for src in range(N) for dst in range(N)
                               if src != dst)}
    assert len(policies) <= 2
    (fair,) = [policy for policy in policies.values()
               if isinstance(policy, FairLossyLink)]
    streaks = fair._drops_in_a_row
    assert all(streaks.values())    # a delivery deletes, never stores 0
    assert len(streaks) <= cluster.metrics.dropped_by_reason["link"]
    # Steady state: only the leader (the ◇timely source) sends, and each
    # of its heartbeats is one plan_many call over all n−1 out-links.
    assert tail["broadcasts"] >= TAIL / 2
    assert tail["plan_many"] == tail["broadcasts"]
    assert tail["plan"] == 0
