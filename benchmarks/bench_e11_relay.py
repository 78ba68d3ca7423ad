"""E11 / Table 7 — extension: Omega under eventually timely *paths*.

The relaxation this research line describes: with message relaying, the
source only needs an eventually timely path (here a two-hub tree) to
every process, not direct links.  We compare the direct and relayed
communication-efficient algorithms on the tree topology (adversarial
growing-outage fair-lossy links elsewhere):

* direct: no process is a direct source — leadership flaps forever;
* relayed: stabilizes on the path source; eventually only the leader
  *originates* messages (relays forward, so raw sender counts stay n —
  efficiency holds in origination, exactly as the literature notes).
"""

from __future__ import annotations

from _common import emit

from repro.core import (
    CommEfficientOmega,
    OmegaConfig,
    analyze_omega_run,
    make_factory,
    make_relayed,
    origins_between,
)
from repro.harness import render_table
from repro.sim import Cluster, LinkTimings
from repro.sim.topology import relay_tree_links

N = 6
SOURCE = 2
HORIZON = 400.0
ADVERSARIAL = LinkTimings(gst=4.0, fair_outage_period=15.0,
                          fair_outage_growth=4.0)


def run_direct() -> list[object]:
    cluster = Cluster.build(
        N, make_factory("comm-efficient", OmegaConfig()),
        links=relay_tree_links(N, SOURCE, ADVERSARIAL), seed=1)
    cluster.start_all()
    cluster.run_until(HORIZON)
    report = analyze_omega_run(cluster)
    late_flaps = sum(1 for pid in cluster.up_pids()
                     for time, _ in cluster.process(pid).history
                     if time > HORIZON * 0.6)
    stable = (report.omega_holds and report.stabilization_time is not None
              and report.stabilization_time <= HORIZON * 0.6)
    return ["direct (no relaying)", stable, report.final_leader
            if stable else None, late_flaps, "-"]


def run_relayed() -> list[object]:
    cls = make_relayed(CommEfficientOmega)
    cluster = Cluster.build(
        N, lambda pid, sim, net: cls(pid, sim, net, OmegaConfig()),
        links=relay_tree_links(N, SOURCE, ADVERSARIAL), seed=1)
    cluster.start_all()
    cluster.run_until(HORIZON)
    report = analyze_omega_run(cluster)
    late_flaps = sum(1 for pid in cluster.up_pids()
                     for time, _ in cluster.process(pid).history
                     if time > HORIZON * 0.6)
    origins = sorted(origins_between(cluster, HORIZON - 40.0, HORIZON))
    stable = (report.omega_holds and report.stabilization_time is not None
              and report.stabilization_time <= HORIZON * 0.6)
    return ["relayed (timely paths)", stable, report.final_leader,
            late_flaps, ",".join(map(str, origins))]


def run_both() -> list[list[object]]:
    return [run_direct(), run_relayed()]


def test_e11_relay() -> None:
    rows = run_both()
    table = render_table(
        ["variant", "stable", "leader", "flaps in last 40%",
         "originators (final 40s)"],
        rows,
        title=(f"Table 7 (E11): two-hub tree topology, n={N}, "
               f"path source={SOURCE} — relaying turns timely paths "
               "into a working source"))
    emit("e11_relay", table)
    direct, relayed = rows
    assert not direct[1], "direct algorithm must not stabilize on the tree"
    assert relayed[1] and relayed[2] == SOURCE
    assert relayed[4] == str(SOURCE), "only the leader originates"
