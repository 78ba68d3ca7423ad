"""E12 / Table 8 — extension: behaviour across network partitions.

Partitions are correlated loss bursts (legal for lossy links; a healed
partition restores the model's assumptions).  Two sub-experiments:

* **Omega**: isolate a minority during [40, 100); each side elects its
  own leader (unavoidable — Omega's property is eventual), and after the
  heal everyone re-converges on one correct leader.
* **Replicated log**: fragment all nodes into minorities during
  [10, 60); no quorum exists, so commits stall — and *safety holds*,
  with full catch-up after the heal.
"""

from __future__ import annotations

from _common import emit

from repro.consensus import ConsensusSystem, WorkloadSpec, check_log
from repro.core import OmegaConfig, analyze_omega_run, make_factory
from repro.harness import render_table
from repro.sim import Cluster, LinkTimings
from repro.sim.topology import all_eventually_timely_links, multi_source_links

TIMINGS = LinkTimings(gst=2.0)


def omega_partition_case() -> list[object]:
    cluster = Cluster.build(
        5, make_factory("all-timely", OmegaConfig()),
        links=all_eventually_timely_links(5, TIMINGS), seed=2)
    cluster.network.add_partition(40.0, 100.0, [{0, 1, 2}, {3, 4}])
    cluster.start_all()
    cluster.run_until(95.0)
    during = {pid: cluster.process(pid).leader() for pid in cluster.pids}
    split_leaders = len({during[0], during[3]})
    cluster.run_until(250.0)
    report = analyze_omega_run(cluster)
    return ["omega: minority isolated 40-100s", split_leaders,
            report.omega_holds, report.final_leader,
            report.stabilization_time]


def log_partition_case() -> list[object]:
    system = ConsensusSystem.build_replicated_log(
        5, lambda: multi_source_links(5, (0, 1), TIMINGS), seed=3)
    workload = WorkloadSpec(count=25, period=0.5, start=4.0).build(system)
    for network in (system.agreement_network, system.fd_network):
        network.add_partition(10.0, 60.0, [{0, 1}, {2, 3}, {4}])
    system.start_all()
    system.run_until(58.0)
    stalled_at = check_log(system, workload.submitted).max_committed
    system.run_until(400.0)
    report = check_log(system, workload.submitted)
    safe = report.agreement and report.validity
    return ["log: 2/2/1 fragmentation 10-60s", stalled_at, safe,
            workload.done(), report.max_committed]


def run_both() -> list[list[object]]:
    return [omega_partition_case(), log_partition_case()]


def test_e12_partition(benchmark) -> None:  # noqa: ANN001
    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = render_table(
        ["case", "during partition", "safe / holds after heal",
         "leader / all committed", "stab time / entries"],
        rows,
        title=("Table 8 (E12): partitions as correlated loss — "
               "divergence is bounded to the partition, recovery is full"))
    emit("e12_partition", table)
    omega_row, log_row = rows
    assert omega_row[1] == 2, "the two sides must disagree while split"
    assert omega_row[2], "Omega must hold again after the heal"
    assert log_row[2] and log_row[3], "log must stay safe and catch up"
