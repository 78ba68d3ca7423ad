"""E15 / Table 11 — extension: log compaction and snapshot catch-up.

A long-lived replicated log must not grow without bound.  The compacting
replica keeps a fixed tail of entries plus the state-machine summary of
everything older; a replica that falls behind by more than the tail is
caught up by snapshot transfer.  This experiment runs 150 commands with
one replica partitioned away for 60 s and reports, per ``keep_tail``:

* the maximum log entries any replica ever holds (versus the 150
  entries an uncompacted log accumulates);
* snapshots installed by the laggard;
* correctness verdicts (agreement of machine states, validity, all
  commands committed).
"""

from __future__ import annotations

from _common import emit

from repro.consensus import (
    ConsensusSystem,
    JournalMachine,
    WorkloadSpec,
    check_compacting_log,
)
from repro.harness import render_table
from repro.sim import LinkTimings
from repro.sim.topology import multi_source_links

N = 5
COMMANDS = 150
HORIZON = 400.0
TIMINGS = LinkTimings(gst=3.0)


def run_case(keep_tail: int, seed: int = 9):  # noqa: ANN201
    system = ConsensusSystem.build_compacting_log(
        N, lambda: multi_source_links(N, (1, 2), TIMINGS),
        machine_factory=JournalMachine, keep_tail=keep_tail, seed=seed)
    workload = WorkloadSpec(
        count=COMMANDS, period=0.4, start=4.0).build(system)
    for network in (system.agreement_network, system.fd_network):
        network.add_partition(10.0, 70.0, [{0, 1, 2, 3}, {4}])

    peak_log = {pid: 0 for pid in system.pids}

    def sample(now: float) -> None:
        for pid in system.up_pids():
            peak_log[pid] = max(peak_log[pid],
                                system.node(pid).agreement.log_size())

    system.sim.add_probe(1.0, sample)
    system.start_all()
    system.run_until(HORIZON)
    report = check_compacting_log(system, workload.submitted)
    laggard = system.node(4).agreement
    journals = {system.node(pid).agreement.machine_snapshot()
                for pid in system.up_pids()}
    return {
        "peak_log": max(peak_log.values()),
        "installed": laggard.snapshots_installed,
        "safe": report.agreement and report.validity,
        "converged": len(journals) == 1
        and len(next(iter(journals))) == COMMANDS,
        "done": workload.done(),
    }


def run_sweep() -> list[list[object]]:
    rows: list[list[object]] = []
    for keep_tail in (8, 32, 128):
        result = run_case(keep_tail)
        rows.append([
            keep_tail, result["peak_log"], COMMANDS,
            result["installed"], result["safe"],
            result["converged"] and result["done"],
        ])
    return rows


def test_e15_compaction(benchmark) -> None:  # noqa: ANN001
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = render_table(
        ["keep_tail", "peak log entries", "commands", "laggard snapshots",
         "safe", "all applied everywhere"],
        rows,
        title=(f"Table 11 (E15): log compaction under a 60s partition of "
               f"one replica, n={N}, {COMMANDS} commands"))
    emit("e15_compaction", table)
    for row in rows:
        keep_tail, peak, _, installed, safe, converged = row
        assert safe and converged
        assert peak < COMMANDS, "compaction must bound the log"
    small_tail = rows[0]
    assert small_tail[3] >= 1, \
        "with a small tail the partitioned replica needs a snapshot"
