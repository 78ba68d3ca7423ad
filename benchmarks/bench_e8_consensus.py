"""E8 / Table 5 — consensus is solvable in the weak systems (R5).

Single-decree consensus driven by each Omega variant, across ensemble
sizes, fair-lossy loss rates and minority crash schedules.  Reported per
configuration: safety verdicts (agreement, validity — must always hold),
termination of all correct processes, time of the last decision, and
total consensus-layer messages.
"""

from __future__ import annotations

from _common import emit, mean

from repro.consensus import ConsensusSystem, check_single_decree
from repro.harness import render_table
from repro.sim import FaultPlan, LinkTimings
from repro.sim.topology import f_source_links, source_links

SEEDS = (1, 2)
HORIZON = 400.0


def run_case(omega_name: str, n: int, loss: float, crash: bool,
             seed: int) -> tuple[bool, bool, bool, float | None, int]:
    timings = LinkTimings(gst=5.0, fair_loss=loss)
    source = 1
    if omega_name == "f-source":
        f = 2
        links = lambda: f_source_links(n, source, (0, 2), timings)  # noqa: E731
    else:
        f = None
        links = lambda: source_links(n, source, timings)  # noqa: E731
    system = ConsensusSystem.build_single_decree(
        n, links, proposals=[f"v{i}" for i in range(n)],
        omega_name=omega_name, f=f, seed=seed)
    if crash:
        # Crashes land *during* the first ballots (decisions typically
        # complete within a few seconds), so the protocol must recover
        # from mid-flight quorum loss, not merely tolerate dead weight.
        victims = [pid for pid in range(n) if pid != source][:max(1, n // 2 - 1)]
        FaultPlan.crashes_at(*[(1.5 + 2.0 * i, pid)
                             for i, pid in enumerate(victims)]).schedule(system)
    system.start_all()
    system.run_until(HORIZON)
    report = check_single_decree(system)
    # Message cost of reaching the decision: count until shortly after the
    # last correct process decided (afterwards only decision-announcement
    # retries to crashed peers remain, which would dominate unfairly).
    if report.latest_decision is not None:
        sent = system.agreement_network.metrics.messages_between(
            0.0, report.latest_decision + 5.0)
    else:
        sent = system.agreement_network.metrics.total_sent
    return (report.agreement, report.validity, report.all_correct_decided,
            report.latest_decision, sent)


def run_sweep() -> list[list[object]]:
    rows: list[list[object]] = []
    for omega_name in ("all-timely", "source", "comm-efficient", "f-source"):
        for n in (3, 5, 7):
            for loss, crash in ((0.3, False), (0.6, False), (0.3, True)):
                safe = True
                done = True
                latencies = []
                messages = []
                for seed in SEEDS:
                    agreement, validity, decided, latest, sent = run_case(
                        omega_name, n, loss, crash, seed)
                    safe &= agreement and validity
                    done &= decided
                    if latest is not None:
                        latencies.append(latest)
                    messages.append(float(sent))
                rows.append([
                    omega_name, n, loss, crash, safe, done,
                    mean(latencies) if latencies else None,
                    int(mean(messages)),
                ])
    return rows


def test_e8_consensus() -> None:
    rows = run_sweep()
    table = render_table(
        ["omega", "n", "fair loss", "crashes", "safe", "all decided",
         "last decision (s)", "msgs to decide (mean)"],
        rows,
        title=("Table 5 (E8): single-decree consensus on each Omega "
               f"variant, seeds={SEEDS}, horizon={HORIZON}s"))
    emit("e8_consensus", table)
    assert all(row[4] for row in rows), "safety must never be violated"
    assert all(row[5] for row in rows), \
        "liveness: every correct process decides within the horizon"
