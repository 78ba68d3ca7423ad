"""E5 / Table 3 — an ◇f-source suffices for Omega (R3).

n = 7 processes, exactly f ◇timely output links on one process, every
other link fair-lossy with *growing* delays (the model's unbounded
asynchrony) and a loss-rate sweep.  The ◇f-source algorithm must still
converge to a correct leader — with f of the links arriving at possibly
faulty targets, and with f real crashes happening.
"""

from __future__ import annotations

from _common import emit, mean

from repro.harness import OmegaScenario, render_table
from repro.sim import FaultPlan, LinkTimings

N = 7
SOURCE = 3
SEEDS = (1, 2)
HORIZON = 700.0


def run_sweep() -> list[list[object]]:
    rows: list[list[object]] = []
    for f in (1, 2, 3):
        targets = tuple(range(f))  # targets 0..f-1
        for loss in (0.3, 0.6):
            for crash_targets in (False, True):
                crashes = ""
                if crash_targets:
                    # The adversary crashes f processes, starting with
                    # timely targets — the hardest legal choice.
                    victims = list(targets)[:f]
                    crashes = FaultPlan.crashes_at(
                        *((30.0 + 10.0 * i, pid)
                          for i, pid in enumerate(victims))).to_repro()
                timings = LinkTimings(gst=5.0, fair_loss=loss,
                                      fair_delay_growth=0.2)
                holds = True
                stabs = []
                leaders = set()
                for seed in SEEDS:
                    outcome = OmegaScenario(
                        algorithm="f-source", n=N, system="f-source",
                        source=SOURCE, targets=targets, f=f,
                        faults=crashes, seed=seed, horizon=HORIZON,
                        timings=timings).run()
                    holds &= outcome.stabilized
                    leaders.add(outcome.report.final_leader)
                    if outcome.report.stabilization_time is not None:
                        stabs.append(outcome.report.stabilization_time)
                rows.append([
                    f, loss, "yes" if crash_targets else "no", holds,
                    mean(stabs) if stabs else None,
                    ",".join(str(leader) for leader in sorted(
                        leaders, key=lambda x: (x is None, x))),
                ])
    return rows


def test_e5_fsource_sufficiency() -> None:
    rows = run_sweep()
    table = render_table(
        ["f", "fair loss", "crash targets", "omega holds", "stab mean (s)",
         "final leader(s)"],
        rows,
        title=(f"Table 3 (E5): ◇f-source sufficiency, n={N}, source={SOURCE}, "
               "growing fair-lossy delays, seeds x loss x crash sweep"))
    emit("e5_fsource", table)
    assert all(row[3] for row in rows), "R3 must hold in all configurations"
