"""E7 / Table 4 — communication efficiency needs an ◇(n-1)-source (R6).

The communication-efficient algorithm is run (a) in its proper system
(source timely to everyone) and (b) in an ◇f-source system where the
source's heartbeats reach only f peers timely, everything else being
fair-lossy with growing outages.  In (b) a lone sender cannot keep all
watchers quiet: accusations recur forever and leadership keeps flapping
— stability and efficiency cannot coexist at that synchrony level.
"""

from __future__ import annotations

from _common import emit

from repro.harness import OmegaScenario, render_table
from repro.sim import LinkTimings

N = 5
HORIZON = 500.0
ADVERSARIAL = LinkTimings(gst=5.0, fair_outage_period=15.0, fair_outage_growth=4.0)


def run_boundary() -> list[list[object]]:
    rows: list[list[object]] = []
    cases = [
        ("proper ◇(n-1)-source", OmegaScenario(
            algorithm="comm-efficient", n=N, system="source", source=2,
            seed=1, horizon=HORIZON, ce_window=60.0, timings=ADVERSARIAL)),
        ("only ◇2-source", OmegaScenario(
            algorithm="comm-efficient", n=N, system="f-source", source=2,
            targets=(0, 4), f=2, seed=1, horizon=HORIZON, ce_window=60.0,
            timings=ADVERSARIAL)),
    ]
    for label, scenario in cases:
        outcome = scenario.run()
        late_changes = sum(
            1 for pid in outcome.cluster.up_pids()
            for time, _ in outcome.cluster.process(pid).history
            if time > HORIZON / 2)
        rows.append([
            label,
            outcome.stabilized,
            outcome.communication_efficient,
            len(outcome.comm.senders),
            late_changes,
        ])
    return rows


def test_e7_ce_boundary() -> None:
    rows = run_boundary()
    table = render_table(
        ["system", "omega stable", "comm-efficient",
         "senders (final window)", "leader flaps in 2nd half"],
        rows,
        title=("Table 4 (E7): the CE algorithm at the synchrony boundary, "
               f"n={N} — with only an ◇f-source it cannot be both stable "
               "and efficient"))
    emit("e7_ce_boundary", table)
    proper, starved = rows
    assert proper[1] and proper[2], "proper system: stable and efficient"
    assert not (starved[1] and starved[2]), \
        "◇f-source system: stability and efficiency cannot both hold"
    assert starved[4] > proper[4], "flapping must be visibly worse"
