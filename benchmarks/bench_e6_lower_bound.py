"""E6 / Figure 3 — an ◇(f-1)-source is NOT enough (lower bound R4).

Identical systems except for one link: with f ◇timely output links the
source's quorum-confirmed counter freezes; with f-1 links the remaining
n-f processes behind growing-outage fair-lossy links meet the n-f
suspicion quorum over and over, the counter grows forever, and stable
leadership is impossible.  The figure is the counter-of-source time
series under both topologies, plus flap counts.
"""

from __future__ import annotations

from _common import emit

from repro.core import analyze_omega_run
from repro.harness import OmegaScenario, render_table
from repro.sim import LinkTimings

N = 5
F = 2
SOURCE = 2
HORIZON = 600.0
SAMPLE_EVERY = 60.0
TIMINGS = LinkTimings(gst=5.0, fair_outage_period=15.0, fair_outage_growth=4.0)


def sample_counter_series(targets: tuple[int, ...]) -> tuple[list[int], int]:
    scenario = OmegaScenario(
        algorithm="f-source", n=N, system="f-source", source=SOURCE,
        targets=targets, f=F, seed=1, horizon=HORIZON, timings=TIMINGS)
    cluster = scenario.build()
    observer = 0
    samples: list[int] = []
    cluster.sim.add_probe(
        SAMPLE_EVERY,
        lambda now: samples.append(cluster.process(observer).counter_of(SOURCE)))
    cluster.start_all()
    cluster.run_until(HORIZON)
    report = analyze_omega_run(cluster)
    return samples, report.total_changes


def run_both() -> dict[str, tuple[list[int], int]]:
    return {
        "f links (R3)": sample_counter_series((0, 4)),
        "f-1 links (R4)": sample_counter_series((0,)),
    }


def test_e6_lower_bound() -> None:
    results = run_both()
    proper_series, proper_flaps = results["f links (R3)"]
    starved_series, starved_flaps = results["f-1 links (R4)"]
    rows = []
    for index, (proper, starved) in enumerate(
            zip(proper_series, starved_series)):
        rows.append([f"{int((index + 1) * SAMPLE_EVERY)}s", proper, starved])
    table = render_table(
        ["time", "counter[source], f timely links",
         "counter[source], f-1 timely links"],
        rows,
        title=(f"Figure 3 (E6): the source's confirmed-suspicion counter, "
               f"n={N}, f={F} — bounded with f links, unbounded with f-1"))
    from repro.harness import render_series

    figure = render_series(
        {"f timely links": [float(v) for v in proper_series],
         "f-1 timely links": [float(v) for v in starved_series]},
        title="\ncounter[source] over time (shared scale):")
    footer = (f"\nleader flaps over the run: f links={proper_flaps}, "
              f"f-1 links={starved_flaps}")
    emit("e6_lower_bound", table + "\n" + figure + footer)

    # Bounded vs unbounded, empirically: frozen tail vs strict growth.
    assert proper_series[-1] == proper_series[len(proper_series) // 2], \
        "with f timely links the counter must freeze"
    assert starved_series[-1] > starved_series[len(starved_series) // 2], \
        "with f-1 timely links the counter must keep growing"
