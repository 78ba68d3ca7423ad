"""E2 / Figure 1 — communication efficiency over time (the headline plot).

Time series of (a) how many processes sent anything and (b) how many
messages were sent, per 10-second window, for the baseline all-to-all
algorithm, the R1 source algorithm and the R2 communication-efficient
algorithm on the same 8-process eventually-timely-source system.

Expected shape: all three start with all 8 processes talking; the
communication-efficient run collapses to a single sender (n-1 = 7 links)
shortly after GST while the other two stay at 8 senders forever.

Large-n extension: the same collapse at n = 32/64, where the per-window
message gap versus the all-to-all baseline (which scales Θ(n²)) becomes
dramatic — at n = 64 the steady state is ~64× fewer messages.
"""

from __future__ import annotations

from _common import emit

from repro.harness import OmegaScenario, render_series, render_table
from repro.sim import LinkTimings

N = 8
HORIZON = 120.0
WINDOW = 10.0
TIMINGS = LinkTimings(gst=5.0)


def run_timelines() -> dict[str, list[tuple[int, int]]]:
    series: dict[str, list[tuple[int, int]]] = {}
    for algorithm, system in (("all-timely", "all-et"),
                              ("source", "source"),
                              ("comm-efficient", "source")):
        outcome = OmegaScenario(algorithm=algorithm, n=N, system=system,
                                source=3, seed=2, horizon=HORIZON,
                                timings=TIMINGS).run()
        metrics = outcome.cluster.metrics
        points = []
        for start in range(0, int(HORIZON), int(WINDOW)):
            end = start + WINDOW
            points.append((
                len(metrics.senders_between(start, end - 0.001)),
                metrics.messages_between(start, end - 0.001),
            ))
        series[algorithm] = points
    return series


LARGE_N = (32, 64)
LARGE_HORIZON = 240.0


def run_large_n() -> list[list[object]]:
    """Steady-state senders/messages of the CE algorithm at large n.

    The all-to-all baseline's steady state needs no run to know: every
    process broadcasts each heartbeat period forever, so its final
    window carries ``n(n-1) * window/eta`` messages; the table prints
    that analytic figure next to the measured CE census.
    """
    rows: list[list[object]] = []
    for n in LARGE_N:
        outcome = OmegaScenario(
            algorithm="comm-efficient", n=n, system="source", source=3,
            seed=2, horizon=LARGE_HORIZON, timings=TIMINGS).run()
        metrics = outcome.cluster.metrics
        start = LARGE_HORIZON - WINDOW
        senders = len(metrics.senders_between(start, LARGE_HORIZON - 0.001))
        messages = metrics.messages_between(start, LARGE_HORIZON - 0.001)
        baseline = int(n * (n - 1) * WINDOW / 0.5)  # eta = 0.5s heartbeats
        rows.append([n, senders, messages, baseline,
                     f"{baseline / max(messages, 1):.0f}x"])
    return rows


def test_e2_message_timeline() -> None:
    series = run_timelines()
    rows = []
    for index in range(int(HORIZON / WINDOW)):
        window = f"{int(index * WINDOW)}-{int((index + 1) * WINDOW)}s"
        row: list[object] = [window]
        for algorithm in ("all-timely", "source", "comm-efficient"):
            senders, messages = series[algorithm][index]
            row.append(f"{senders}/{messages}")
        rows.append(row)
    table = render_table(
        ["window", "all-timely (senders/msgs)", "source (senders/msgs)",
         "comm-efficient (senders/msgs)"],
        rows,
        title=("Figure 1 (E2): active senders and messages per 10s window, "
               f"n={N}, GST=5s — CE collapses to one sender"))
    figure = render_series(
        {name: [point[0] for point in series[name]]
         for name in ("all-timely", "source", "comm-efficient")},
        title="\nactive senders per window (scale 0..8):")

    large_rows = run_large_n()
    large_table = render_table(
        ["n", "senders (final 10s)", "CE msgs (final 10s)",
         "all-to-all msgs (analytic)", "reduction"],
        large_rows,
        title=("Large-n: CE steady state vs the Θ(n²) baseline "
               f"(final {WINDOW:g}s window, horizon {LARGE_HORIZON:g}s)"))
    emit("e2_msg_timeline", table + "\n" + figure + "\n\n" + large_table)

    final_ce = series["comm-efficient"][-1]
    final_base = series["all-timely"][-1]
    assert final_ce[0] == 1, "CE must end with exactly one sender"
    assert final_base[0] == N, "baseline keeps everyone talking"
    assert final_ce[1] * 4 < final_base[1]
    for n, senders, messages, baseline, _ in large_rows:
        assert senders == 1, f"CE must collapse to one sender at n={n}"
        assert messages * 8 < baseline
