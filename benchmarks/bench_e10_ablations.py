"""E10 / Table 6 — ablations of the design choices DESIGN.md calls out.

Four axes:

(a) timeout growth policy — additive vs multiplicative: failover latency
    and flap count after a leader crash;
(b) heartbeat period η — stabilization time vs steady message rate of
    the CE algorithm (the classic detection-latency/traffic trade-off);
(c) accusation phase-tagging — off lets stale/duplicated accusations
    inflate the source's counter;
(d) suspicion quorum in the ◇f-source algorithm — n-f is tight:
    n-f-1 wrongly penalizes the source even with all f timely links.
"""

from __future__ import annotations

from _common import emit, mean

from repro.core import OmegaConfig, analyze_omega_run
from repro.harness import OmegaScenario, render_table
from repro.sim import LinkTimings

TIMINGS = LinkTimings(gst=5.0)
SEEDS = (1, 2, 3)


def ablation_growth_policy() -> list[list[object]]:
    rows = []
    for policy in ("additive", "multiplicative"):
        latencies = []
        flaps = []
        for seed in SEEDS:
            config = OmegaConfig(growth_policy=policy)
            scenario = OmegaScenario(
                algorithm="comm-efficient", n=6, system="multi-source",
                sources=(1, 2), seed=seed, horizon=60.0, timings=TIMINGS,
                config=config)
            cluster = scenario.build()
            cluster.start_all()
            cluster.run_until(60.0)
            leader = analyze_omega_run(cluster).final_leader
            if leader is None:
                continue
            cluster.crash(leader)
            cluster.run_until(460.0)
            report = analyze_omega_run(cluster)
            if report.omega_holds and report.stabilization_time is not None:
                latencies.append(report.stabilization_time - 60.0)
                flaps.append(float(report.total_changes))
        rows.append(["(a) growth=" + policy,
                     mean(latencies) if latencies else None,
                     mean(flaps) if flaps else None])
    return rows


def ablation_eta() -> list[list[object]]:
    rows = []
    for eta in (0.25, 0.5, 1.0, 2.0):
        stabs = []
        rates = []
        for seed in SEEDS:
            config = OmegaConfig(eta=eta, initial_timeout=4 * eta,
                                 growth_step=eta)
            outcome = OmegaScenario(
                algorithm="comm-efficient", n=6, system="source", source=2,
                seed=seed, horizon=240.0, timings=TIMINGS,
                config=config).run()
            if outcome.report.stabilization_time is not None:
                stabs.append(outcome.report.stabilization_time)
            rates.append(
                outcome.cluster.metrics.messages_between(200.0, 240.0) / 40.0)
        rows.append([f"(b) eta={eta}",
                     mean(stabs) if stabs else None,
                     mean(rates)])
    return rows


def ablation_phase_tagging() -> list[list[object]]:
    rows = []
    # Heavy pre-GST noise so plenty of stale accusations are in flight;
    # slow pre-GST messages deliver them long after the phase moved on.
    noisy = LinkTimings(gst=20.0, pre_gst_loss=0.2, pre_gst_delay_max=30.0,
                        fair_delay_max=8.0)
    for tagged in (True, False):
        counters = []
        for seed in SEEDS:
            config = OmegaConfig(phase_tagged_accusations=tagged)
            outcome = OmegaScenario(
                algorithm="comm-efficient", n=6, system="source", source=2,
                seed=seed, horizon=240.0, timings=noisy, config=config).run()
            counters.append(float(outcome.cluster.process(2).counter))
        rows.append([f"(c) phase tagging={'on' if tagged else 'off'}",
                     mean(counters), None])
    return rows


def ablation_quorum() -> list[list[object]]:
    rows = []
    adversarial = LinkTimings(gst=5.0, fair_outage_period=15.0,
                              fair_outage_growth=4.0)
    for quorum_label, override in (("n-f (correct)", None),
                                   ("n-f-1 (too small)", 2)):
        growth = []
        for seed in SEEDS:
            scenario = OmegaScenario(
                algorithm="f-source", n=5, system="f-source", source=2,
                targets=(0, 4), f=2, quorum_override=override, seed=seed,
                horizon=600.0, timings=adversarial)
            cluster = scenario.build()
            cluster.start_all()
            cluster.run_until(300.0)
            mid = cluster.process(0).counter_of(2)
            cluster.run_until(600.0)
            end = cluster.process(0).counter_of(2)
            growth.append(float(end - mid))
        rows.append([f"(d) quorum={quorum_label}", mean(growth), None])
    return rows


def run_all() -> list[list[object]]:
    rows: list[list[object]] = []
    rows += ablation_growth_policy()
    rows += ablation_eta()
    rows += ablation_phase_tagging()
    rows += ablation_quorum()
    return rows


def test_e10_ablations() -> None:
    rows = run_all()
    table = render_table(
        ["ablation", "primary metric", "secondary"],
        rows,
        title=("Table 6 (E10): design ablations — "
               "(a) failover latency s / flaps, (b) stabilization s / "
               "steady msgs-per-s, (c) source counter after pre-GST noise, "
               "(d) source counter growth in 300s tail"))
    emit("e10_ablations", table)

    metrics = {row[0]: row[1] for row in rows}
    assert metrics["(c) phase tagging=off"] >= metrics["(c) phase tagging=on"]
    assert metrics["(d) quorum=n-f (correct)"] == 0.0
    assert metrics["(d) quorum=n-f-1 (too small)"] > 0.0
