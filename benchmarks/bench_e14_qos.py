"""E14 / Table 10 — failure-detector quality of service per algorithm.

Stabilization time is a limit statement; consumers of Omega feel the
*transient* behaviour.  For each algorithm in its own system (with a
mid-run crash of the elected leader where the system tolerates it) we
report the exact interval-based QoS metrics of :mod:`repro.core.qos`:

* agreement fraction — how much of the run all correct processes agreed;
* good fraction — agreement on a *live* process;
* worst crash-detection time;
* total output flaps.
"""

from __future__ import annotations

from _common import emit, mean

from repro.core import analyze_omega_run, measure_qos
from repro.harness import OmegaScenario, render_table
from repro.sim import LinkTimings

SEEDS = (1, 2, 3)
HORIZON = 300.0
CRASH_AT = 100.0
TIMINGS = LinkTimings(gst=5.0)


def scenario_for(algorithm: str, seed: int) -> OmegaScenario:
    if algorithm == "all-timely":
        return OmegaScenario(algorithm=algorithm, n=6, system="all-et",
                             seed=seed, horizon=HORIZON, timings=TIMINGS)
    if algorithm == "f-source":
        return OmegaScenario(algorithm=algorithm, n=6, system="f-source",
                             source=2, targets=(0, 4), f=2, seed=seed,
                             horizon=HORIZON, timings=TIMINGS)
    return OmegaScenario(algorithm=algorithm, n=6, system="multi-source",
                         sources=(1, 2), seed=seed, horizon=HORIZON,
                         timings=TIMINGS)


def crash_is_tolerated(algorithm: str) -> bool:
    # The f-source system designates one source; crashing the elected
    # leader (usually that source) leaves the assumption space, so for
    # the f-source algorithm we measure the failure-free QoS instead.
    return algorithm != "f-source"


def run_sweep() -> list[list[object]]:
    rows: list[list[object]] = []
    for algorithm in ("all-timely", "source", "comm-efficient", "f-source"):
        agree = []
        good = []
        detect = []
        flaps = []
        for seed in SEEDS:
            scenario = scenario_for(algorithm, seed)
            cluster = scenario.build()
            cluster.start_all()
            if crash_is_tolerated(algorithm):
                cluster.run_until(CRASH_AT)
                leader = analyze_omega_run(cluster).final_leader
                if leader is not None:
                    cluster.crash(leader)
            cluster.run_until(HORIZON)
            qos = measure_qos(cluster)
            agree.append(qos.agreement_fraction)
            good.append(qos.good_fraction)
            flaps.append(float(qos.total_changes))
            if qos.worst_detection_time is not None:
                detect.append(qos.worst_detection_time)
        rows.append([
            algorithm,
            "yes" if crash_is_tolerated(algorithm) else "no (ff)",
            mean(agree), mean(good),
            mean(detect) if detect else None,
            mean(flaps),
        ])
    return rows


def test_e14_qos() -> None:
    rows = run_sweep()
    table = render_table(
        ["algorithm", "leader crashed", "agreement frac", "good frac",
         "worst detection (s)", "flaps (mean)"],
        rows,
        title=(f"Table 10 (E14): Omega QoS, n=6, horizon={HORIZON}s, "
               f"leader crash at t={CRASH_AT}s where tolerated"))
    emit("e14_qos", table)
    for row in rows:
        assert row[2] > 0.80, f"{row[0]}: agreement fraction too low"
        assert row[3] > 0.75, f"{row[0]}: good fraction too low"
