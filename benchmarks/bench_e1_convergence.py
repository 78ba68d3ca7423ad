"""E1 / Table 1 — all four Omega algorithms elect a common correct leader.

Validates R1-R3's liveness side: for every algorithm, in its own system,
every correct process eventually trusts the same correct process.  Rows
report stabilization time (mean over seeds) for a sweep of system sizes,
failure-free.  Each run is the bench suite's ``e1`` runner
(:mod:`repro.harness.bench`), at this table's own seeds.
"""

from __future__ import annotations

from _common import emit, mean

from repro.harness import bench, render_table

SEEDS = (1, 2, 3)


def run_sweep() -> list[list[object]]:
    rows: list[list[object]] = []
    for algorithm in ("all-timely", "source", "comm-efficient", "f-source"):
        for n in (3, 5, 8, 12):
            stabs = []
            holds = True
            for seed in SEEDS:
                _, details, _ = bench._RUNNERS["e1"](algorithm=algorithm,
                                                     n=n, seed=seed)
                holds &= details["omega_holds"]
                if details["stabilization_time_s"] is not None:
                    stabs.append(details["stabilization_time_s"])
            rows.append([
                algorithm, n, holds,
                mean(stabs) if stabs else None,
                max(stabs) if stabs else None,
            ])
    return rows


def test_e1_convergence() -> None:
    rows = run_sweep()
    table = render_table(
        ["algorithm", "n", "omega holds", "stab mean (s)", "stab max (s)"],
        rows,
        title=("Table 1 (E1): convergence of the four Omega algorithms, "
               f"failure-free, seeds={SEEDS}, GST=5s"))
    emit("e1_convergence", table)
    assert all(row[2] for row in rows), "every run must satisfy Omega"
