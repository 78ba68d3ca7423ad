"""E3 / Table 2 — links that carry messages forever: n-1 versus Θ(n²).

The paper defines communication efficiency by the number of links that
carry messages forever.  For each algorithm and system size we census
the links active in the final 20 seconds of a long run and compare with
the theoretical targets: n-1 for the communication-efficient algorithm,
n(n-1) for the all-to-all ones.

Large-n extension: the asymptotic gap is the headline, so the census is
also run at n = 32/64/128 for the communication-efficient algorithm
(plus the R1 source algorithm at n = 32 as the Θ(n²) reference — the
full matrix at n = 128 would be 16 256 busy links of pure baseline
traffic and adds nothing).  The rows are the ``--full`` bench suite's
``e3`` cases (:mod:`repro.harness.bench`), run at seed 3.
"""

from __future__ import annotations

from _common import emit

from repro.harness import bench, render_table


def run_census() -> list[list[object]]:
    rows: list[list[object]] = []
    for case in bench.default_suite(seed=3, experiments=("e3",), full=True):
        _, details, _ = bench._RUNNERS["e3"](**case.params)
        rows.append([
            case.params["algorithm"], case.params["n"],
            details["links_active_final_window"], details["ce_target"],
            details["full_mesh"], details["communication_efficient"],
        ])
    return rows


def test_e3_link_census() -> None:
    rows = run_census()
    table = render_table(
        ["algorithm", "n", "links active (final 20s)", "n-1", "n(n-1)",
         "comm-efficient"],
        rows,
        title=("Table 2 (E3): link census in the final window — "
               "the CE algorithm touches exactly n-1 links, up to n=128"))
    emit("e3_link_census", table)
    for row in rows:
        algorithm, n, active, ce_target, full, efficient = row
        if algorithm == "comm-efficient":
            assert active == ce_target and efficient
        else:
            assert active > ce_target
