"""E9 / Figure 4 — communication-efficient repeated consensus (R5).

A replicated log processes 200 commands.  With a stable leader, steady
state touches only leader-adjacent links (~2(n-1) messages per command
plus what the commit piggyback did not deliver); a mid-run leader crash
shows the takeover burst and the return to the efficient pattern.  The
figure is the per-window message count of the *consensus* network
together with the number of distinct active links.  The crash run goes
on to ``TAIL_END``: from ``TAIL_START`` on only the final leader may
send, on at most n-1 links (eventually only the leader sends).
"""

from __future__ import annotations

from _common import emit

from repro.consensus import ConsensusSystem, check_log
from repro.harness import render_table
from repro.load import LoadSpec
from repro.sim import LinkTimings
from repro.sim.topology import multi_source_links

N = 5
HORIZON = 260.0
TAIL_START, TAIL_END = 220.0, 1000.0
WINDOW = 20.0
COMMANDS = 200
TIMINGS = LinkTimings(gst=5.0)


def run_log(crash_leader: bool, seed: int = 2):  # noqa: ANN201
    horizon = TAIL_END if crash_leader else HORIZON
    system = ConsensusSystem.build_replicated_log(
        N, lambda: multi_source_links(N, (1, 2), TIMINGS), seed=seed)
    fleet = LoadSpec(clients=1, keys=1, arrival="steady", rate=1.0,
                     start=6.0, duration=COMMANDS * 1.0).drive(system)
    system.start_all()
    if crash_leader:
        system.run_until(100.0)
        leader = system.node(3).omega.leader()
        system.crash(leader)
    system.run_until(horizon)
    report = check_log(system, fleet.group_payloads[0])
    assert report.agreement and report.validity
    metrics = system.agreement_network.metrics
    points = []
    for start in range(0, int(HORIZON - WINDOW) + 1, int(WINDOW)):
        end = start + WINDOW - 0.001
        points.append((metrics.messages_between(start, end),
                       len(metrics.links_between(start, end))))
    commands_done = fleet.done()
    # messages per command in the failure-free steady state (windows
    # fully inside the submission phase, post-stabilization)
    steady = metrics.messages_between(60.0, 180.0) / 120.0  # msgs/second
    end = horizon - 0.001
    tail = (metrics.senders_between(TAIL_START, end),
            metrics.links_between(TAIL_START, end),
            metrics.messages_between(TAIL_START, end) / (horizon - TAIL_START),
            system.node(system.up_pids()[0]).omega.leader())
    return points, commands_done, steady, tail


def run_both():  # noqa: ANN201
    return {
        "stable leader": run_log(crash_leader=False),
        "leader crash @100s": run_log(crash_leader=True),
    }


def test_e9_repeated_consensus() -> None:
    results = run_both()
    stable_points, stable_done, stable_rate, _ = results["stable leader"]
    crash_points, crash_done, _, tail = results["leader crash @100s"]
    senders, links, tail_rate, final_leader = tail
    rows = []
    for index in range(len(stable_points)):
        window = f"{int(index * WINDOW)}-{int((index + 1) * WINDOW)}s"
        rows.append([
            window,
            stable_points[index][0], stable_points[index][1],
            crash_points[index][0], crash_points[index][1],
        ])
    table = render_table(
        ["window", "stable: msgs", "stable: links",
         "crash: msgs", "crash: links"],
        rows,
        title=(f"Figure 4 (E9): replicated log, {COMMANDS} commands at "
               f"1/s, n={N} — consensus-layer traffic per {int(WINDOW)}s "
               "window"))
    footer = (f"\nall commands committed: stable={stable_done}, "
              f"crash={crash_done}; stable steady rate ≈ "
              f"{stable_rate:.2f} msgs/s for 1 cmd/s "
              f"(theory: 2(n-1) quorum = {2 * (N - 1)})"
              f"\ncrash run {int(TAIL_START)}-{int(TAIL_END)}s: "
              f"senders {sorted(senders)} (final leader p{final_leader}), "
              f"links {sorted(links)}, {tail_rate:.2f} msgs/s")
    emit("e9_repeated", table + footer)
    assert stable_done and crash_done
    # Eventually only the leader sends, on at most n-1 links.
    assert senders <= {final_leader} and len(links) <= N - 1
    # Steady state must be leader-adjacent only: at most 2(n-1) links.
    assert all(links <= 2 * (N - 1) for _, links in stable_points[3:])
