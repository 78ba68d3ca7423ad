"""Cross-validation: the same scenario, in-sim and live, judged alike.

The live backend earns its keep only if it *agrees* with the simulator
on what the protocols do.  :func:`cross_validate` runs one scenario
twice — once on the deterministic sim kernel, once as a live loopback
cluster of real OS processes — judges both runs with the **same**
checkers (:mod:`repro.core.checker` for Omega,
:mod:`repro.consensus.checker` for decisions: the sim run through
their sim extractors, the live run through the node-report adapters of
:mod:`repro.live.report`), and diffs the results:

* both verdicts must agree on ``ok``;
* on clean runs (no faults) both backends must elect the **same final
  leader** — the algorithms are deterministic in who they converge to
  (the lowest timely pid), even though live timings are not;
* with consensus on, both backends must decide, and the decided values
  must satisfy the same agreement/validity properties (the *values*
  may differ between backends: which proposal wins depends on who
  leads when the first ballot starts).

What is deliberately **not** compared: exact leader-change timings,
message counts, packet tallies.  Those are timing-dependent; the sim's
are exact, the live run's are whatever the OS gave that day.  The
contract is about *outcomes*, matching the paper's properties, which
are themselves timing-free in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.config import OmegaConfig
from repro.live.cluster import LiveCluster, LiveClusterSpec
from repro.obs.verdict import Verdict

__all__ = ["CrossValidation", "cross_validate"]


@dataclass
class CrossValidation:
    """Outcome of one sim-versus-live comparison."""

    sim_verdict: Verdict
    live_verdict: Verdict
    sim_leader: int | None
    live_leader: int | None
    mismatches: list[str]
    live_document: dict[str, Any]

    @property
    def matches(self) -> bool:
        """True iff the backends agreed on every compared property."""
        return not self.mismatches

    def to_json(self) -> dict[str, Any]:
        """A JSON-serialisable summary (the CLI prints this)."""
        return {
            "matches": self.matches,
            "mismatches": list(self.mismatches),
            "sim": {"verdict": self.sim_verdict.to_json(),
                    "final_leader": self.sim_leader},
            "live": {"verdict": self.live_verdict.to_json(),
                     "final_leader": self.live_leader},
        }


def cross_validate(rundir: str, algorithm: str = "comm-efficient",
                   n: int = 3, seed: int = 0, horizon: float = 3.0,
                   eta: float = 0.1, initial_timeout: float = 0.5,
                   consensus: bool = False,
                   faults: str = "") -> CrossValidation:
    """Run one scenario on both backends and diff the judged outcomes.

    ``horizon`` is wall seconds for the live run and simulated seconds
    for the sim run — the same protocol-time budget either way.
    ``faults`` is a nemesis repro string applied to both backends
    (leader equality is then not compared; see the module docstring).
    Sim-side imports stay local so ``repro.live`` never drags the
    harness stack in at import time.
    """
    from repro.harness.scenarios import OmegaScenario

    config = OmegaConfig(eta=eta, initial_timeout=initial_timeout)

    # --- sim side ------------------------------------------------------
    if consensus:
        from repro.consensus.checker import check_single_decree
        from repro.consensus.config import ConsensusConfig
        from repro.consensus.node import ConsensusSystem
        from repro.core.checker import analyze_omega_run
        from repro.sim.topology import all_timely_links

        proposals = [f"value-{pid}" for pid in range(n)]
        system = ConsensusSystem.build_single_decree(
            n, lambda: all_timely_links(n),
            proposals, omega_name=algorithm, omega_config=config,
            consensus_config=ConsensusConfig(tick=0.25), seed=seed)
        if faults:
            from repro.sim.nemesis import FaultPlan
            FaultPlan.from_repro(faults).schedule(system)
        system.start_all()
        system.run_until(horizon)
        report = analyze_omega_run(system)
        sim_verdict = report.verdict().merge(
            check_single_decree(system).verdict())
        sim_leader = report.final_leader
    else:
        scenario = OmegaScenario(algorithm=algorithm, n=n,
                                 system="all-timely", seed=seed,
                                 horizon=horizon, faults=faults,
                                 ce_window=min(20.0, horizon),
                                 config=config)
        outcome = scenario.run()
        sim_verdict = outcome.report.verdict()
        sim_leader = outcome.report.final_leader

    # --- live side -----------------------------------------------------
    live = LiveCluster(LiveClusterSpec(
        n=n, algorithm=algorithm, eta=eta,
        initial_timeout=initial_timeout, horizon=horizon, seed=seed,
        consensus=consensus, faults=faults), rundir)
    live_outcome = live.run()
    live_verdict = live_outcome.verdict
    live_leader = live_outcome.omega.final_leader

    # --- the diff ------------------------------------------------------
    mismatches: list[str] = []
    if sim_verdict.ok != live_verdict.ok:
        mismatches.append(
            f"verdicts disagree: sim ok={sim_verdict.ok} "
            f"(violations={list(sim_verdict.violations)}), live "
            f"ok={live_verdict.ok} "
            f"(violations={list(live_verdict.violations)})")
    if not faults and sim_verdict.ok and live_verdict.ok \
            and sim_leader != live_leader:
        mismatches.append(
            f"clean-run final leaders disagree: sim elected "
            f"{sim_leader}, live elected {live_leader}")
    return CrossValidation(
        sim_verdict=sim_verdict, live_verdict=live_verdict,
        sim_leader=sim_leader, live_leader=live_leader,
        mismatches=mismatches, live_document=live_outcome.document)
