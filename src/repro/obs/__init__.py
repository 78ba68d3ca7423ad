"""Unified observability: observers, verdicts, timeliness, run reports.

This package is the one instrumentation surface of the repository (see
``docs/OBSERVABILITY.md``):

* :class:`Observer` / :class:`ObserverHub` — the event protocol every
  network dispatches through, and its fan-out hub;
* :func:`capture` — attach observers to networks built by code you do
  not control (harnesses, scenarios, soak campaigns);
* :class:`Verdict` — the shared result shape of every checker;
* :class:`TimelinessInspector` — empirical per-link timely /
  eventually-timely / lossy classification;
* :class:`RunRecorder` / :class:`RunReport` — the ``repro-report/v1``
  aggregator behind ``python -m repro report``.

Import discipline: submodules here depend only on the standard library
and each other (report builders import the sim/harness stack lazily,
inside functions), so ``repro.sim.network`` can import
:mod:`repro.obs.observer` without creating a cycle.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.obs.observer": ("Observer", "ObserverHub", "Capture", "capture"),
    "repro.obs.verdict": ("Verdict",),
    "repro.obs.timeliness": (
        "LinkStats", "TimelinessInspector", "expected_link_classes",
        "classification_matches"),
    "repro.obs.report": (
        "REPORT_SCHEMA", "PHASE_OF_KIND", "RunRecorder", "RunReport",
        "scenario_report", "bench_case_report", "soak_case_report",
        "validate_report", "render_report_text"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
