"""Experiment harness: scenarios, statistics and table rendering.

Everything the benchmark modules share lives here, so each benchmark is
a thin sweep over declarative :class:`OmegaScenario` values (or the
consensus builders) plus a rendered table.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.harness.bench": (
        "BenchCase", "build_report", "default_suite", "run_suite",
        "strip_nondeterministic"),
    "repro.harness.soak": (
        "LiveSoakCase", "SoakCase", "SoakResult", "campaign_digest",
        "recovery_control_case", "run_soak_case", "sample_degraded_case",
        "sample_live_case", "sample_recovery_case", "sample_soak_case",
        "soak"),
    "repro.harness.scenarios": ("SYSTEM_NAMES", "OmegaOutcome", "OmegaScenario"),
    "repro.harness.stats": ("Summary", "percentile", "summarize"),
    "repro.harness.tables": ("format_value", "render_table"),
    "repro.harness.plot": ("render_bars", "render_series", "sparkline"),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
