"""Shared plumbing for the experiment benchmarks.

Every benchmark is a plain pytest test that runs a full experiment
sweep, renders its table/figure through
:func:`repro.harness.render_table`, prints it, and mirrors it to
``benchmarks/results/<name>.txt`` so results survive pytest's output
capture.  The tables record no timing.  ``EXPERIMENTS.md`` is written
from those files.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print an experiment artifact and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def mean(values: list[float]) -> float:
    """Plain average (sweeps here always have at least one value)."""
    return sum(values) / len(values)
