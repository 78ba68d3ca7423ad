"""Self-check of the benchmark at ``--quick`` size.

Run explicitly with ``python -m pytest bench/`` — it is not under
``tests/``, so the tier-1 suite neither collects nor pays for it.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_keeps_to_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) < 3420  # ~8 s around a run
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in SPEC[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for row in SPEC["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in SPEC["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in SPEC["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(row["unit"])
        assert row["better"] in ("lower", "higher")
    setup = [row for row in SPEC["end_to_end"] if row["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(r["bound"] for r in SPEC["end_to_end"])}]


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [*RUN, "--quick", "--runs", "1", "--trace", "1", "--seed", "7",
         "--out", str(out)], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload",
                         [row["name"] for row in SPEC["workloads"]])
def test_every_named_metric_is_reported(quick_suite, workload):
    entry = quick_suite["workloads"][workload]
    for record, key in ((entry["runs"][0], "end_to_end"),
                        (entry["trace"], "per_layer")):
        assert set(record) >= {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        declared = {row["name"]: row["unit"] for row in SPEC[key]}
        assert set(record["metrics"]) == set(declared)
        for name, cell in record["metrics"].items():
            assert cell["unit"] == declared[name]
            assert math.isfinite(cell["value"])
            if key == "end_to_end":
                assert cell["value"] > 0, name


def test_protocol_clock_figures_repeat_exactly_for_a_seed():
    args = ("--workload", "log_open", "--quick", "--seed", "11")
    first, second = _result(_run(*args)), _result(_run(*args))
    for name in compare.PROTOCOL_CLOCK:
        assert first["metrics"][name] == second["metrics"][name]
    traced = [_result(_run(*args, "--trace", "1")) for _ in range(2)]
    assert (traced[0]["metrics"]["sim.engine.events"]
            == traced[1]["metrics"]["sim.engine.events"])
    other = _result(_run("--workload", "log_open", "--quick", "--seed", "12"))
    assert other["metrics"]["latency_p50_s"] != first["metrics"]["latency_p50_s"]


def _document(wall: float, failed: int = 0) -> dict:
    runs = [{"seed": seed, "correct": True, "attempted": 100,
             "failed": failed, "detail": {"backend": "sim"},
             "metrics": {row["name"]: {"value": wall + seed * 1e-3,
                                       "unit": row["unit"]}
                         for row in SPEC["end_to_end"]}}
            for seed in range(5)]
    return {"workloads": {row["name"]: {"runs": runs}
                          for row in SPEC["workloads"]}}


def test_compare_flags_regressions_and_failures(capsys):
    assert compare.compare(_document(1.0), _document(1.0), SPEC) == 0
    assert compare.compare(_document(1.0), _document(1.02), SPEC) == 0
    assert compare.compare(_document(1.0), _document(1.5), SPEC) == 1
    assert compare.compare(_document(1.0), _document(1.0, failed=1),
                           SPEC) == 1
    assert compare.compare(_document(1.0), _document(1.02), SPEC,
                           same_commit=True) == 1
    assert "regression" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "log_open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
