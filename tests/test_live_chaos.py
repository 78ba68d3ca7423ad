"""Live chaos harness tests: supervision, storage, sampling, teardown.

Covers the live soak campaign (the ``live`` entry of
:data:`repro.harness.soak.CAMPAIGNS`) and the robustness machinery under
it: the :class:`Backoff`/:class:`Deadline`
supervision primitives, the one-line :class:`ControlError`, SIGKILL-
surviving :class:`FileStorage`, deterministic case sampling with
byte-identical plan replay, and — the load-bearing regressions — that a
cluster whose startup or control plane fails mid-flight tears down
every already-spawned node process instead of leaking orphans.

Tests that spawn real node subprocesses are marked ``live``.
"""

from __future__ import annotations

import importlib
import random
import signal
import time
from pathlib import Path

import pytest

from repro.harness.soak import (
    LiveSoakCase,
    SoakResult,
    run_soak_case,
    sample_live_case,
    soak,
    soak_bench_cases,
)
from repro.live.cluster import ControlError, LiveCluster, LiveClusterSpec
from repro.live.runtime import Backoff, Deadline
from repro.live.storage import FileStorage
from repro.sim.engine import Simulation
from repro.sim.nemesis import FaultPlan, model_violations
from repro.sim.storage import StorageError


class TestBackoff:
    def test_delays_are_bounded_exponential_with_jitter(self) -> None:
        backoff = Backoff(base=0.1, factor=2.0, cap=0.5, attempts=5)
        delays = backoff.delays(random.Random(7))
        assert len(delays) == 4  # one fewer than attempts
        for index, delay in enumerate(delays):
            ceiling = min(0.5, 0.1 * 2.0 ** index)
            assert 0.0 < delay <= ceiling

    def test_deterministic_under_a_seeded_rng(self) -> None:
        backoff = Backoff()
        assert backoff.delays(random.Random(3)) == \
            backoff.delays(random.Random(3))

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            Backoff(base=0.0)
        with pytest.raises(ValueError):
            Backoff(attempts=0)
        with pytest.raises(ValueError):
            Backoff(factor=0.5)


class TestDeadline:
    def test_remaining_counts_down_and_clamps_at_zero(self) -> None:
        deadline = Deadline(0.05)
        assert not deadline.expired
        assert 0.0 < deadline.remaining <= 0.05
        time.sleep(0.07)
        assert deadline.expired
        assert deadline.remaining == 0.0
        assert deadline.elapsed >= 0.05


class TestControlError:
    def test_one_liner_names_everything(self) -> None:
        error = ControlError(pid=2, endpoint=("127.0.0.1", 4711),
                             attempts=4, elapsed=1.23,
                             cause="ConnectionRefusedError: refused")
        text = str(error)
        assert "node 2" in text
        assert "127.0.0.1:4711" in text
        assert "4 attempts" in text
        assert "1.23s" in text
        assert "refused" in text
        assert "\n" not in text
        assert error.pid == 2 and error.attempts == 4


class TestFileStorage:
    def test_snapshot_survives_reload(self, tmp_path) -> None:
        path = str(tmp_path / "node0.storage")
        first = FileStorage(0, Simulation(seed=1), path)
        first.put("ballot", (3, 1))
        first.put(("accepted", 7), ("value", ("nested", 1)))
        first.sync()
        assert set(first.durable_keys()) == {"ballot", ("accepted", 7)}

        reborn = FileStorage(0, Simulation(seed=1), path)
        assert reborn.get("ballot") == (3, 1)
        assert reborn.get(("accepted", 7)) == ("value", ("nested", 1))

    def test_unsynced_writes_do_not_reach_disk(self, tmp_path) -> None:
        path = str(tmp_path / "node0.storage")
        first = FileStorage(0, Simulation(seed=1), path)
        first.put("synced", 1)
        first.sync()
        first.put("buffered", 2)  # never synced — lost on SIGKILL

        reborn = FileStorage(0, Simulation(seed=1), path)
        assert reborn.get("synced") == 1
        assert "buffered" not in reborn

    def test_half_written_tmp_file_is_ignored(self, tmp_path) -> None:
        path = tmp_path / "node0.storage"
        storage = FileStorage(0, Simulation(seed=1), str(path))
        storage.put("key", "value")
        storage.sync()
        # A kill mid-replace leaves a stale tmp file behind; reload must
        # read the committed snapshot, not the partial one.
        (tmp_path / "node0.storage.tmp").write_bytes(b"partial garbage")
        reborn = FileStorage(0, Simulation(seed=1), str(path))
        assert reborn.get("key") == "value"

    def test_corrupt_snapshot_raises_storage_error(self, tmp_path) -> None:
        path = tmp_path / "node0.storage"
        path.write_bytes(b"this is not a snapshot")
        with pytest.raises(StorageError, match="cannot reload"):
            FileStorage(0, Simulation(seed=1), str(path))

    @staticmethod
    def _snapshot(tmp_path) -> Path:
        path = tmp_path / "node0.storage"
        storage = FileStorage(0, Simulation(seed=1), str(path))
        storage.put(("log", 0), ("c1", "set", 42))
        storage.sync()
        return path

    def test_a_flipped_byte_is_a_checksum_mismatch(self, tmp_path) -> None:
        path = self._snapshot(tmp_path)
        data = path.read_bytes()
        at = data.index(b"c1") + 1
        path.write_bytes(data[:at] + b"9" + data[at + 1:])
        with pytest.raises(StorageError, match="checksum mismatch"):
            FileStorage(0, Simulation(seed=1), str(path))

    def test_an_unknown_version_byte_is_refused(self, tmp_path) -> None:
        path = self._snapshot(tmp_path)
        path.write_bytes(b"\xff" + path.read_bytes()[1:])
        with pytest.raises(StorageError, match="unknown snapshot version 255"):
            FileStorage(0, Simulation(seed=1), str(path))

    @pytest.mark.parametrize("cut", [1, 3, 4, 9])
    def test_a_truncated_file_is_refused(self, tmp_path, cut) -> None:
        path = self._snapshot(tmp_path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(StorageError, match="truncated snapshot"):
            FileStorage(0, Simulation(seed=1), str(path))


class TestSampling:
    def test_cases_are_deterministic_per_seed_and_index(self) -> None:
        assert sample_live_case(7, 3) == sample_live_case(7, 3)
        assert sample_live_case(7, 3) != sample_live_case(8, 3)
        assert sample_live_case(7, 3) != sample_live_case(7, 4)

    def test_sampling_valid_at_the_cli_horizon_floor(self) -> None:
        # Down to a 7 s horizon every sampled plan must construct
        # (crash+recover windows need heal_by - 1 > the latest crash
        # time, i.e. horizon > ~6.7).
        for horizon in (7.0, 8.0):
            for seed in range(10):
                for index in range(8):
                    sample_live_case(seed, index, horizon=horizon)

    def test_every_sampled_plan_replays_byte_identically(self) -> None:
        for index in range(12):
            case = sample_live_case(0, index)
            assert FaultPlan.from_repro(case.plan).to_repro() == case.plan

    def test_every_sampled_plan_is_in_model(self) -> None:
        for seed in (0, 1, 7):
            for index in range(8):
                case = sample_live_case(seed, index)
                plan = FaultPlan.from_repro(case.plan)
                assert model_violations(plan, case.envelope()) == [], \
                    case.describe()

    def test_quick_campaign_covers_the_protocol_zoo(self) -> None:
        cases = [sample_live_case(0, index) for index in range(4)]
        combos = {(case.stack, case.algorithm, case.persist)
                  for case in cases}
        assert len(combos) >= 4
        # The leading case is the CI smoke: persistent replicated log
        # with client load under a crash+respawn + asymmetric netem plan.
        lead = cases[0]
        assert lead.stack == "log" and lead.persist and lead.workload > 0
        assert "crash(" in lead.plan and "recover=" in lead.plan
        assert "dist=pareto" in lead.plan and "dist=uniform" in lead.plan
        # It respawns a pid, so it runs the crash-recovery Omega and is
        # judged in that model.
        assert lead.algorithm == "crash-recovery"
        assert lead.envelope().failure_model == "crash-recovery"

    def test_describe_carries_the_full_plan(self) -> None:
        case = sample_live_case(0, 0)
        assert f"plan=[{case.plan}]" in case.describe()
        assert f"#{case.index}" in case.describe()


class TestCaseJudging:
    def test_unparseable_plan_fails_without_running(self, tmp_path) -> None:
        case = LiveSoakCase(index=0, stack="omega",
                            algorithm="comm-efficient", n=3, persist=False,
                            workload=0, seed=1, horizon=5.0,
                            plan="gibberish(t=1)")
        result = run_soak_case(case, tmp_path)
        assert result.status == "fail"
        assert "does not parse" in result.detail

    def test_out_of_model_plan_is_rejected_without_running(
            self, tmp_path) -> None:
        # Crashing the designated source (pid 0) forever exits the model.
        case = LiveSoakCase(index=0, stack="omega",
                            algorithm="comm-efficient", n=3, persist=False,
                            workload=0, seed=1, horizon=5.0,
                            plan="crash(t=1.0,pid=0)")
        result = run_soak_case(case, tmp_path)
        assert result.status == "model-violation"

    def test_a_respawn_under_a_crash_stop_omega_is_out_of_model(
            self, tmp_path) -> None:
        case = LiveSoakCase(index=0, stack="log",
                            algorithm="comm-efficient", n=3, persist=True,
                            workload=10, seed=1, horizon=5.0,
                            plan="crash(t=1.0,pid=1,recover=2.0)")
        result = run_soak_case(case, tmp_path)
        assert result.status == "model-violation"
        assert "under a crash-stop algorithm" in result.detail

    def test_control_error_maps_to_named_timeout(self, tmp_path,
                                                 monkeypatch) -> None:
        error = ControlError(pid=1, endpoint=("127.0.0.1", 9), attempts=4,
                             elapsed=0.35, cause="timed out")
        monkeypatch.setattr(LiveCluster, "run",
                            lambda self: (_ for _ in ()).throw(error))
        case = sample_live_case(0, 1)
        result = run_soak_case(case, tmp_path)
        assert result.status == "timeout"
        assert "node 1" in result.detail
        assert "127.0.0.1:9" in result.detail
        assert "4 attempts" in result.detail

    def test_a_raising_case_fails_and_the_campaign_goes_on(
            self, tmp_path, monkeypatch) -> None:
        def explode(self) -> None:
            raise OSError("socket exploded")

        monkeypatch.setattr(LiveCluster, "run", explode)
        results = soak(campaign="live", cases=2, outdir=tmp_path)
        assert [result.case.index for result in results] == [0, 1]
        for result in results:
            assert result.status == "fail" and not result.ok
            assert "OSError" in result.detail

    def test_bench_rows_carry_latency_percentiles(self) -> None:
        case = sample_live_case(0, 0)
        document = {
            "sim": {"events_executed": 10},
            "verdict": {"ok": True, "violations": []},
            "workload": {"submitted": 10, "committed": 10,
                         "throughput_cps": 1.0,
                         "latency_s": {"p50": 1.0, "p95": 2.0,
                                       "p99": 2.5}},
        }
        rows = soak_bench_cases([SoakResult(
            case, "ok", "", "0" * 16, wall_s=3.0, document=document)])
        assert rows[0]["ok"] is True
        assert rows[0]["result"]["latency_s"]["p95"] == 2.0
        assert rows[0]["case_id"].startswith("live-soak/log/")
        assert rows[0]["events"] == 10


class TestCliReplay:
    def test_case_past_the_campaign_size_replays(self, tmp_path, monkeypatch,
                                                 capsys) -> None:
        from repro.cli import main
        from repro.harness.soak import campaign_digest
        soak_module = importlib.import_module("repro.harness.soak")

        ran = []

        def canned(case: LiveSoakCase, rundir) -> SoakResult:
            ran.append(case.index)
            return SoakResult(case, "ok", "canned", "0" * 16)

        monkeypatch.setattr(soak_module, "run_soak_case", canned)
        code = main(["live", "soak", "--case", "7",
                     "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert ran == [7]
        case_lines = [line for line in out.splitlines() if " #" in line]
        assert len(case_lines) == 1 and " #7 " in case_lines[0]
        digest = campaign_digest([sample_live_case(0, 7)])
        assert f"campaign digest: {digest}" in out

    def test_negative_case_is_a_clean_error(self) -> None:
        from repro.cli import main

        with pytest.raises(SystemExit, match="--case must be >= 0"):
            main(["live", "soak", "--case", "-1"])


def _assert_all_reaped(cluster: LiveCluster) -> None:
    """Every spawned node process is dead and reaped — no orphans."""
    for pid, proc in cluster._procs.items():
        assert proc.poll() is not None, f"node {pid} leaked"


@pytest.mark.live
class TestTeardown:
    def test_mid_spawn_failure_kills_already_spawned_nodes(
            self, tmp_path, monkeypatch) -> None:
        """A later spawn failing mid-startup must not leak earlier nodes."""
        spec = LiveClusterSpec(n=3, horizon=5.0)
        cluster = LiveCluster(spec, tmp_path / "run")
        real_spawn = LiveCluster._spawn

        def failing_spawn(self, pid, horizon, incarnation):
            if pid == 2:
                raise OSError("spawn exploded mid-startup")
            real_spawn(self, pid, horizon, incarnation)

        monkeypatch.setattr(LiveCluster, "_spawn", failing_spawn)
        with pytest.raises(OSError, match="mid-startup"):
            cluster.run()
        assert set(cluster._procs) == {0, 1}
        _assert_all_reaped(cluster)

    def test_teardown_thaws_sigstopped_nodes_before_killing(
            self, tmp_path) -> None:
        spec = LiveClusterSpec(n=2, horizon=30.0)
        cluster = LiveCluster(spec, tmp_path / "run")
        try:
            for pid in range(spec.n):
                cluster._spawn(pid, spec.horizon, incarnation=0)
            for pid in range(spec.n):
                cluster._await_ready(pid)
            cluster._procs[0].send_signal(signal.SIGSTOP)
            cluster._paused.add(0)
        finally:
            cluster.teardown()
        _assert_all_reaped(cluster)
        assert cluster._paused == set()
        cluster.teardown()  # idempotent
        _assert_all_reaped(cluster)

    def test_wedged_control_channel_yields_named_timeout_and_teardown(
            self, tmp_path) -> None:
        """Killing the nodes' control channels mid-campaign ends in a
        named timeout verdict, never a hung campaign or an orphan."""
        import threading

        spec = LiveClusterSpec(n=3, horizon=20.0, log=True, workload=2,
                               workload_start=3.0, workload_period=0.25)
        cluster = LiveCluster(spec, tmp_path / "run")

        def killer() -> None:
            # Wait until all nodes are up, then SIGKILL them behind the
            # supervisor's back (the fault plan knows nothing of this),
            # wedging every control channel the workload will try.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                procs = list(cluster._procs.values())
                if len(procs) == spec.n and all(
                        proc.poll() is None for proc in procs):
                    break
                time.sleep(0.05)
            time.sleep(1.0)
            for proc in cluster._procs.values():
                proc.kill()

        thread = threading.Thread(target=killer)
        thread.start()
        try:
            with pytest.raises(ControlError) as excinfo:
                cluster.run()
        finally:
            thread.join()
        text = str(excinfo.value)
        assert "control channel of node" in text
        assert "attempt" in text and "backoff" in text
        _assert_all_reaped(cluster)


@pytest.mark.live
class TestLiveSoakCampaign:
    def test_single_case_campaign_runs_and_judges_ok(self,
                                                     tmp_path) -> None:
        result = run_soak_case(sample_live_case(0, 0, horizon=10.0),
                               tmp_path / "case0")
        assert result.status == "ok", result.detail
        assert result.case.persist and result.case.workload > 0
        workload = result.document["workload"]
        assert workload["committed"] == workload["submitted"]
        assert workload["latency_s"]["p95"] is not None
        assert (tmp_path / "case0" / "report.json").exists()
