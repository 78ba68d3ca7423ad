"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_omega_defaults(self) -> None:
        args = build_parser().parse_args(["omega"])
        assert args.algorithm == "comm-efficient"
        assert args.system == "source"
        assert args.n == 5

    def test_unknown_algorithm_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["omega", "--algorithm", "raft"])


class TestAlgorithmsCommand:
    def test_lists_registry(self, capsys) -> None:  # noqa: ANN001
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("all-timely", "source", "comm-efficient", "f-source"):
            assert name in out
        assert "relay-tree" in out


class TestOmegaCommand:
    def test_successful_run_exits_zero(self, capsys) -> None:  # noqa: ANN001
        code = main(["omega", "--algorithm", "comm-efficient",
                     "--system", "source", "--n", "4", "--source", "1",
                     "--horizon", "120", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "omega holds:        True" in out
        assert "comm-efficient:     True" in out

    def test_crash_option(self, capsys) -> None:  # noqa: ANN001
        code = main(["omega", "--algorithm", "all-timely",
                     "--system", "all-et", "--n", "4",
                     "--faults", "crash(t=20.0,pid=0)", "--horizon", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "final leader:       1" in out

    def test_bad_crash_syntax(self) -> None:
        with pytest.raises(SystemExit, match="bad fault plan") as exit_info:
            main(["omega", "--faults", "crash(t=oops,pid=1)"])
        assert "\n" not in str(exit_info.value)

    def test_f_source_with_targets(self, capsys) -> None:  # noqa: ANN001
        code = main(["omega", "--algorithm", "f-source",
                     "--system", "f-source", "--n", "4", "--source", "1",
                     "--targets", "0,2", "--horizon", "250"])
        assert code == 0

    def test_relay_run(self, capsys) -> None:  # noqa: ANN001
        code = main(["omega", "--system", "relay-tree", "--n", "5",
                     "--source", "2", "--relay", "--horizon", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "originators:" in out

    def test_relay_schedules_faults_like_crash(self, capsys) -> None:  # noqa: ANN001
        relay = ["omega", "--system", "relay-tree", "--n", "6", "--source",
                 "2", "--relay", "--horizon", "120"]
        main(relay)
        calm = capsys.readouterr().out
        main([*relay, "--faults", "crash(t=30.0,pid=4)"])
        faulted = capsys.readouterr().out
        assert "\n|       4 |" in calm
        assert "\n|       4 |" not in faulted

    def test_relay_rejects_f_source_algorithm(self) -> None:
        with pytest.raises(SystemExit):
            main(["omega", "--algorithm", "f-source", "--relay",
                  "--system", "source", "--targets", "0"])


class TestConsensusCommand:
    def test_decides_and_exits_zero(self, capsys) -> None:  # noqa: ANN001
        code = main(["consensus", "--n", "3", "--horizon", "100",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement: True   validity: True" in out

    def test_with_crash(self, capsys) -> None:  # noqa: ANN001
        code = main(["consensus", "--n", "5", "--faults",
                     "crash(t=2.0,pid=4)", "--horizon", "150"])
        assert code == 0

    def test_f_source_without_f_is_a_one_line_exit(self) -> None:
        with pytest.raises(SystemExit, match="needs --f") as exit_info:
            main(["consensus", "--omega", "f-source"])
        assert "\n" not in str(exit_info.value)


class TestLogCommand:
    def test_commits_all_commands(self, capsys) -> None:  # noqa: ANN001
        code = main(["log", "--n", "4", "--commands", "8",
                     "--horizon", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all commands committed: True" in out

    def test_leader_crash_flag(self, capsys) -> None:  # noqa: ANN001
        code = main(["log", "--n", "4", "--commands", "8",
                     "--crash-leader-at", "20", "--horizon", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "crashing leader" in out

    def test_f_source_is_not_a_log_omega(self, capsys) -> None:  # noqa: ANN001
        # The log has no --f to give it: a usage error, not a traceback.
        with pytest.raises(SystemExit) as exit_info:
            main(["log", "--omega", "f-source"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'f-source'" in capsys.readouterr().err


class TestQosCommand:
    def test_table_per_algorithm(self, capsys) -> None:  # noqa: ANN001
        code = main(["qos", "--n", "5", "--horizon", "150"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("all-timely", "source", "comm-efficient", "f-source"):
            assert name in out
        assert "agreement frac" in out


class TestSweepCommand:
    @pytest.mark.slow
    def test_matrix_shape(self, capsys) -> None:  # noqa: ANN001
        code = main(["sweep"])
        out = capsys.readouterr().out
        assert code == 0
        # The exact matrix of the paper's trade-off at the defaults: the
        # baseline and the bounded-packet variant fail outside all-◇timely
        # (2), everything but the f-source algorithm fails in the
        # ◇f-source system (5), and CE holds only with a full source.
        assert out.count("FAILS") == 7
        assert out.count("holds + CE") == 5
        header = next(line for line in out.splitlines()
                      if "system \\ algorithm" in line)
        row = next(line for line in out.splitlines()
                   if "◇f-source (f=2)" in line)
        columns = [cell.strip() for cell in header.split("|")[2:-1]]
        verdicts = [cell.strip() for cell in row.split("|")[2:-1]]
        assert len(columns) == len(verdicts) == 6
        assert dict(zip(columns, verdicts)) == {
            name: "holds" if name == "f-source" else "FAILS"
            for name in columns}
