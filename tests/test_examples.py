"""The example scripts must run end to end and conclude successfully.

Each example ends with internal assertions and an "OK"/summary line, so
executing ``main()`` is a real integration test of the public API.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:  # noqa: ANN001
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys) -> None:  # noqa: ANN001
        out = run_example("quickstart", capsys)
        assert "Omega holds:             True" in out
        assert "OK:" in out

    def test_leader_failover(self, capsys) -> None:  # noqa: ANN001
        out = run_example("leader_failover", capsys)
        assert "CRASH process" in out
        assert "OK: the survivors agreed on a new correct leader." in out

    def test_replicated_counter(self, capsys) -> None:  # noqa: ANN001
        out = run_example("replicated_counter", capsys)
        assert "all replicas agree: counter = 10" in out
        assert "OK:" in out

    def test_kv_store(self, capsys) -> None:  # noqa: ANN001
        out = run_example("kv_store", capsys)
        assert "crashing leader" in out
        assert "OK: identical stores" in out

    def test_debugging_tour(self, capsys) -> None:  # noqa: ANN001
        out = run_example("debugging_tour", capsys)
        assert "wire summary" in out
        assert "agreement fraction" in out
        assert "OK: re-elected" in out

