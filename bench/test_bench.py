"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks the result schema against BENCHMARK.json, that every oracle rejects
a corrupted output and that corrupted or crashing executions count as
failures, that traced counts repeat, and that the oracles use no psipp code.
"""

from __future__ import annotations

import ast
import io
import json
import re
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {"expand": {"n": 3}, "expand_trace": {"n": 3},
        "concrete": {"statements": 6}, "shared_force": {"depth": 3}}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _measure(name: str, trace: bool, cli=None) -> dict:
    result, _ = run.run(WORKLOADS[name], 7, 0.05, trace, size=TINY[name],
                        cli=cli, min_executions=3)
    return result


def _output(name: str, seed: int = 7) -> tuple[object, str]:
    cli = run.load_cli()
    program = WORKLOADS[name].generate(seed, **TINY[name])
    path = run.OUT / f"selftest-{name}.psi"
    path.parent.mkdir(exist_ok=True)
    path.write_text(program.source, encoding="utf-8")
    out = io.StringIO()
    assert cli.run_file(str(path), trace=WORKLOADS[name].trace,
                        stdout=out, stderr=io.StringIO()) == 0
    return program, out.getvalue()


def test_spec_names_and_units():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= next(m["bound"] for m in SPEC["end_to_end"]
                                       if m["name"] == "setup_s")
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert workload["why"] == WORKLOADS[workload["name"]].record()
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_result_schema(name, trace):
    result = _measure(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    json.loads(json.dumps(result))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["expand", "expand_trace"])
def test_rewrite_steps_are_n_squared_minus_one(name):
    n = TINY[name]["n"]
    steps = _measure(name, True)["metrics"]["algebra.rewrite_steps"]["value"]
    assert steps == n * n - 1


def _corruptions(text: str) -> list[str]:
    lines = text.splitlines()
    digit = re.search(r"\d", text)
    swapped = text[:digit.start()] + str((int(digit.group()) + 1) % 10) \
        + text[digit.end():]
    return ["", "\n".join(lines[:-1]), "\n".join(lines[1:]), swapped,
            text.replace("+", "-", 1), text + "extra\n"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_rejects_corrupted_output(name):
    program, out = _output(name)
    assert program.check(out)
    for corrupted in _corruptions(out):
        if corrupted != out:
            assert not program.check(corrupted), repr(corrupted[:200])
    other, other_out = _output(name, seed=8)
    if other_out != out:
        assert not other.check(out)


class _CorruptCli:
    """psipp.cli with run_file altered: it replaces the program's output
    with a wrong line, or raises RecursionError as deep recursion would."""

    def __init__(self, mode: str):
        self.real = run.load_cli()
        self.Session = self.real.Session
        self.mode = mode

    def run_file(self, path, trace=False, stdout=None, stderr=None):
        if self.mode == "raise":
            raise RecursionError("maximum recursion depth exceeded")
        code = self.real.run_file(path, trace=trace, stdout=io.StringIO(),
                                  stderr=stderr)
        print("corrupted", file=stdout)
        return code


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("mode", ["corrupt", "raise"])
def test_failures_are_counted(name, mode):
    result = _measure(name, False, cli=_CorruptCli(mode))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["success_frac"]["value"] < 1


def test_traced_counts_repeat():
    _, record = run.run(WORKLOADS["concrete"], 7, 0.05, True,
                        size=TINY["concrete"], min_executions=3)
    assert record["detail"]["consistent_counts"]
    assert record["detail"]["traced_passes"] >= 2
    assert record["detail"]["counts"]["calls"]["dispatch"] == 6


def test_oracles_import_nothing_from_psipp():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("psipp") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("psipp")
