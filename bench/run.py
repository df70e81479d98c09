"""psipp benchmark: generated ψ++ programs run end to end through
``psipp.cli.run_file``, in process, one thread, closed loop.

    python3 bench/run.py --workload expand --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split from a separate traced pass. Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full records and
the spans of the fastest traced pass are written under ``bench/out/``.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import statistics
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

from calibration import calibration_s
from tracer import KERNELS, PROGRAM, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# executions per end-to-end run, however slow the machine
MIN_EXECUTIONS = 20
# traced passes whose counts must agree
MIN_TRACED = 2


def load_cli():
    """Import psipp.cli from this checkout's sources, never an installed
    copy."""
    src = ROOT / "src"
    if not (src / "psipp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no psipp sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import psipp.cli
    if Path(psipp.cli.__file__).resolve().parent.parent != src:
        raise SystemExit("bench: imported psipp from outside this checkout")
    return psipp.cli


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Runner:
    """Executes one generated program and keeps the failure count."""

    def __init__(self, cli, program, path: Path, trace: bool):
        self.cli = cli
        self.program = program
        self.path = str(path)
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self._verified = None  # an output the oracle accepted

    def output(self, trace: bool) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = self.cli.run_file(self.path, trace=trace, stdout=out,
                                     stderr=err)
        except Exception:  # RecursionError included: a failed execution
            code = None
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def execute(self) -> float:
        """One checked execution; returns its wall seconds."""
        gc.collect()
        start = perf_counter()
        code, out, err = self.output(self.trace)
        seconds = perf_counter() - start
        self.attempted += 1
        if code != 0 or "Traceback" in err or not self._correct(out):
            if not self.failed:
                print(f"bench: execution failed (exit {code}):\n{err[-2000:]}",
                      file=sys.stderr)
            self.failed += 1
        return seconds

    def _correct(self, out: str) -> bool:
        # psipp is deterministic, so an output equal to one the oracle
        # accepted is correct; this keeps slow oracles off the loop
        if out == self._verified:
            return True
        if self.program.check(out):
            self._verified = out
            return True
        return False


def measure_end_to_end(runner: Runner, seconds: float,
                       min_executions: int = MIN_EXECUTIONS
                       ) -> tuple[dict, dict]:
    calibration_s()
    runner.execute()  # warm-up: imports, caches, first allocations
    walls, calibrations, setups = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < min_executions:
        gc.collect()
        start = perf_counter()
        runner.cli.Session()
        setups.append(perf_counter() - start)
        calibrations.append(calibration_s())
        walls.append(runner.execute())
    # tracemalloc slows execution several-fold, so it gets its own pass
    tracemalloc.start()
    try:
        runner.execute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    relative = [w / c for w, c in zip(walls, calibrations)]
    metrics = {
        "wall_rel": (statistics.median(relative), "s/s"),
        "setup_s": (min(setups), "s"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
        "success_frac": (1 - runner.failed / runner.attempted, "ratio"),
    }
    # recorded, not bounded: on a shared machine these follow the load of
    # other tenants more than the program (see README.md, "Noise")
    detail = {"executions": len(walls),
              "wall_min_s": min(walls),
              "wall_median_s": statistics.median(walls),
              "wall_p90_s": statistics.quantiles(walls, n=10)[-1],
              "wall_rel_p90": statistics.quantiles(relative, n=10)[-1],
              "calibration_median_s": statistics.median(calibrations),
              "setup_median_s": statistics.median(setups),
              "wall_s": walls, "calibration_s": calibrations,
              "setup_s": setups}
    return metrics, detail


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, wall: float, steps: int) -> dict:
    """Per-layer metrics of one traced execution lasting ``wall`` seconds."""
    calls = tracer.calls[PROGRAM]
    self_s = tracer.self_s[PROGRAM]
    nodes = tracer.nodes()
    dispatches = calls["dispatch"]
    return {
        "lexer.self_s": (self_s["lexer"], "s"),
        "lexer.tokens": (tracer.tokens, "count"),
        "lexer.tokens_per_s": (_rate(tracer.tokens, self_s["lexer"]), "1/s"),
        "parser.self_s": (self_s["parser"], "s"),
        "parser.nodes": (nodes, "count"),
        "parser.nodes_per_s": (_rate(nodes, self_s["parser"]), "1/s"),
        "objects.self_s": (self_s["objects"], "s"),
        "objects.calls": (tracer.layer_calls("objects"), "count"),
        "evaluator.self_s": (self_s["evaluator"], "s"),
        "evaluator.eval_calls": (calls["eval_expr"], "count"),
        "evaluator.dispatches": (dispatches, "count"),
        "evaluator.method_frames": (tracer.frames, "count"),
        "evaluator.matches": (calls["match_pattern"], "count"),
        "evaluator.thunks_built": (calls["make_thunk"], "count"),
        "evaluator.dispatch_us": (
            1e6 * _rate(tracer.inclusive_s["dispatch"], dispatches), "us"),
        "evaluator.force_s": (tracer.inclusive_s["force"], "s"),
        "evaluator.forces": (calls["force"], "count"),
        "algebra.simplify_s": (self_s["algebra"], "s"),
        "algebra.rewrite_steps": (steps, "count"),
        "algebra.steps_per_s": (_rate(steps, tracer.inclusive_s["simplify"]),
                                "1/s"),
        "algebra.kernel_calls": (sum(calls[k] for k in KERNELS), "count"),
        "monomials.self_s": (self_s["monomials"], "s"),
        "monomials.calls": (tracer.layer_calls("monomials"), "count"),
        "pretty.self_s": (self_s["pretty"], "s"),
        "pretty.renders": (tracer.layer_calls("pretty"), "count"),
        "pretty.chars": (tracer.chars, "count"),
        "pretty.chars_per_s": (_rate(tracer.chars, self_s["pretty"]), "1/s"),
        # file I/O, output printing and Session glue
        "cli.self_s": (wall - tracer.prelude_s - sum(self_s.values()), "s"),
        "prelude.load_s": (tracer.prelude_s, "s"),
    }


def rewrite_steps(runner: Runner) -> int:
    """Number of --trace lines the program prints: the lines it prints
    with tracing on, minus those it prints with tracing off."""
    return len(runner.output(True)[1].splitlines()) \
        - len(runner.output(False)[1].splitlines())


def measure_traced(runner: Runner, seconds: float,
                   spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced executions. The per-layer metrics are
    those of the fastest traced pass, the one other tenants of the machine
    disturbed least; the operation counts of all passes must agree."""
    steps = rewrite_steps(runner)
    runner.execute()  # warm-up
    untraced, traced, counts = [], [], []
    fastest = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < MIN_TRACED:
        untraced.append(runner.execute())
        tracer = Tracer()
        tracer.install()
        try:
            wall = runner.execute()
        finally:
            tracer.uninstall()
        traced.append(wall)
        counts.append(tracer.counts())
        if fastest is None or wall < fastest[0]:
            fastest = wall, tracer
    wall, tracer = fastest
    metrics = layer_metrics(tracer, wall, steps)
    metrics["trace.overhead_frac"] = (wall / min(untraced) - 1, "ratio")
    with open(spans_path, "w", encoding="utf-8") as handle:
        for record in tracer.span_records():
            handle.write(json.dumps(record) + "\n")
    detail = {"consistent_counts": all(c == counts[0] for c in counts),
              "traced_passes": len(traced), "counts": counts[0],
              "share_of_traced_wall": {
                  name: value / wall for name, (value, unit) in metrics.items()
                  if unit == "s"}}
    if not detail["consistent_counts"]:
        print("bench: operation counts differ between traced passes",
              file=sys.stderr)
    return metrics, detail


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        size: dict | None = None, cli=None,
        min_executions: int = MIN_EXECUTIONS) -> tuple[dict, dict]:
    """Measure one workload; returns the result line and the full record.
    ``size`` and ``cli`` default to the workload's size and this checkout's
    psipp; the self-test shrinks the one and corrupts the other."""
    cli = cli if cli is not None else load_cli()
    size = size if size is not None else workload.size
    program = workload.generate(seed, **size)
    stem = f"{workload.name}-{seed}"
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{stem}.psi"
    path.write_text(program.source, encoding="utf-8")
    runner = Runner(cli, program, path, workload.trace)
    if trace:
        metrics, detail = measure_traced(runner, seconds,
                                         OUT / f"{stem}-spans.jsonl")
    else:
        metrics, detail = measure_end_to_end(runner, seconds, min_executions)
    correct = runner.failed == 0 and detail.get("consistent_counts", True)
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    env = {"python": platform.python_version(), "git": git_revision(),
           "nproc": os.cpu_count(), "workload": workload.name, "size": size,
           "seed": seed, "seconds": seconds, "trace": int(trace)}
    record = {"env": env, "detail": detail, **result}
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    print("env", json.dumps(record["env"]))
    for name, metric in result["metrics"].items():
        print(f"{name:28} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record["detail"].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"  recorded {name:19} {value:>16.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
