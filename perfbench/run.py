"""Benchmark of skewchar: three seeded workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload decompose-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                       # every workload, each in a fresh process
    python3 perfbench/run.py --repeat 10 --seed 1  # steadiness over seeds 1..10

Run from the repository root.  The package is imported from `src/`, which
this script puts on the path itself.  One workload run, in one process and
one thread, does this:

1. A fresh interpreter runs `python -m skewchar render 1` once, to warm
   the bytecode cache.
2. The workload's operation list is built from the seed.
3. Check pass: every operation runs once and its output goes through the
   independent checks in `checks`.  This pass also warms caches.
4. Timed passes over the whole list, one operation at a time, until
   `--seconds` have gone by.  Each output must equal the checked one.
   Before the first pass and after each one, a fresh interpreter runs
   `python -m skewchar render 1` twice; `setup_s` is the median of these.

With `--trace 1` the timed passes alternate between untraced and traced
(see `spans`), and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

SETUP_COMMAND = [sys.executable, "-m", "skewchar", "render", "1"]
SETUP_SAMPLES = 2  # per timed pass, and before the first
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class Setup:
    """Wall times of a fresh `python -m skewchar render 1`, and whether each printed '#'.

    Samples are taken before and between the timed passes, so that their
    median spans the run instead of one moment of it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ok = True
        self.sample(1)  # writes the bytecode cache; not counted

    def sample(self, count: int = SETUP_SAMPLES) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for _ in range(count):
            start = time.perf_counter()
            proc = subprocess.run(SETUP_COMMAND, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
            self.times.append(time.perf_counter() - start)
            self.ok = self.ok and proc.returncode == 0 and proc.stdout == "#\n"

    def median(self) -> float:
        return statistics.median(self.times[1:])


def _digest(result):
    if isinstance(result, tuple):
        code, text = result
        return code, hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
    return result


class Workload:
    """An operation list bound to the skewchar entry points."""

    def __init__(self, name: str, seed: int) -> None:
        from skewchar import cli, durfeemax
        from skewchar.partitions import Partition

        self.cli, self.durfeemax = cli, durfeemax
        self.ops = workloads.build(name, seed)
        self.inputs = [
            (True, list(op.argv))
            if op.call is None
            else (False, (Partition(op.call[0]), Partition(op.call[1]), op.call[2], op.call[3]))
            for op in self.ops
        ]
        self.expected: list = []  # digest of each checked output, or None if the operation failed
        self.problems: list[str] = []
        self.correct = True

    def execute(self, i: int):
        """Run operation i; return its result, or None if it raised or exited non-zero."""
        is_cli, payload = self.inputs[i]
        try:
            if not is_cli:
                return self.durfeemax.verify_complementation(*payload)
            result = self.cli.run(self.cli.parse_args(payload))
            if result[0] == 0:
                return result
            self.problems.append(f"failed: {self.ops[i].label[:100]}: exit code {result[0]}")
            return None
        except Exception as exc:  # any failure, RecursionError included, is one failed operation
            self.problems.append(f"failed: {self.ops[i].label[:100]}: {type(exc).__name__}")
            return None

    def check_pass(self) -> None:
        shared: dict = {}
        for i, op in enumerate(self.ops):
            result = self.execute(i)
            self.expected.append(None if result is None else _digest(result))
            if result is not None:
                try:
                    op.check(result, shared)
                except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                    self.problems.append(f"wrong: {op.label[:100]}: {exc}")
                    self.correct = False

    def timed_pass(self, latencies: list[float], tracer=None) -> tuple[float, int]:
        """One pass over the list; returns the summed operation time and the failures."""
        total, failed = 0.0, 0
        for i in range(len(self.ops)):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            result = self.execute(i)
            elapsed = time.perf_counter() - start
            total += elapsed
            if result is None:
                failed += 1
            else:
                latencies.append(elapsed)
            if (None if result is None else _digest(result)) != self.expected[i]:
                self.problems.append(f"changed: {self.ops[i].label[:100]}")
                self.correct = False
        return total, failed


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from spans import PeakAlloc, Tracer, per_layer_units

    setup = None if traced else Setup()
    wl = Workload(name, seed)
    peak = PeakAlloc("lr", "decompose_skew")
    if traced:
        peak.install()
    try:
        wl.check_pass()
    finally:
        peak.uninstall()

    attempted = failed = 0
    walls, traced_walls, layer_runs = [], [], []
    latencies: list[float] = []
    tracer = Tracer()
    if not traced:
        setup.sample()
    deadline = time.perf_counter() + seconds
    while True:
        wall, fails = wl.timed_pass(latencies)
        walls.append(wall)
        attempted, failed = attempted + len(wl.ops), failed + fails
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, fails = wl.timed_pass([], tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_runs.append(tracer.metrics())
            attempted, failed = attempted + len(wl.ops), failed + fails
            self_total = sum(v for k, v in layer_runs[-1].items() if k.endswith(".self_s"))
            if self_total > wall:
                wl.problems.append(f"self times sum to {self_total:.4f} s, more than the traced {wall:.4f} s")
        else:
            setup.sample()
        if time.perf_counter() >= deadline:
            break

    if traced:
        metrics = dict(layer_runs[-1])
        for key in metrics:
            if key.endswith(".self_s"):
                metrics[key] = statistics.median(run[key] for run in layer_runs)
        metrics["lr.decompose_skew.peak_alloc_mb"] = peak.peak_bytes / 2**20
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}-{seed}.json")
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": setup.median(),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        if not setup.ok:
            wl.problems.append("wrong: `python -m skewchar render 1` did not print '#'")
            wl.correct = False
    for line in sorted(set(wl.problems)):
        print(line, file=sys.stderr)
    print(f"{name}: {len(wl.ops)} operations per pass, {len(walls) + len(traced_walls)} timed passes", file=sys.stderr)
    return {
        "correct": wl.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter and return its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(names: list[str], seed: int, repeat: int, seconds: float) -> dict:
    """Repeat each workload over seeds seed..seed+repeat-1 and print each metric's spread."""
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runs = [_child(name, seed + i, seconds, 0) for i in range(repeat)]
        shares = sorted({(r["failed"], r["attempted"]) for r in runs}, key=lambda fa: fa[0] / fa[1])
        print(f"{name}: failed/attempted {', '.join(f'{f}/{a}' for f, a in shares)}")
        if len({f / a for f, a in shares}) > 1:
            print(f"{name}: the failed share differs between runs")
            summary["correct"] = False
        for r in runs:
            print("  " + " ".join(f"{m}={r['metrics'][m]['value']:.4f}" for m in END_TO_END_UNITS))
        print(f"  {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6} {'/bound':>7}")
        for metric in END_TO_END_UNITS:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {metric:12} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} {bounds[metric]:6.2f} {spread / bounds[metric]:7.2f}")
            summary["metrics"][f"{name}.{metric}.spread"] = {"value": spread, "unit": "ratio"}
        summary["correct"] = summary["correct"] and all(r["correct"] for r in runs)
        summary["attempted"] += sum(r["attempted"] for r in runs)
        summary["failed"] += sum(r["failed"] for r in runs)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="minimum time of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced passes")
    parser.add_argument("--repeat", type=int, default=0, metavar="N", help="steadiness mode: N runs per workload, seeds seed..seed+N-1")
    args = parser.parse_args(argv)
    if not (SRC / "skewchar" / "__init__.py").is_file():
        print(f"error: {SRC / 'skewchar'} not found; run from a skewchar checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.repeat:
        result = steadiness(names, args.seed, args.repeat, args.seconds)
    elif args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            res = _child(name, args.seed, args.seconds, args.trace)
            print(f"{name}: {json.dumps(res)}")
            result["correct"] = result["correct"] and res["correct"]
            result["attempted"] += res["attempted"]
            result["failed"] += res["failed"]
            result["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
