"""Run one workload of the ratimm benchmark and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process calls ratimm's public API (or
`ratimm.cli.main`) in-process, one operation at a time: a closed loop
with one client.  Operations go in rounds, and rounds repeat until the
next one would end after `--seconds` seconds, with at least two.  Every
output is checked against the digest frozen in `expected.json`, outside
the timed region.  The seed is recorded; every seed times the same
inputs (see `workloads.py`).

--trace 0   a round is one untraced operation, after two fresh-interpreter
            set-up probes; reports the end-to-end metrics solve_s (the
            median over operations of the wall time at a reference host
            speed, see `hostspeed.py`), setup_s (the median set-up
            probe, at the same speed) and peak_rss_mb.
--trace 1   a round is a traced then an untraced operation; reports the
            per-layer metrics of `tracer.py`, checks that traced
            operations repeat their counts exactly and that traced and
            untraced outputs have equal digests.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit status is 0 only when
every operation passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from hostspeed import REFERENCE_LOOP_S, HostSpeed
from tracer import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES_PER_OP = 2
# Two rounds at least, so the median has two samples and the traced run
# two traced operations for its determinism check.
MIN_ROUNDS = 2


@dataclass
class Op:
    traced: bool
    wall: float | None = None
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None
    work: float | None = None  # untraced: length in host-speed loop times


def setup_times(name: str) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES_PER_OP):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_op(workload, expected: dict, tracer: Tracer | None,
           speed: HostSpeed | None) -> Op:
    op = Op(tracer is not None)
    inputs = workload.prepare()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with speed or contextlib.nullcontext():
            start = perf_counter()
            output = workload.solve(inputs)
            end = perf_counter()
        op.wall = end - start
        if speed is not None:
            op.work = speed.work(start, end)
    except Exception as exc:  # a raising operation is a failed operation
        traceback.print_exc()
        op.problems.append(f"{workload.name}: raised {type(exc).__name__}: {exc}")
        return op
    finally:
        if tracer is not None:
            tracer.uninstall()
    op.digest = workload.digest(output)
    op.problems += workload.check(output, expected)
    if tracer is not None:
        op.layers = tracer.summary(op.wall)
    return op


def run_ops(workload, seconds: float, traced: bool, speed: HostSpeed | None):
    """The run's operations and, untraced, its set-up probe times."""
    expected = workloads.load_expected()[workload.name]
    tracer = Tracer() if traced else None
    steps = [tracer, None] if traced else [None]
    ops: list[Op] = []
    setup: list[float] = []
    start = perf_counter()
    rounds = 0
    while True:
        for step_tracer in steps:
            if not traced:
                setup += setup_times(workload.name)
            op = run_op(workload, expected, step_tracer, speed)
            ops.append(op)
            print(f"round {rounds}: {'traced' if op.traced else 'untraced'} "
                  f"wall {op.wall if op.wall is None else round(op.wall, 4)} s"
                  f"{'' if not op.problems else ' FAILED'}", file=sys.stderr)
            for problem in op.problems:
                print(f"  {problem}", file=sys.stderr)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    if traced:
        _check_traced(ops)
        for qualname, sites in tracer.sites.items():
            print(f"wrapped {qualname} at {', '.join(sites)}", file=sys.stderr)
    return ops, setup


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def _check_traced(ops: list[Op]):
    """Traced operations repeat their counts exactly, and every operation
    of the traced run has the same output digest."""
    first_traced = next((op for op in ops if op.layers is not None), None)
    first_digest = next((op.digest for op in ops if op.digest is not None), None)
    for op in ops:
        if op.digest is not None and op.digest != first_digest:
            op.problems.append(f"{'traced' if op.traced else 'untraced'} output "
                               "digest differs within the run")
        if op.layers is not None and _counts(op.layers) != _counts(first_traced.layers):
            diff = {k: (v, first_traced.layers[k])
                    for k, v in _counts(op.layers).items()
                    if v != first_traced.layers[k]}
            op.problems.append(f"traced counts not repeated: {diff}")


def end_to_end(ops: list[Op], setup: list[float],
               speed: HostSpeed) -> dict[str, float]:
    done = [op for op in ops if op.wall is not None]
    at_reference = [op.work * REFERENCE_LOOP_S for op in done] or [0.0]
    print(f"median loop {statistics.median(speed.loop_times) * 1e3:.4f} ms over "
          f"{len(speed.loop_times)} probes; operations: median "
          f"{statistics.median(op.wall for op in done) if done else 0:.4f} s "
          f"as measured, {statistics.median(at_reference):.4f} s at the "
          "reference speed", file=sys.stderr)
    return {
        "solve_s": statistics.median(at_reference),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(ops: list[Op]) -> dict[str, float]:
    traced = [op.layers for op in ops if op.layers is not None]
    untraced = [op.wall for op in ops if not op.traced and op.wall is not None]
    if not traced:
        return {name: 0.0 for name in metric_units()}
    out = dict(traced[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(layers[key] for layers in traced)
    cols = out["linalg.sparse_rank_kernel.cols"]
    out["linalg.adds_per_column"] = (out["linalg.SparseEchelon.add.calls"] / cols
                                     if cols else 0.0)
    traced_wall = statistics.median(op.wall for op in ops if op.layers is not None)
    out["trace.overhead_frac"] = (traced_wall / statistics.median(untraced) - 1
                                  if untraced else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    produced = metric_units() if traced else {
        "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    if units != produced:
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(produced))}")

    speed = None if traced else HostSpeed()
    ops, setup = run_ops(workload, seconds, traced, speed)
    values = per_layer(ops) if traced else end_to_end(ops, setup, speed)
    failed = sum(1 for op in ops if op.problems)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"{'traced' if traced else 'untraced'}  ops {len(ops)}")
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<44} {failed / len(ops):>14.6g} ratio  ({failed}/{len(ops)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
