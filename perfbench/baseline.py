"""Run every workload over several seeds and summarize, one run at a time.

Usage:
    python3 perfbench/baseline.py [--first-seed 0] [--out perfbench/baseline.json]

For each workload of BENCHMARK.json: ten untraced runs of `run.py` with
seeds first-seed, first-seed+1, ..., each for BENCHMARK.json's
`run_seconds`; then two traced runs on the first seed, whose counts must
agree exactly.  Every seed's run times the same inputs, so the ten runs
repeat one measurement, and the nine non-default seeds among them are
the seed check.  Prints, per workload, each end-to-end metric's median
and quartiles with its unit, the spread (q3 - q1) / median against the metric's bound, and fail_frac
(failed / attempted operations).  Writes the same summary, the per-layer
table of the first traced run and the machine's facts (nproc, Python
version, load average) to `--out`.  Exits nonzero if any operation
failed or the traced counts differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
TRACED_RUNS = 2  # the determinism check compares a pair


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    result["seed"] = seed
    result["exit"] = proc.returncode
    print(f"  {workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"{result['attempted']} ops, {result['failed']} failed", flush=True)
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(workload: str, runs: list[dict], traced: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out = {"seeds": [r["seed"] for r in runs], "attempted": attempted,
           "failed": failed, "fail_frac": failed / attempted,
           "nondefault_seed_ok": all(r["correct"] and r["exit"] == 0
                                     for r in runs if r["seed"] != 0),
           "end_to_end": {}}
    print(f"{workload}: {len(runs)} runs, fail_frac {failed / attempted:g} "
          f"({failed}/{attempted})")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        stats = quartiles([r["metrics"][name]["value"] for r in runs])
        stats.update(unit=metric["unit"], bound=metric["bound"])
        out["end_to_end"][name] = stats
        print(f"  {name:<12} median {stats['median']:10.4f} {metric['unit']:<3} "
              f"q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}  "
              f"spread {stats['spread']:.4f} (bound {metric['bound']})")
    if traced:
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        counts = [{k: v for k, v in t["metrics"].items() if not k.endswith(
            ("_s", "overhead_frac"))} for t in traced]
        out["per_layer"] = layers
        out["traced_counts_repeat"] = all(c == counts[0] for c in counts)
        out["traced_ok"] = all(t["correct"] and t["exit"] == 0 for t in traced)
        print(f"  traced runs: {len(traced)}, counts repeat: "
              f"{out['traced_counts_repeat']}, adds_per_column "
              f"{layers['linalg.adds_per_column']:.4f}, overhead "
              f"{layers['trace.overhead_frac']:.3f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)

    report = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform(), "cpu": cpu_model(),
                          "loadavg_start": os.getloadavg()},
              "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        seeds = range(args.first_seed, args.first_seed + RUNS)
        runs = [run(workload, seed, 0) for seed in seeds]
        traced = [run(workload, args.first_seed, 1) for _ in range(TRACED_RUNS)]
        summary = summarize(workload, runs, traced)
        report["workloads"][workload] = summary
        ok &= summary["failed"] == 0 and all(r["exit"] == 0 for r in runs)
        ok &= summary.get("traced_counts_repeat", True) and summary.get("traced_ok", True)
    report["machine"]["loadavg_end"] = os.getloadavg()
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
